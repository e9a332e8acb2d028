#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "ops/crc32.hh"

namespace perfbench
{

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Phase: return "phase";
      case Layer::Driver: return "driver";
      case Layer::Mem: return "mem";
      case Layer::Cpu: return "cpu";
      case Layer::Sim: return "sim";
      case Layer::Dml: return "dml";
      case Layer::Ops: return "ops";
    }
    return "?";
}

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Setup: return "setup";
      case Stage::Measure: return "measure";
      case Stage::Teardown: return "teardown";
      case Stage::Verify: return "verify";
    }
    return "?";
}

std::uint32_t
Tracer::sumIndex(Layer l, const char *name)
{
    // Hot spans repeat back to back; check the last one first. Names
    // are string literals, so pointer identity is name identity.
    if (lastSum < sums.size()) {
        const Total &t = sums[lastSum];
        if (t.name == name && t.layer == l && t.run == run &&
            t.stage == stage)
            return lastSum;
    }
    for (std::uint32_t i = 0; i < sums.size(); ++i) {
        const Total &t = sums[i];
        if (t.name == name && t.layer == l && t.run == run &&
            t.stage == stage)
            return lastSum = i;
    }
    sums.push_back(Total{run, stage, l, name, 0, 0, 0});
    return lastSum = static_cast<std::uint32_t>(sums.size() - 1);
}

void
Tracer::open(Layer l, const char *name)
{
    Open o;
    o.id = static_cast<std::uint32_t>(++seen);
    o.sum = sumIndex(l, name);
    o.t0 = Clock::now();
    stack.push_back(o);
}

void
Tracer::close()
{
    const Clock::time_point t1 = Clock::now();
    const Open o = stack.back();
    stack.pop_back();
    const double dur = std::chrono::duration<double>(t1 - o.t0).count();
    Total &t = sums[o.sum];
    ++t.calls;
    t.totalS += dur;
    t.selfS += dur - o.childS;
    if (!stack.empty())
        stack.back().childS += dur;
    if (t.calls <= keepPerName) {
        const auto since = [this](Clock::time_point p) {
            return std::chrono::duration<double>(p - origin).count();
        };
        records.push_back(Record{t.name, t.layer, t.stage, t.run, o.id,
                                 stack.empty() ? 0 : stack.back().id,
                                 since(o.t0), since(t1)});
    }
}

double
Tracer::total(unsigned r, Stage s, Layer l, const char *name) const
{
    double sum = 0;
    for (const Total &t : sums)
        if (t.run == r && t.stage == s && t.layer == l &&
            (!name || std::strcmp(name, t.name) == 0))
            sum += t.totalS;
    return sum;
}

double
Tracer::self(unsigned r, Stage s, Layer l) const
{
    double sum = 0;
    for (const Total &t : sums)
        if (t.run == r && t.stage == s && t.layer == l)
            sum += t.selfS;
    return sum;
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &label) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // Complete ("X") events on one thread nest by time, which is how
    // Perfetto and chrome://tracing draw the call tree.
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":"
                    "{\"benchmark\":\"%s\",\"spans_seen\":%zu,"
                    "\"spans_kept\":%zu},\n\"traceEvents\":[\n",
                 label.c_str(), seen, records.size());
    std::fprintf(f, "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":"
                    "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                 label.c_str());
    for (const Record &r : records) {
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,"
                     "\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                     "\"run\":%u,\"stage\":\"%s\"}}",
                     r.name, layerName(r.layer), r.t0 * 1e6,
                     (r.t1 - r.t0) * 1e6, r.id, r.parent, r.run,
                     stageName(r.stage));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

CounterMap
counters(const dsasim::stats::Registry &reg)
{
    CounterMap m;
    for (const auto &e : reg.snapshot().entries)
        if (e.kind == dsasim::stats::Registry::Kind::Counter)
            m[e.name] = static_cast<std::uint64_t>(e.value);
    return m;
}

CounterMap
delta(const CounterMap &a, const CounterMap &b)
{
    CounterMap d;
    for (const auto &[name, v] : b) {
        auto it = a.find(name);
        const std::uint64_t before = it == a.end() ? 0 : it->second;
        if (v != before)
            d[name] = v - before;
    }
    return d;
}

std::uint64_t
sumCounters(const CounterMap &m, std::string_view suffix,
            std::string_view scope)
{
    std::uint64_t s = 0;
    for (const auto &[name, v] : m) {
        const std::string_view n = name;
        const bool tail =
            n == suffix ||
            (n.size() > suffix.size() &&
             n.substr(n.size() - suffix.size()) == suffix &&
             n[n.size() - suffix.size() - 1] == '.');
        if (tail && (scope.empty() ||
                     n.find(scope) != std::string_view::npos))
            s += v;
    }
    return s;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
seedBytes(dsasim::AddressSpace &as, dsasim::Addr va, std::uint64_t len,
          std::uint64_t seed)
{
    std::uint64_t k = mix64(seed);
    as.forEachSpan(va, len, "seed", [&](dsasim::AddressSpace::Span s) {
        std::uint64_t i = 0;
        for (; i + 8 <= s.len; i += 8) {
            // Setting bit 0 of every byte keeps each byte non-zero.
            const std::uint64_t w =
                mix64(k++) | 0x0101010101010101ULL;
            std::memcpy(s.ptr + i, &w, 8);
        }
        for (; i < s.len; ++i)
            s.ptr[i] = static_cast<std::uint8_t>(mix64(k++) | 1);
    });
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0 -
                   HostProbe::tableMiB;
    return 0;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

HostProbe::HostProbe(Tracer &tr) : tracer(tr), table(tableEntries)
{
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = mix64(i);
}

double
HostProbe::speed()
{
    Tracer::Span sp(tracer, Layer::Phase, "host_probe");
    for (const std::uint64_t v : table)
        sink += v;
    std::vector<double> rates;
    for (int b = 0; b < probeBursts; ++b) {
        const auto t0 = Clock::now();
        std::uint64_t n = 0;
        double dt = 0;
        do {
            for (int k = 0; k < 4096; ++k) {
                lcg = lcg * 6364136223846793005ULL +
                      1442695040888963407ULL;
                sink += table[lcg >> 41]; // 2^23 entries
            }
            n += 4096;
            dt = secondsSince(t0);
        } while (dt < burstSeconds);
        rates.push_back(static_cast<double>(n) / dt);
    }
    return median(rates) / nominalRate;
}

void
Laps::start()
{
    points.clear();
    t0 = Clock::now();
    points.push_back(Point{0.0, 0});
}

void
Laps::mark(std::uint64_t ops)
{
    points.push_back(Point{secondsSince(t0), ops});
}

double
Laps::medianRate() const
{
    std::vector<double> rates;
    const std::uint64_t total = points.back().ops;
    std::size_t from = 0;
    for (unsigned i = 1; i <= chunks; ++i) {
        const std::uint64_t want = total * i / chunks;
        std::size_t to = from;
        while (to + 1 < points.size() && points[to].ops < want)
            ++to;
        const Point &a = points[from], &b = points[to];
        if (b.ops > a.ops && b.t > a.t) {
            rates.push_back(static_cast<double>(b.ops - a.ops) /
                            (b.t - a.t));
            from = to;
        }
    }
    return median(rates);
}

std::uint32_t
RefCrc::operator()(const std::vector<std::uint8_t> &buf, Tracer &tr)
{
    Tracer::Span sp(tr, Layer::Ops, "crc32c");
    const auto t0 = Clock::now();
    const std::uint32_t c = dsasim::crc32cFull(buf.data(), buf.size());
    seconds += secondsSince(t0);
    bytes += static_cast<double>(buf.size());
    return c;
}

void
Result::exactU(const std::string &name, std::uint64_t v)
{
    exact.emplace_back(name, std::to_string(v));
}

void
Result::exactF(const std::string &name, double v)
{
    // %a is exact: any drift in a simulated double shows.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    exact.emplace_back(name, buf);
}

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

} // namespace

void
reportRegistryCounts(Result &r, const CounterMap &d,
                     std::uint64_t atc_lookups)
{
    struct Item
    {
        const char *metric;
        const char *suffix;
        const char *scope;
    };
    static const Item items[] = {
        {"mem.llc_hit_bytes", "llc.hit_bytes", ""},
        {"mem.llc_miss_bytes", "llc.miss_bytes", ""},
        {"mem.llc_writeback_bytes", "llc.writeback_bytes", ""},
        {"mem.iommu_translations", "iommu.translations", ""},
        {"dsa.descriptors_submitted", "descriptors_submitted", ""},
        {"dsa.descriptors_retried", "descriptors_retried", ""},
        {"dsa.wq_rejected", "rejected", ".wq"},
        {"dsa.bytes_read", "bytes_read", ".eng"},
        {"dsa.bytes_written", "bytes_written", ".eng"},
        {"dsa.atc_misses", "atc_misses", ".eng"},
        {"dsa.qos_admitted", "admitted", ".qos"},
        {"dsa.qos_throttled", "throttled", ".qos"},
        {"dsa.qos_busy", "busy", ".qos"},
        {"dml.serving_retries", "retries", "serving"},
        {"dml.serving_fallbacks", "fallbacks", "serving"},
        {"dml.serving_sheds", "sheds", "serving"},
        {"dml.breaker_opens", "breaker_opens", "serving"},
    };
    for (const Item &it : items) {
        const std::uint64_t v = sumCounters(d, it.suffix, it.scope);
        r.exactU(it.metric, v);
        r.layer(it.metric, static_cast<double>(v));
    }
    const std::uint64_t hit = sumCounters(d, "llc.hit_bytes");
    const std::uint64_t miss = sumCounters(d, "llc.miss_bytes");
    const std::uint64_t upi = sumCounters(d, "bytes_pushed", "upi") +
                              sumCounters(d, "bytes_pulled", "upi");
    const std::uint64_t sub = sumCounters(d, "descriptors_submitted");
    const std::uint64_t ret = sumCounters(d, "descriptors_retried");
    const std::uint64_t atc = sumCounters(d, "atc_misses", ".eng");
    r.exactU("mem.upi_bytes", upi);
    r.layer("mem.upi_bytes", static_cast<double>(upi));
    r.layer("mem.llc_hit_ratio", ratio(hit, hit + miss));
    r.layer("dsa.retry_ratio", ratio(ret, sub + ret));
    r.layer("dsa.atc_miss_ratio", ratio(atc, atc_lookups));
    r.exactU("dsa.atc_lookups", atc_lookups);
}

void
reportLayerTimes(Result &res, const Tracer &tr, unsigned r,
                 std::uint64_t events)
{
    const Stage m = Stage::Measure;
    const double run_s = tr.total(r, m, Layer::Sim);
    res.layer("driver.platform_build_s",
              tr.total(r, Stage::Setup, Layer::Driver));
    res.layer("driver.teardown_s",
              tr.total(r, Stage::Teardown, Layer::Driver));
    res.layer("mem.space_setup_s",
              tr.total(r, Stage::Setup, Layer::Mem, "space_setup"));
    res.layer("mem.cpu_access_s",
              tr.total(r, Stage::Setup, Layer::Mem, "warmAll"));
    res.layer("cpu.kernel_s", tr.total(r, m, Layer::Cpu));
    res.layer("sim.run_s", run_s);
    res.layer("sim.self_s", tr.self(r, m, Layer::Sim));
    res.layer("sim.ns_per_event",
              events ? run_s * 1e9 / static_cast<double>(events) : 0.0);
    res.layer("dml.prepare_s", tr.total(r, m, Layer::Dml));
    res.layer("bench.verify_s", tr.total(r, Stage::Verify, Layer::Phase));
}

Result
runWorkload(Workload &w, const Options &o, Tracer &tr, HostProbe &probe)
{
    Result res;
    std::vector<double> setups;
    std::vector<std::uint64_t> prints;
    tr.setStage(0, Stage::Setup);
    const double speed0 = probe.speed();
    for (unsigned r = 0; r < o.setups; ++r) {
        if (r > 0) {
            tr.setStage(r - 1, Stage::Teardown);
            Tracer::Span sp(tr, Layer::Driver, "teardown");
            w.tearDown();
        }
        tr.setStage(r, Stage::Setup);
        const auto t0 = Clock::now();
        {
            Tracer::Span sp(tr, Layer::Phase, "setup");
            w.setUp();
        }
        setups.push_back(secondsSince(t0));
        prints.push_back(w.fingerprint());
    }
    const unsigned kept = o.setups - 1;

    tr.setStage(kept, Stage::Measure);
    w.beforeMeasure();
    Laps laps;
    laps.start();
    {
        Tracer::Span sp(tr, Layer::Phase, "measure");
        res.ops = w.measure(laps);
    }
    laps.mark(res.ops);
    res.opsPerS = laps.medianRate();
    // The measured phase enters total_s at its median lap rate.
    const double measured = res.opsPerS > 0
                                ? static_cast<double>(res.ops) / res.opsPerS
                                : laps.seconds();
    res.layer("host.wall_ops_per_s",
              static_cast<double>(res.ops) / laps.seconds());

    tr.setStage(kept, Stage::Verify);
    {
        Tracer::Span sp(tr, Layer::Phase, "verify");
        w.report(res);
    }
    res.check("setup_repeatable",
              std::all_of(prints.begin(), prints.end(),
                          [&](std::uint64_t p) { return p == prints[0]; }));

    tr.setStage(kept, Stage::Teardown);
    const auto t0 = Clock::now();
    {
        Tracer::Span sp(tr, Layer::Phase, "teardown");
        Tracer::Span sp2(tr, Layer::Driver, "teardown");
        w.tearDown();
    }
    const double teardown = secondsSince(t0);
    res.layer("host.speed", 0.5 * (speed0 + probe.speed()));

    res.setupS = median(setups);
    res.totalS = setups.back() + measured + teardown;
    reportLayerTimes(res, tr, kept, res.events);
    return res;
}

} // namespace perfbench
