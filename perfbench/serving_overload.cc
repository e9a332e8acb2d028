/**
 * @file
 * serving-overload: the bench_serving qos arm as an open loop in
 * simulated time. 1024 PASID-isolated tenants on a two-socket
 * cluster submit through SWQ ENQCMD, WqAdmission and the
 * dml::ServingNode degradation ladder: Poisson 2 KiB victims keep
 * the high-priority portal, bursty 32 KiB aggressors go through the
 * admitted low-priority portal, and a cross-socket UPI digest stream
 * runs alongside. The aggressors' mean rate sits above their token
 * bucket, so throttling, retries, breaker sheds and CPU fallbacks
 * recur for the whole window instead of only in the first burst.
 * One op is one request that reaches a terminal state.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "dml/serving.hh"
#include "driver/cluster.hh"
#include "dsa/qos.hh"
#include "sim/traffic.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using namespace dsasim;

constexpr unsigned tenantCount = 1024;
constexpr const char *arrivalMix =
    "poisson:rate=1200,weight=14,bytes=2048;"
    "bursty:rate=2400,factor=3,period=32,duty=0.25,weight=2,"
    "bytes=32768";
/** Simulated warm-up before the measured window. */
const Tick warmupWindow = fromUs(5000);
/** Measured simulated microseconds per requested host second
 *  (sized on a 4-vCPU Xeon virtual machine). */
constexpr double simUsPerSecond = 90000.0;
/** UPI digest cadence and block size. */
const Tick digestPeriod = fromUs(10);
constexpr std::uint64_t digestBytes = 16 << 10;
constexpr unsigned quarters = 4;
/** Sample-hook firings per measured window (quarter attribution). */
constexpr unsigned samplesPerWindow = 64;

ClusterConfig
clusterConfig()
{
    // bench_serving's cluster: two sockets, one DSA each, two shared
    // WQs in one group (WQ0 high priority for victims, WQ1 the
    // low-priority bulk portal with a reduced ENQCMD threshold).
    ClusterConfig cc;
    cc.sockets = 2;
    cc.socket = PlatformConfig::spr();
    cc.socket.numCores = 4;
    cc.socket.numDsaDevices = 1;
    DsaTopology topo;
    topo.groups = {{}};
    topo.wqs = {{0, WorkQueue::Mode::Shared, 32, 8, 0},
                {0, WorkQueue::Mode::Shared, 32, 1, 24}};
    topo.engines = {0, 0};
    cc.socket.dsaTopology = topo;
    for (auto &node : cc.socket.mem.nodes)
        node.capacityBytes = 1ull << 30;
    cc.lookaheadBytes = 16 << 10;
    return cc;
}

dml::ServingConfig
servingConfig(std::uint64_t seed)
{
    dml::ServingConfig sc;
    sc.maxRetries = 3;
    sc.backoffBase = fromNs(200);
    sc.backoffCap = fromUs(2);
    sc.backoffJitter = 0.5;
    // Never reached: every arrival enters the ladder, so none is
    // dropped at the door.
    sc.outstandingCap = 1 << 20;
    sc.cpuFallback = true;
    sc.breaker.window = 16;
    sc.breaker.openThreshold = 0.5;
    sc.breaker.cooldown = fromUs(150);
    sc.breaker.probes = 4;
    sc.seed = seed;
    return sc;
}

/** Ladder counters one socket accumulates (cumulative). */
struct Ladder
{
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t rejections = 0; ///< admission throttle + busy
};

struct SocketRig
{
    std::unique_ptr<dml::Executor> exec;
    std::unique_ptr<dml::ServingNode> node;
    std::unique_ptr<WqAdmission> admission;

    Ladder
    ladder() const
    {
        Ladder l;
        for (const auto &s : node->sessions()) {
            l.retries += s->stats.retries;
            l.fallbacks += s->stats.fallbacks;
        }
        l.rejections =
            admission->totalThrottled + admission->totalBusy;
        return l;
    }
};

struct Tenant
{
    unsigned socket = 0;
    bool aggressor = false;
    AddressSpace *as = nullptr;
    Addr src = 0, dst = 0, pat = 0;
    std::uint64_t bytes = 0;
    std::uint64_t pattern = 0;
    dml::TenantSession *sess = nullptr;
    std::uint64_t next = 0; ///< arrival index
    std::uint64_t moves = 0;
    std::uint64_t done = 0; ///< requests that reached a terminal state
    /// @name moves, done and goodput bytes before the measured phase.
    /// @{
    std::uint64_t moves0 = 0, done0 = 0, good0 = 0;
    /// @}
};

/** Destination bytes before the measured phase writes them. */
constexpr std::uint8_t poisonByte = 0xa5;

/** One open-loop phase's tallies. */
struct Phase
{
    Tick end = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t terminal = 0;
    std::uint64_t crcBytes = 0;
    std::uint64_t factoryCalls = 0;
    bool record = false; ///< keep per-request latencies
    Histogram victimUs, allUs;
};

struct Rig
{
    std::unique_ptr<SocketCluster> cl;
    std::vector<SocketRig> sockets;
    std::vector<Tenant> tenants;
    std::vector<ArrivalStream> streams;
    Phase *phase = nullptr; ///< the phase factories tally into
};

SimTask
serveOne(Rig &rig, Tenant &t, std::uint64_t k, Phase &ph)
{
    Simulation &sim = rig.cl->domainSim(t.socket);
    const Tick t0 = sim.now();
    ++t.sess->outstanding;
    co_await rig.sockets[t.socket].node->serve(*t.sess, k);
    --t.sess->outstanding;
    ++t.done;
    ++ph.terminal;
    if (ph.record) {
        const double us = toUs(sim.now() - t0);
        ph.allUs.add(us);
        if (!t.aggressor)
            ph.victimUs.add(us);
    }
}

SimTask
tenantLoop(Rig &rig, std::size_t i, Phase &ph)
{
    Tenant &t = rig.tenants[i];
    Simulation &sim = rig.cl->domainSim(t.socket);
    Tick at = sim.now();
    for (;;) {
        at += rig.streams[i].interarrival(t.next);
        if (at >= ph.end)
            co_return;
        co_await sim.delayUntil(at);
        ++ph.arrivals;
        serveOne(rig, t, t.next++, ph);
    }
}

SimTask
digestLoop(Simulation &sim, RemotePort &port, Tick end)
{
    while (sim.now() + digestPeriod < end) {
        co_await sim.delay(digestPeriod);
        co_await port.push(digestBytes);
    }
}

/** Open the arrival loops for [now, now + len) and run to drain. */
void
runPhase(Rig &rig, Tracer &tr, Phase &ph, Tick len, const char *what)
{
    SocketCluster &cl = *rig.cl;
    ph.end = cl.endTick() + len;
    rig.phase = &ph;
    for (std::size_t i = 0; i < rig.tenants.size(); ++i)
        tenantLoop(rig, i, ph);
    for (unsigned s = 0; s < cl.socketCount(); ++s)
        digestLoop(cl.domainSim(s),
                   cl.port(s, (s + 1) % cl.socketCount()), ph.end);
    Tracer::Span sp(tr, Layer::Sim, what);
    cl.run(1);
}

/** Per-quarter ladder activity, attributed by sample hooks. */
struct QuarterWatch
{
    Tick start = 0, len = 0;
    /** [socket][quarter]: last cumulative reading in that quarter. */
    std::vector<std::array<Ladder, quarters>> last;
    std::vector<std::array<bool, quarters>> seen;
    std::vector<Ladder> atStart;
    /** Marked from socket 0's hook with the terminal count. */
    Laps *laps = nullptr;
    const std::uint64_t *terminal = nullptr;

    void
    install(Rig &rig, Tick window_start, Tick window_len, Laps &l,
            const std::uint64_t &done)
    {
        laps = &l;
        terminal = &done;
        start = window_start;
        len = window_len;
        const unsigned n = rig.cl->socketCount();
        last.assign(n, {});
        seen.assign(n, {});
        atStart.clear();
        for (unsigned s = 0; s < n; ++s) {
            atStart.push_back(rig.sockets[s].ladder());
            Simulation &sim = rig.cl->domainSim(s);
            const SocketRig *sr = &rig.sockets[s];
            // A pure observer: the hook reads counters and consumes
            // no events or sequence numbers.
            sim.setSampleHook(
                std::max<Tick>(1, len / samplesPerWindow),
                [this, &sim, sr, s] {
                    const Tick now = sim.now();
                    if (now < start || now >= start + len)
                        return;
                    const auto q = static_cast<std::size_t>(
                        (now - start) * quarters / len);
                    last[s][q] = sr->ladder();
                    seen[s][q] = true;
                    if (s == 0)
                        laps->mark(*terminal);
                });
        }
    }

    void
    remove(Rig &rig)
    {
        for (unsigned s = 0; s < rig.cl->socketCount(); ++s)
            rig.cl->domainSim(s).clearSampleHook();
    }

    /** Every quarter saw retries, fallbacks and rejections. */
    bool
    overloadedThroughout() const
    {
        for (unsigned q = 0; q < quarters; ++q) {
            Ladder d;
            for (std::size_t s = 0; s < last.size(); ++s) {
                if (!seen[s][q])
                    return false;
                const Ladder &prev = q ? last[s][q - 1] : atStart[s];
                if (q && !seen[s][q - 1])
                    return false;
                d.retries += last[s][q].retries - prev.retries;
                d.fallbacks += last[s][q].fallbacks - prev.fallbacks;
                d.rejections +=
                    last[s][q].rejections - prev.rejections;
            }
            if (!d.retries || !d.fallbacks || !d.rejections)
                return false;
        }
        return true;
    }
};

/**
 * Tenants whose destination is wrong after the measured phase: it
 * must equal the source if the tenant copied in that phase, and still
 * hold the poison written at the end of set-up if it did not.
 */
std::uint64_t
verifyCopies(Rig &rig, Tracer &tr, RefCrc &crc)
{
    std::uint64_t bad = 0;
    std::vector<std::uint8_t> src, dst;
    for (const Tenant &t : rig.tenants) {
        src.resize(t.bytes);
        dst.resize(t.bytes);
        t.as->read(t.dst, dst.data(), t.bytes);
        if (t.moves == t.moves0) {
            bad += std::any_of(dst.begin(), dst.end(), [](std::uint8_t b) {
                return b != poisonByte;
            });
            continue;
        }
        t.as->read(t.src, src.data(), t.bytes);
        if (src != dst || crc(src, tr) != crc(dst, tr))
            ++bad;
    }
    return bad;
}

/**
 * Measured-phase requests that reached a terminal state without
 * success (an errored CPU fallback, or no fallback at all): the
 * ladder adds a request's bytes to its tenant's goodput only when the
 * hardware or the CPU path returned ok.
 */
std::uint64_t
notOkRequests(const Rig &rig)
{
    std::uint64_t bad = 0;
    for (const Tenant &t : rig.tenants) {
        const std::uint64_t reqs = t.done - t.done0;
        const std::uint64_t good = t.sess->stats.goodputBytes - t.good0;
        const std::uint64_t ok = good / t.bytes;
        if (good % t.bytes || ok > reqs)
            bad += std::max<std::uint64_t>(1, reqs);
        else
            bad += reqs - ok;
    }
    return bad;
}

dml::TenantStats
aggregate(const Rig &rig)
{
    dml::TenantStats total;
    for (const SocketRig &sr : rig.sockets)
        for (const auto &s : sr.node->sessions()) {
            total.hwOk += s->stats.hwOk;
            total.hwErrors += s->stats.hwErrors;
            total.dropped += s->stats.dropped;
        }
    return total;
}

class ServingOverload : public Workload
{
  public:
    ServingOverload(const Options &o, Tracer &t)
        : opt(o), tr(t),
          window(fromUs(
              std::max(5.0, std::round(o.seconds * simUsPerSecond))))
    {}

    void
    setUp() override
    {
        rig = std::make_unique<Rig>();
        const dml::ServingConfig sc = servingConfig(opt.seed);
        {
            Tracer::Span sp(tr, Layer::Driver, "build");
            rig->cl = std::make_unique<SocketCluster>(clusterConfig());
            rig->cl->enableStreamHash(true);
            SocketCluster &cl = *rig->cl;
            rig->sockets.resize(cl.socketCount());
            for (unsigned s = 0; s < cl.socketCount(); ++s) {
                Platform &plat = cl.plat(s);
                SocketRig &sr = rig->sockets[s];
                dml::ExecutorConfig ec;
                ec.path = dml::Path::Hardware;
                sr.exec = std::make_unique<dml::Executor>(
                    cl.domainSim(s), plat.mem(), plat.kernels(),
                    std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
                sr.node = std::make_unique<dml::ServingNode>(
                    cl.domainSim(s), *sr.exec, sc);
                // Admission on the bulk portal only: aggressors run
                // Opportunistic under a token bucket below their rate.
                WqAdmission::Config ac;
                ac.bucket = {1500, 6};
                ac.defaultClass = QosClass::Opportunistic;
                ac.opportunisticFraction = 0.5;
                sr.admission = std::make_unique<WqAdmission>(ac);
                plat.dsa(0).installAdmission(1, sr.admission.get());
            }
        }
        const ArrivalMix mix = ArrivalMix::parse(arrivalMix);
        {
            Tracer::Span sp(tr, Layer::Mem, "space_setup");
            SocketCluster &cl = *rig->cl;
            rig->tenants.resize(tenantCount);
            for (unsigned i = 0; i < tenantCount; ++i) {
                Tenant &t = rig->tenants[i];
                const ArrivalClass &cls = mix.classFor(i);
                t.socket = i % cl.socketCount();
                t.aggressor = cls.pattern == ArrivalPattern::Bursty;
                t.bytes = cls.payloadBytes;
                t.as = &cl.plat(t.socket).mem().createSpace();
                t.src = t.as->alloc(t.bytes);
                t.dst = t.as->alloc(t.bytes);
                t.pat = t.as->alloc(t.bytes);
                seedBytes(*t.as, t.src, t.bytes, opt.seed * tenantCount + i);
                // The pattern-scan buffer holds its own repeating 8-byte
                // value, so every scan is a match.
                t.pattern = mix64(opt.seed ^ (0x70617474ULL + i)) |
                            0x0101010101010101ULL;
                const std::uint64_t pv = t.pattern;
                t.as->forEachSpan(t.pat, t.bytes, "seed",
                                  [pv](AddressSpace::Span s) {
                                      for (std::uint64_t b = 0; b < s.len;
                                           b += 8)
                                          std::memcpy(s.ptr + b, &pv, 8);
                                  });
                rig->streams.emplace_back(opt.seed, i, cls);
                // A seeded starting point in the burst cycle, so the
                // aggressors' on-phases do not line up at time zero.
                t.next = mix64(opt.seed * tenantCount + i) % cls.burstPeriod;
            }
        }
        {
            SocketCluster &cl = *rig->cl;
            Rig *rp = rig.get();
            Tracer *tp = &tr;
            for (unsigned i = 0; i < tenantCount; ++i) {
                Tenant &t = rig->tenants[i];
                Platform &plat = cl.plat(t.socket);
                Tenant *tt = &t;
                // Tenant workload, cycling by request index: KV value
                // copy, integrity CRC, columnar pattern scan.
                auto make = [rp, tp, tt](std::uint64_t k) {
                    Tracer::Span sp(*tp, Layer::Dml, "factory");
                    ++rp->phase->factoryCalls;
                    switch (k % 3) {
                      case 0:
                        ++tt->moves;
                        return dml::Executor::memMove(*tt->as, tt->dst,
                                                      tt->src, tt->bytes);
                      case 1:
                        rp->phase->crcBytes += tt->bytes;
                        return dml::Executor::crc32(*tt->as, tt->src,
                                                    tt->bytes);
                      default:
                        return dml::Executor::comparePattern(
                            *tt->as, tt->pat, tt->pattern, tt->bytes);
                    }
                };
                WorkQueue &wq = plat.dsa(0).wq(t.aggressor ? 1 : 0);
                t.sess = &rig->sockets[t.socket].node->addTenant(
                    t.as->pasid(), plat.core(i / cl.socketCount() % 4),
                    plat.dsa(0), wq, make);
            }
        }
        Phase warm;
        runPhase(*rig, tr, warm, warmupWindow, "warmup");
        rig->phase = nullptr;
        // Poison every destination, so the final check sees only
        // what the measured phase wrote.
        Tracer::Span sp(tr, Layer::Mem, "poison");
        for (const Tenant &t : rig->tenants)
            t.as->fill(t.dst, poisonByte, t.bytes);
    }

    std::uint64_t
    fingerprint() override
    {
        return rig->cl->streamHash() ^ rig->cl->eventsExecuted();
    }

    void
    beforeMeasure() override
    {
        SocketCluster &cl = *rig->cl;
        before = counters(cl.foldedStats());
        agg0 = aggregate(*rig);
        events0 = cl.eventsExecuted();
        atc0 = atcLookups();
        for (Tenant &t : rig->tenants) {
            t.moves0 = t.moves;
            t.done0 = t.done;
            t.good0 = t.sess->stats.goodputBytes;
        }
    }

    std::uint64_t
    measure(Laps &laps) override
    {
        ph = Phase();
        ph.record = true;
        watch.install(*rig, rig->cl->endTick(), window, laps, ph.terminal);
        runPhase(*rig, tr, ph, window, "run");
        watch.remove(*rig);
        rig->phase = nullptr;
        return ph.terminal;
    }

    void
    report(Result &res) override
    {
        SocketCluster &cl = *rig->cl;
        res.events = cl.eventsExecuted() - events0;
        res.registryDelta = delta(before, counters(cl.foldedStats()));
        const dml::TenantStats agg1 = aggregate(*rig);
        const std::uint64_t hwOk = agg1.hwOk - agg0.hwOk;
        const std::uint64_t hwErrors = agg1.hwErrors - agg0.hwErrors;
        const std::uint64_t dropped = agg1.dropped - agg0.dropped;
        const std::uint64_t notOk = notOkRequests(*rig);
        RefCrc crc;
        const std::uint64_t badTenants = verifyCopies(*rig, tr, crc);

        res.check("every_request_terminal",
                  ph.terminal == ph.arrivals && cl.partitions().idle());
        res.check("overloaded_every_quarter",
                  watch.overloadedThroughout());

        res.attempted = ph.arrivals;
        res.failed = (ph.arrivals - ph.terminal) + hwErrors + notOk +
                     dropped + badTenants;
        const double p50 = ph.allUs.percentile(50);
        const double p99 = ph.allUs.percentile(99);
        const double vp99 = ph.victimUs.percentile(99);
        res.exactU("ops", ph.terminal);
        res.exactU("arrivals", ph.arrivals);
        res.exactU("sim.events", res.events);
        res.exactU("model.stream_hash", cl.streamHash());
        res.exactU("model.end_tick", cl.endTick());
        res.exactU("dml.prepare_calls", ph.factoryCalls);
        res.exactU("dml.hw_ok", hwOk);
        res.exactU("ops.crc_bytes", ph.crcBytes);
        res.exactF("model.p50_us", p50);
        res.exactF("model.p99_us", p99);
        res.exactF("model.victim_p99_us", vp99);
        reportRegistryCounts(res, res.registryDelta,
                             atcLookups() - atc0);
        res.layer("dml.prepare_calls",
                  static_cast<double>(ph.factoryCalls));
        res.layer("dml.hw_ok_ratio",
                  ph.terminal ? static_cast<double>(hwOk) /
                                    static_cast<double>(ph.terminal)
                              : 0.0);
        res.layer("ops.crc_bytes", static_cast<double>(ph.crcBytes));
        res.layer("sim.events", static_cast<double>(res.events));
        res.layer("model.end_us", toUs(cl.endTick()));
        res.layer("model.p50_us", p50);
        res.layer("model.p99_us", p99);
        res.layer("model.victim_p99_us", vp99);
        res.layer("ops.crc32c_gbps", crc.gbps());
    }

    void tearDown() override { rig.reset(); }

  private:
    std::uint64_t
    atcLookups()
    {
        std::uint64_t n = 0;
        for (unsigned s = 0; s < rig->cl->socketCount(); ++s) {
            TranslationCache &atc = rig->cl->plat(s).dsa(0).atc();
            n += atc.hits() + atc.misses();
        }
        return n;
    }

    const Options &opt;
    Tracer &tr;
    const Tick window;
    std::unique_ptr<Rig> rig;
    Phase ph;
    QuarterWatch watch;
    CounterMap before;
    dml::TenantStats agg0;
    std::uint64_t events0 = 0;
    std::uint64_t atc0 = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServingOverload(const Options &o, Tracer &tr)
{
    return std::make_unique<ServingOverload>(o, tr);
}

} // namespace perfbench
