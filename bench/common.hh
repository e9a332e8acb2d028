/**
 * @file
 * Shared benchmark harness.
 *
 * Mirrors the paper's methodology (§4.1): operations run for many
 * iterations; source/destination data and descriptors are flushed
 * from the cache hierarchy between iterations; asynchronous
 * experiments keep a queue depth of 32 unless stated otherwise;
 * descriptor allocation/preparation time is excluded.
 *
 * Output format: every bench prints one table per paper panel with
 * the same rows/series the figure reports, so EXPERIMENTS.md can
 * compare shapes directly.
 */

#ifndef DSASIM_BENCH_COMMON_HH
#define DSASIM_BENCH_COMMON_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dml/dml.hh"
#include "driver/platform.hh"
#include "driver/submitter.hh"
#include "sim/partition.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace dsasim::bench
{

/// @name Formatting helpers.
/// @{
inline std::string
fmtSize(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0)
        std::snprintf(buf, sizeof(buf), "%lluMB",
                      static_cast<unsigned long long>(bytes >> 20));
    else if (bytes >= 1024 && bytes % 1024 == 0)
        std::snprintf(buf, sizeof(buf), "%lluKB",
                      static_cast<unsigned long long>(bytes >> 10));
    else
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

/** Fixed-width table printer (plain text, machine-greppable). */
class Table
{
  public:
    Table(std::string title, std::vector<std::string> columns)
        : name(std::move(title)), cols(std::move(columns))
    {}

    void
    addRow(std::vector<std::string> cells)
    {
        rows.push_back(std::move(cells));
    }

    void
    print() const
    {
        // Any non-empty DSASIM_CSV value other than "0" switches to
        // machine-readable output for post-processing/plotting.
        if (const char *csv = std::getenv("DSASIM_CSV");
            csv && csv[0] != '\0' && std::string_view(csv) != "0") {
            printCsv();
            return;
        }
        std::printf("\n== %s ==\n", name.c_str());
        std::vector<std::size_t> width(cols.size());
        for (std::size_t c = 0; c < cols.size(); ++c)
            width[c] = cols[c].size();
        for (const auto &r : rows)
            for (std::size_t c = 0; c < r.size() && c < width.size();
                 ++c)
                width[c] = std::max(width[c], r[c].size());
        auto line = [&](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < cells.size(); ++c)
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            cells[c].c_str());
            std::printf("\n");
        };
        line(cols);
        for (const auto &r : rows)
            line(r);
    }

    void
    printCsv() const
    {
        auto cell = [](const std::string &c) {
            std::string out = c;
            for (auto &ch : out)
                if (ch == ',')
                    ch = ';';
            return out;
        };
        std::printf("\n# %s\n", name.c_str());
        for (std::size_t c = 0; c < cols.size(); ++c)
            std::printf("%s%s", cell(cols[c]).c_str(),
                        c + 1 < cols.size() ? "," : "\n");
        for (const auto &r : rows) {
            for (std::size_t c = 0; c < r.size(); ++c)
                std::printf("%s%s", cell(r[c]).c_str(),
                            c + 1 < r.size() ? "," : "\n");
        }
    }

  private:
    std::string name;
    std::vector<std::string> cols;
    std::vector<std::vector<std::string>> rows;
};

inline std::string
fmt(double v, int prec = 2)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}
/// @}

/// @name Self-benchmark plumbing: host timing and the JSON gate.
/// @{
using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Best-of-@p trials rate of @p fn, which does @p units of work per
 * call: one untimed warm-up call, then each trial calls @p fn until
 * @p min_secs have passed. Best-of damps scheduler noise on shared
 * hosts; peak sustained rate is the stable capability number.
 */
template <typename Fn>
double
bestRate(double units, Fn &&fn, double min_secs = 0.25, int trials = 3)
{
    fn();
    double best = 0;
    for (int trial = 0; trial < trials; ++trial) {
        std::uint64_t calls = 0;
        const auto t0 = Clock::now();
        double el = 0;
        do {
            fn();
            ++calls;
            el = secondsSince(t0);
        } while (el < min_secs);
        best = std::max(best, units * static_cast<double>(calls) / el);
    }
    return best;
}

/** A 64-bit stream hash as the 16-digit hex text the gates store. */
inline std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * The --json/--check gate shared by the self-benchmarks. A bench
 * declares each metric once — kind, key, value, print precision — in
 * the order it is written. The kinds:
 *
 *   Info   written, never checked (host rates, host facts, notes);
 *   Band   fails outside committed x (1 +- tol): simulated values
 *          given slack for compiler and libm differences;
 *   Exact  fails on any difference: counts, stream hashes and
 *          simulated times, compared as written.
 *
 * No kind compares a host rate: a wall-clock number committed on one
 * host neither holds on another nor catches a regression there. Host
 * speed is measured by perfbench, against a reference run on the same
 * host.
 *
 * require(label, ok) adds an invariant that reads no committed value;
 * require(label, ok, key) one that is checked only when the committed
 * file holds key, so an exact-only file skips a wall-clock invariant.
 *
 * finish() prints the metrics as one flat JSON object on stdout and
 * to --json=PATH. With --check=PATH it loads a committed object and
 * prints one verdict line per checked key the file holds — Band keys
 * committed as <= 0 are skipped too — then one per invariant. Exit
 * code: 0 all ok, 1 any failure, 2 a file that cannot be read or
 * written.
 */
class Gate
{
  public:
    enum Kind { Info, Band, Exact };

    struct Verdict
    {
        std::string key; ///< metric key, or invariant label
        bool ok;
        std::string word; ///< "ok" or the failing kind's word
    };

    /** @p tolerance is the Band half-width, relative. */
    explicit Gate(std::string benchmark, double tolerance = 0)
        : name("bench_" + benchmark), tol(tolerance)
    {
        add(Info, "benchmark", benchmark);
    }

    /** Take --json=PATH or --check=PATH; false for any other arg. */
    bool
    parseArg(std::string_view arg)
    {
        if (arg.rfind("--json=", 0) == 0)
            jsonPath = arg.substr(7);
        else if (arg.rfind("--check=", 0) == 0)
            checkPath = arg.substr(8);
        else
            return false;
        return true;
    }

    bool checking() const { return !checkPath.empty(); }

    /** A number written with @p prec decimals (0 for counts). */
    void
    add(Kind kind, std::string key, double v, int prec = 0)
    {
        metrics.push_back({kind, std::move(key), fmt(v, prec), v});
    }

    /** A string (a stream hash, a note), written quoted. */
    void
    add(Kind kind, std::string key, const std::string &text)
    {
        metrics.push_back({kind, std::move(key), quote(text), 0});
    }

    void
    require(std::string label, bool ok, std::string key = {})
    {
        invariants.push_back(
            {{std::move(label), ok, ok ? "ok" : "VIOLATED"},
             std::move(key)});
    }

    /** The metrics as a flat JSON object, in declaration order. */
    std::string
    json() const
    {
        std::string out = "{\n";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            out += "  " + quote(metrics[i].key) + ": " +
                   metrics[i].text +
                   (i + 1 < metrics.size() ? ",\n" : "\n");
        }
        return out + "}\n";
    }

    /** Write json() to @p path; false when it cannot be written. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << json();
        return static_cast<bool>(out.flush());
    }

    /**
     * Print and return the verdicts against the committed JSON text
     * @p committed: one per checked metric it holds, then one per
     * invariant.
     */
    std::vector<Verdict>
    check(const std::string &committed) const
    {
        std::vector<Verdict> out;
        for (const Metric &m : metrics) {
            std::string want;
            if (m.kind == Info || !lookup(committed, m.key, want))
                continue;
            const double w = std::strtod(want.c_str(), nullptr);
            bool ok;
            const char *word = "DIVERGED";
            if (m.kind == Band) {
                if (w <= 0)
                    continue;
                ok = m.value >= w * (1.0 - tol) &&
                     m.value <= w * (1.0 + tol);
                word = "OUT OF BAND";
            } else {
                // Exact: strings compare as text, numbers by value.
                ok = m.text.front() == '"' || want.front() == '"'
                         ? m.text == want
                         : std::strtod(m.text.c_str(), nullptr) == w;
            }
            out.push_back({m.key, ok, ok ? "ok" : word});
            std::printf("%-28s %16s  committed %16s  %s\n",
                        m.key.c_str(), bare(m.text).c_str(),
                        bare(want).c_str(), out.back().word.c_str());
        }
        for (const auto &[v, key] : invariants) {
            std::string want;
            if (!key.empty() && !lookup(committed, key, want))
                continue;
            out.push_back(v);
            std::printf("%-44s %s\n", v.key.c_str(), v.word.c_str());
        }
        return out;
    }

    /** Print, write --json, run --check; returns the exit code. */
    int
    finish() const
    {
        std::fputs(json().c_str(), stdout);
        if (!jsonPath.empty() && !write(jsonPath)) {
            std::fprintf(stderr, "%s: cannot write %s\n", name.c_str(),
                         jsonPath.c_str());
            return 2;
        }
        if (checkPath.empty())
            return 0;
        std::ifstream in(checkPath);
        std::stringstream text;
        if (!(in && text << in.rdbuf())) {
            std::fprintf(stderr, "%s: cannot read %s\n", name.c_str(),
                         checkPath.c_str());
            return 2;
        }
        const auto verdicts = check(text.str());
        return std::all_of(verdicts.begin(), verdicts.end(),
                           [](const Verdict &v) { return v.ok; })
                   ? 0
                   : 1;
    }

  private:
    struct Metric
    {
        Kind kind;
        std::string key;
        std::string text; ///< the JSON value as written
        double value;     ///< what band compares
    };

    static std::string
    quote(const std::string &s)
    {
        return '"' + s + '"';
    }

    /** @p text without the quotes of a JSON string. */
    static std::string
    bare(const std::string &text)
    {
        return text.size() >= 2 && text.front() == '"'
                   ? text.substr(1, text.size() - 2)
                   : text;
    }

    /**
     * The value of `"key": <value>` in a flat JSON object, as written
     * (a string keeps its quotes); false when the key is absent or
     * has no value.
     */
    static bool
    lookup(const std::string &text, const std::string &key,
           std::string &out)
    {
        auto at = text.find(quote(key));
        if (at != std::string::npos)
            at = text.find_first_not_of(" \t\r\n:",
                                        at + key.size() + 2);
        if (at == std::string::npos)
            return false;
        auto end = text.find_first_of(",} \t\r\n", at);
        if (text[at] == '"') {
            end = text.find('"', at + 1);
            if (end == std::string::npos)
                return false;
            ++end;
        }
        out = text.substr(at, end - at); // npos - at: to the end
        return !out.empty();
    }

    std::string name;
    double tol;
    std::string jsonPath, checkPath;
    std::vector<Metric> metrics;
    /// Each invariant's verdict and the committed key it needs, if any.
    std::vector<std::pair<Verdict, std::string>> invariants;
};
/// @}

/**
 * Worker count for parallel benchmark sweeps. Each sweep point may
 * itself run its cluster on DSASIM_PARTITIONS worker threads
 * (sim/partition.hh), so the two knobs multiply: total host-thread
 * demand is jobs x partitions. Precedence (EXPERIMENTS.md):
 *
 *   - DSASIM_JOBS set to a positive integer: honored, except that
 *     with DSASIM_PARTITIONS > 1 it is clamped so jobs x partitions
 *     never exceeds the hardware concurrency — oversubscribing both
 *     knobs at once only adds scheduler noise to the wall-clock
 *     numbers the parallel benches report.
 *   - DSASIM_JOBS unset: hardware concurrency / partitions (min 1),
 *     i.e. the partition workers come out of the sweep budget.
 */
inline unsigned
sweepJobs()
{
    const unsigned parts = std::max(1u, partitionThreads());
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    if (const char *env = std::getenv("DSASIM_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1) {
            unsigned jobs = static_cast<unsigned>(v);
            if (parts > 1)
                jobs = std::max(1u, std::min(jobs, hw / parts));
            return jobs;
        }
    }
    return std::max(1u, hw / parts);
}

/**
 * Runs independent sweep points concurrently on a small thread pool.
 *
 * Each point must be self-contained — build its own Rig (Platform +
 * Simulation), measure, and return a result. Nothing in the simulator
 * is shared between Rigs, so points are safe to run on separate
 * threads. Results come back indexed by point, so tables print in the
 * same deterministic order regardless of the worker count or
 * scheduling; with jobs=1 the output is identical to a serial loop.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(unsigned jobs = sweepJobs())
        : jobCount(jobs ? jobs : 1)
    {}

    unsigned jobs() const { return jobCount; }

    /**
     * Evaluate @p fn(i) for i in [0, n) and return the results in
     * index order. @p fn must not touch shared mutable state.
     */
    template <typename Fn>
    auto
    run(std::size_t n, Fn &&fn)
        -> std::vector<decltype(fn(std::size_t{}))>
    {
        using R = decltype(fn(std::size_t{}));
        std::vector<R> results(n);
        if (n == 0)
            return results;
        const unsigned workers =
            static_cast<unsigned>(std::min<std::size_t>(jobCount, n));
        if (workers <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                results[i] = fn(i);
            return results;
        }
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                results[i] = fn(i);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers - 1);
        for (unsigned w = 1; w < workers; ++w)
            pool.emplace_back(worker);
        worker();
        for (auto &t : pool)
            t.join();
        return results;
    }

  private:
    unsigned jobCount;
};

/**
 * A measurement rig: a platform with one or more DSA devices in a
 * chosen topology, plus an executor and an address space.
 */
class Rig
{
  public:
    struct Options
    {
        unsigned devices = 1;
        unsigned engines = 1;
        unsigned wqSize = 32;
        WorkQueue::Mode wqMode = WorkQueue::Mode::Dedicated;
    };

    explicit Rig(const Options &o)
        : plat(sim, PlatformConfig::spr()), as(&plat.mem().createSpace())
    {
        std::vector<DsaDevice *> devs;
        for (unsigned i = 0; i < o.devices; ++i) {
            DsaTopology::basic(o.wqSize, o.engines, o.wqMode)
                .apply(plat.dsa(i));
            devs.push_back(&plat.dsa(i));
        }
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(), devs, ec);
    }

    Simulation sim;
    Platform plat;
    AddressSpace *as;
    std::unique_ptr<dml::Executor> exec;
};

/** Scale iteration counts down as transfer sizes grow. */
inline int
itersFor(std::uint64_t size, int base = 120)
{
    std::uint64_t budget = 24ull << 20; // total bytes per measurement
    std::uint64_t by_bytes = budget / std::max<std::uint64_t>(size, 1);
    return static_cast<int>(std::max<std::uint64_t>(
        8, std::min<std::uint64_t>(static_cast<std::uint64_t>(base),
                                   by_bytes)));
}

/** Result of a latency/throughput measurement. */
struct Measure
{
    double meanNs = 0;
    double gbps = 0;
    std::uint64_t iterations = 0;
};

namespace detail
{

inline SimTask
syncHwLoop(Rig &rig, WorkDescriptor d, int iters, bool flush,
           Measure &out)
{
    Core &core = rig.plat.core(0);
    Histogram lat;
    for (int i = 0; i < iters; ++i) {
        if (flush)
            rig.plat.mem().cache().invalidateAll();
        dml::OpResult r;
        co_await rig.exec->executeHardware(core, d, r);
        lat.add(toNs(r.latency));
    }
    out.meanNs = lat.mean();
    out.gbps = static_cast<double>(d.size) / out.meanNs;
    out.iterations = lat.count();
}

inline SimTask
syncSwLoop(Rig &rig, WorkDescriptor d, int iters, bool flush,
           Measure &out)
{
    Core &core = rig.plat.core(1 % rig.plat.coreCount());
    Histogram lat;
    for (int i = 0; i < iters; ++i) {
        if (flush)
            rig.plat.mem().cache().invalidateAll();
        dml::OpResult r;
        co_await rig.exec->executeSoftware(core, d, r);
        lat.add(toNs(r.latency));
    }
    out.meanNs = lat.mean();
    out.gbps = static_cast<double>(d.size) / out.meanNs;
    out.iterations = lat.count();
}

inline SimTask
asyncHwLoop(Rig &rig, std::vector<WorkDescriptor> ring, int total,
            int depth, Measure &out)
{
    Core &core = rig.plat.core(0);
    Semaphore window(rig.sim, static_cast<std::uint64_t>(depth));
    Latch all(rig.sim, static_cast<std::uint64_t>(total));
    std::uint64_t bytes = 0;
    Tick t0 = rig.sim.now();

    struct Waiter
    {
        static SimTask
        drain(std::unique_ptr<dml::Job> job, Semaphore &win,
              Latch &done)
        {
            if (!job->cr.isDone())
                co_await job->cr.done.wait();
            win.release();
            done.arrive();
        }
    };

    for (int i = 0; i < total; ++i) {
        const WorkDescriptor &d =
            ring[static_cast<std::size_t>(i) % ring.size()];
        // Refresh coldness once per pass over the ring, mirroring
        // the paper's per-iteration flushes.
        if (i > 0 && static_cast<std::size_t>(i) % ring.size() == 0)
            rig.plat.mem().cache().invalidateAll();
        co_await window.acquire();
        auto job = rig.exec->prepare(d);
        bytes += d.size;
        co_await rig.exec->submit(core, *job);
        Waiter::drain(std::move(job), window, all);
    }
    co_await all.wait();
    Tick elapsed = rig.sim.now() - t0;
    out.meanNs = toNs(elapsed) / total;
    out.gbps = achievedGBps(bytes, elapsed);
    out.iterations = static_cast<std::uint64_t>(total);
}

} // namespace detail

/** Mean sync-offload latency/throughput of @p d over iterations. */
inline Measure
syncHw(Rig &rig, const WorkDescriptor &d, int iters = 0,
       bool flush = true)
{
    Measure out;
    if (iters == 0)
        iters = itersFor(d.size);
    detail::syncHwLoop(rig, d, iters, flush, out);
    rig.sim.run();
    return out;
}

/** Mean software (CPU core) latency/throughput of @p d. */
inline Measure
syncSw(Rig &rig, const WorkDescriptor &d, int iters = 0,
       bool flush = true)
{
    Measure out;
    if (iters == 0)
        iters = itersFor(d.size);
    detail::syncSwLoop(rig, d, iters, flush, out);
    rig.sim.run();
    return out;
}

/**
 * Async throughput at @p depth outstanding descriptors, cycling over
 * @p ring distinct descriptors. The cache is flushed once per pass so
 * data stays cold.
 */
inline Measure
asyncHw(Rig &rig, std::vector<WorkDescriptor> ring, int total = 0,
        int depth = 32)
{
    Measure out;
    if (total == 0 && !ring.empty())
        total = itersFor(ring.front().size, 320);
    detail::asyncHwLoop(rig, std::move(ring), total, depth, out);
    rig.sim.run();
    return out;
}

/**
 * Build a ring of @p count memMove descriptors striding through two
 * freshly allocated regions.
 */
inline std::vector<WorkDescriptor>
memMoveRing(Rig &rig, std::uint64_t size, int count = 16,
            MemKind src_kind = MemKind::DramLocal,
            MemKind dst_kind = MemKind::DramLocal)
{
    Addr src = rig.as->alloc(size * static_cast<std::uint64_t>(count),
                             src_kind);
    Addr dst = rig.as->alloc(size * static_cast<std::uint64_t>(count),
                             dst_kind);
    std::vector<WorkDescriptor> ring;
    for (int i = 0; i < count; ++i) {
        ring.push_back(dml::Executor::memMove(
            *rig.as, dst + static_cast<Addr>(i) * size,
            src + static_cast<Addr>(i) * size, size));
    }
    return ring;
}

} // namespace dsasim::bench

#endif // DSASIM_BENCH_COMMON_HH
