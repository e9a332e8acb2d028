/**
 * @file
 * Shared pieces of the host-speed benchmark: run options, the span
 * tracer, registry counter deltas, seeded input bytes, process
 * metrics and the per-run result every workload fills in.
 *
 * The tracer is a pure observer of the host: it reads the host clock
 * around calls the benchmark makes into a simulator layer and never
 * touches simulated state, so a traced run simulates exactly what an
 * untraced run does.
 */

#ifndef DSASIM_PERFBENCH_HARNESS_HH
#define DSASIM_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mem/address_space.hh"
#include "sim/stats.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Target length of the measured phase, in host seconds. */
    double seconds = 10.0;
    /** Set-up repetitions; setup_s is their median. */
    static constexpr unsigned setups = 5;
    bool trace = false;
    /** Chrome trace-event JSON destination (traced runs only). */
    std::string traceOut;
};

/** The simulator layers the benchmark calls into, plus its phases. */
enum class Layer : std::uint8_t
{
    Phase,  ///< set-up / measure / teardown / verify roots
    Driver, ///< Platform and SocketCluster build and teardown
    Mem,    ///< address spaces, translate + cpuAccess
    Cpu,    ///< SwKernels calls
    Sim,    ///< Simulation::run* and SocketCluster::run slices
    Dml,    ///< descriptor factories and Executor::prepare
    Ops,    ///< ops reference kernels used while verifying
};

const char *layerName(Layer l);

/** The part of a run a span belongs to. */
enum class Stage : std::uint8_t
{
    Setup,
    Measure,
    Teardown,
    Verify,
};

const char *stageName(Stage s);

/**
 * Span recorder. Spans nest on one host thread; each records its
 * name, layer, start, end, parent, the set-up repetition ("run")
 * it belongs to and the stage of that run. Self time (a span's
 * duration minus the part its children cover) is folded into
 * per-(run, stage, layer, name) totals as spans close, so totals
 * stay exact however many spans a run opens. The trace export keeps
 * the first keepPerName spans of each such total: every root span
 * and a prefix of each frequent one.
 */
class Tracer
{
  public:
    static constexpr std::uint64_t keepPerName = 2000;

    explicit Tracer(bool on) : enabled(on) {}

    /** Run id and stage for spans opened from now on. */
    void
    setStage(unsigned r, Stage s)
    {
        run = r;
        stage = s;
    }

    /** RAII span; a no-op when tracing is off. */
    class Span
    {
      public:
        Span(Tracer &t, Layer l, const char *name)
            : tr(t.enabled ? &t : nullptr)
        {
            if (tr)
                tr->open(l, name);
        }
        ~Span()
        {
            if (tr)
                tr->close();
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tr;
    };

    struct Total
    {
        unsigned run = 0;
        Stage stage = Stage::Setup;
        Layer layer = Layer::Phase;
        const char *name = "";
        std::uint64_t calls = 0;
        double totalS = 0;
        double selfS = 0;
    };

    const std::vector<Total> &totals() const { return sums; }

    /** Sum of totalS over spans of @p l (and @p name, if given). */
    double total(unsigned r, Stage s, Layer l,
                 const char *name = nullptr) const;
    /** Sum of selfS over spans of @p l. */
    double self(unsigned r, Stage s, Layer l) const;

    std::size_t spansSeen() const { return seen; }

    /** Write the kept spans as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path,
                     const std::string &label) const;

  private:
    struct Open
    {
        Clock::time_point t0;
        double childS = 0;
        std::uint32_t id = 0;
        std::uint32_t sum = 0;
    };

    struct Record
    {
        const char *name;
        Layer layer;
        Stage stage;
        unsigned run;
        std::uint32_t id, parent;
        double t0, t1; ///< seconds since the tracer started
    };

    void open(Layer l, const char *name);
    void close();
    std::uint32_t sumIndex(Layer l, const char *name);

    bool enabled;
    unsigned run = 0;
    Stage stage = Stage::Setup;
    Clock::time_point origin = Clock::now();
    std::vector<Open> stack;
    std::vector<Record> records;
    std::vector<Total> sums;
    std::uint32_t lastSum = 0;
    std::size_t seen = 0;
};

/** Counter name -> value (registry counters only). */
using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap counters(const dsasim::stats::Registry &reg);

/** b - a per name, dropping names that did not change. */
CounterMap delta(const CounterMap &a, const CounterMap &b);

/**
 * Sum of counters whose name is @p suffix or ends in "." + suffix,
 * restricted to names containing @p scope when it is non-empty.
 */
std::uint64_t sumCounters(const CounterMap &m, std::string_view suffix,
                          std::string_view scope = {});

/** Deterministic 64-bit mixer (SplitMix64 finalizer). */
std::uint64_t mix64(std::uint64_t x);

/**
 * Fill [va, va+len) with bytes drawn from @p seed; every byte is
 * non-zero, so copies and CRCs run the real data path rather than
 * the never-written (reads-as-zero) shortcut.
 */
void seedBytes(dsasim::AddressSpace &as, dsasim::Addr va,
               std::uint64_t len, std::uint64_t seed);

/**
 * Peak resident set of this process, in MiB (VmHWM), less the
 * HostProbe table, which is resident for the whole process.
 */
double peakRssMb();
/** User + system CPU seconds of this process. */
double processCpuSeconds();

double median(std::vector<double> v);

/**
 * The host's memory speed, as a diagnostic beside the host-time
 * metrics (which it never scales): random 8-byte reads over a 64 MiB
 * table. A probe first reads the whole table once, untimed, so its
 * timed bursts start from the same cache state whatever ran before;
 * its rate is the median of probeBursts bursts, over nominalRate.
 * runWorkload() probes before the first set-up and after the last
 * teardown, outside every timed interval.
 */
class HostProbe
{
  public:
    /** Reference reads per second on a quiet 4-vCPU Xeon VM. */
    static constexpr double nominalRate = 100e6;
    static constexpr int probeBursts = 5;
    static constexpr double burstSeconds = 0.01;
    static constexpr std::size_t tableEntries = std::size_t{1} << 23;
    static constexpr double tableMiB =
        tableEntries * sizeof(std::uint64_t) / double(1 << 20);

    /** Probes appear as spans on @p tr. */
    explicit HostProbe(Tracer &tr);

    /** Run the reference; returns its rate over nominalRate. */
    double speed();

  private:
    Tracer &tracer;
    std::vector<std::uint64_t> table;
    std::uint64_t lcg = 1;
    std::uint64_t sink = 0;
};

/**
 * Host-time laps of the measured phase. The workload marks its
 * completed ops between simulation slices; the phase's rate is the
 * median rate over `chunks` consecutive stretches of about equal ops.
 * Every workload's measured phase is a steady stream of alike slices,
 * so each stretch does the same kind of work, and a few seconds in
 * which a neighbour slows the host move the median little.
 */
class Laps
{
  public:
    static constexpr unsigned chunks = 16;

    void start();
    /** @p ops completed so far in the measured phase. */
    void mark(std::uint64_t ops);
    /** Median ops per host second over the chunks. */
    double medianRate() const;
    /** Host seconds from start() to the last mark(). */
    double seconds() const { return points.back().t; }

  private:
    struct Point
    {
        double t;
        std::uint64_t ops;
    };
    Clock::time_point t0;
    std::vector<Point> points;
};

/** The ops reference CRC32C, timed for ops.crc32c_gbps. */
class RefCrc
{
  public:
    std::uint32_t operator()(const std::vector<std::uint8_t> &buf,
                             Tracer &tr);
    double gbps() const { return seconds > 0 ? bytes / seconds / 1e9 : 0; }

  private:
    double bytes = 0;
    double seconds = 0;
};

/** Everything one workload run reports. */
struct Result
{
    /// @name End-to-end (host) metrics.
    /// @{
    double opsPerS = 0;
    double setupS = 0;
    double totalS = 0;
    /// @}
    std::uint64_t ops = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Mechanism and determinism checks: name -> passed. */
    std::vector<std::pair<std::string, bool>> checks;
    /** Exact outputs (counts, hashes, simulated results) as text. */
    std::vector<std::pair<std::string, std::string>> exact;
    /** Per-layer host timings (traced runs) and diagnostics. */
    std::vector<std::pair<std::string, double>> layers;
    /** Registry counter deltas across the measured phase. */
    CounterMap registryDelta;
    /** Simulated events of the measured phase. */
    std::uint64_t events = 0;

    void check(const std::string &name, bool ok)
    {
        checks.emplace_back(name, ok);
    }
    void exactU(const std::string &name, std::uint64_t v);
    void exactF(const std::string &name, double v);
    void layer(const std::string &name, double v)
    {
        layers.emplace_back(name, v);
    }
};

/**
 * The exact per-layer counts every workload reports the same way,
 * read from registry deltas across the measured phase (absent
 * counters read as zero). @p atc_lookups comes from the devices'
 * ATC hit + miss tallies.
 */
void reportRegistryCounts(Result &r, const CounterMap &d,
                          std::uint64_t atc_lookups);

/**
 * The host-time per-layer metrics of a traced run, from the spans of
 * run @p r (the kept set-up repetition): set-up and teardown stages
 * for the driver, address-space and probe warm-walk costs, the
 * measure stage for the rest. @p events is the measured phase's
 * simulated event count.
 */
void reportLayerTimes(Result &res, const Tracer &tr, unsigned r,
                      std::uint64_t events);

/**
 * One workload. runWorkload() calls these in a fixed order and owns
 * the timing; the workload owns its rig and records its own spans.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the rig, write the seeded inputs and warm up. */
    virtual void setUp() = 0;
    /** Simulated state after set-up; every set-up must agree. */
    virtual std::uint64_t fingerprint() = 0;
    /** Untimed: note counters before the measured phase. */
    virtual void beforeMeasure() {}
    /**
     * The measured phase: fixed simulated work. Marks its ops so far
     * on @p laps between slices; returns the ops it completed.
     */
    virtual std::uint64_t measure(Laps &laps) = 0;
    /** Untimed: verify outputs; fill in counts, checks and outputs. */
    virtual void report(Result &r) = 0;
    /** Destroy the rig. */
    virtual void tearDown() = 0;
};

/**
 * Set up o.setups times (tearing down all but the last), measure,
 * verify, tear down. ops_per_s is the measured phase's median lap
 * rate; setup_s is the median set-up; total_s is the kept set-up plus
 * the measured phase (its ops at the median lap rate) plus teardown.
 * All are plain host seconds. @p probe runs before the first set-up
 * and after the last teardown, for the host.speed diagnostic.
 */
Result runWorkload(Workload &w, const Options &o, Tracer &tr,
                   HostProbe &probe);

} // namespace perfbench

#endif // DSASIM_PERFBENCH_HARNESS_HH
