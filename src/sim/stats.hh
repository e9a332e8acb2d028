/**
 * @file
 * Measurement helpers: scalar counters, sample histograms with exact
 * percentiles, and time series for occupancy-style plots — plus the
 * first-class telemetry registry (namespace stats): hierarchical
 * dotted-name counters and gauges, a deterministic pure-observer
 * sampler, and pcm-sensor-server-style CSV / Prometheus exporters
 * (DESIGN.md §15). Latency distributions are not a registry kind:
 * their owners keep sample stores (dsasim::Histogram) and export
 * count/sum views as a counter and a gauge.
 */

#ifndef DSASIM_SIM_STATS_HH
#define DSASIM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace dsasim
{

/**
 * Collects samples and answers count/mean/min/max/percentile queries.
 * Samples are stored exactly up to a cap (default 4M — enough for the
 * paper's p99.999 tail-latency plots), then reservoir-sampled so the
 * percentile estimates stay unbiased for long runs.
 */
class Histogram
{
  public:
    explicit Histogram(std::size_t max_samples = 1 << 22)
        : cap(max_samples)
    {}

    void
    add(double v)
    {
        ++n;
        total += v;
        minV = std::min(minV, v);
        maxV = std::max(maxV, v);
        if (samples.size() < cap) {
            samples.push_back(v);
        } else {
            // Vitter's algorithm R; cheap xorshift is adequate here.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            std::uint64_t idx = seed % n;
            if (idx < cap)
                samples[idx] = v;
        }
        sorted = false;
    }

    std::uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? total / static_cast<double>(n) : 0.0; }
    double min() const { return n ? minV : 0.0; }
    double max() const { return n ? maxV : 0.0; }

    /** Exact (or reservoir-estimated) percentile, p in [0, 100]. */
    double
    percentile(double p)
    {
        if (samples.empty())
            return 0.0;
        if (!sorted) {
            std::sort(samples.begin(), samples.end());
            sorted = true;
        }
        if (p <= 0.0)
            return samples.front();
        if (p >= 100.0)
            return samples.back();
        double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
        std::size_t lo = static_cast<std::size_t>(rank);
        double frac = rank - static_cast<double>(lo);
        if (lo + 1 >= samples.size())
            return samples.back();
        return samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
    }

    /** Fold another histogram's samples into this one. */
    void
    merge(const Histogram &other)
    {
        double retained = 0.0;
        for (double v : other.samples) {
            add(v);
            retained += v;
        }
        // add() only saw the retained samples; restore the exact
        // count/sum (reservoir-dropped samples included) and bounds.
        n += other.n - other.samples.size();
        total += other.total - retained;
        if (other.n) {
            minV = std::min(minV, other.minV);
            maxV = std::max(maxV, other.maxV);
        }
    }

    void
    reset()
    {
        samples.clear();
        sorted = false;
        n = 0;
        total = 0.0;
        minV = std::numeric_limits<double>::infinity();
        maxV = -std::numeric_limits<double>::infinity();
    }

  private:
    std::size_t cap;
    std::vector<double> samples;
    bool sorted = false;
    std::uint64_t n = 0;
    double total = 0.0;
    double minV = std::numeric_limits<double>::infinity();
    double maxV = -std::numeric_limits<double>::infinity();
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

/**
 * A (tick, value) series, e.g. per-core LLC occupancy over time for
 * the Fig. 12 reproduction.
 */
class TimeSeries
{
  public:
    struct Point
    {
        Tick when;
        double value;
    };

    void add(Tick when, double value) { points.push_back({when, value}); }
    const std::vector<Point> &data() const { return points; }
    std::size_t size() const { return points.size(); }
    void clear() { points.clear(); }

  private:
    std::vector<Point> points;
};

/**
 * Tracks how an agent's cycles split across activity classes —
 * used for the UMWAIT cycle accounting (Fig. 11) and the datacenter
 * tax style breakdowns.
 */
class CycleAccount
{
  public:
    void
    charge(const std::string &bucket, Tick t)
    {
        for (auto &e : entries) {
            if (e.name == bucket) {
                e.ticks += t;
                return;
            }
        }
        entries.push_back({bucket, t});
    }

    Tick
    bucket(const std::string &name) const
    {
        for (const auto &e : entries)
            if (e.name == name)
                return e.ticks;
        return 0;
    }

    Tick
    totalTicks() const
    {
        Tick t = 0;
        for (const auto &e : entries)
            t += e.ticks;
        return t;
    }

    double
    fraction(const std::string &name) const
    {
        Tick tot = totalTicks();
        if (tot == 0)
            return 0.0;
        return static_cast<double>(bucket(name)) / static_cast<double>(tot);
    }

    void clear() { entries.clear(); }

  private:
    struct Entry
    {
        std::string name;
        Tick ticks = 0;
    };
    std::vector<Entry> entries;
};

/**
 * The telemetry registry (DESIGN.md §15). Metrics carry stable
 * hierarchical dotted names ("dsa0.eng2.bytes_read"; a cluster fold
 * prefixes the domain: "socket0.dsa1.eng2.bytes_read") and are
 * registered once, by the component that owns them, against the
 * Simulation's registry. Mutation goes through the metric API only —
 * Counter::add / Gauge::set (simlint's counter-mutation rule rejects
 * direct field writes) — and every read surface (snapshots, the
 * Sampler, the exporters) is a pure observer: it never schedules
 * events, consumes sequence numbers, or touches simulated state, so
 * telemetry on/off and any sampling period leave event-stream
 * fingerprints bit-identical.
 */
namespace stats
{

class Registry;

/**
 * Monotonic event counter. Either a stored cell bumped via add(),
 * or a registry view over an existing component statistic
 * (supplier-backed; see Registry::counter with a function).
 */
class Counter
{
  public:
    void add(std::uint64_t d) { cell += d; }
    void inc() { cell += 1; }
    std::uint64_t value() const { return fn ? fn() : cell; }
    bool supplierBacked() const { return static_cast<bool>(fn); }

  private:
    friend class Registry;
    std::uint64_t cell = 0;
    std::function<std::uint64_t()> fn;
};

/** Point-in-time level: stored via set(), or supplier-backed. */
class Gauge
{
  public:
    void set(double v) { cell = v; }
    double value() const { return fn ? fn() : cell; }
    bool supplierBacked() const { return static_cast<bool>(fn); }

  private:
    friend class Registry;
    double cell = 0.0;
    std::function<double()> fn;
};

/**
 * Hierarchical metric registry, one per Simulation. Registration
 * (setup-time, non-observer) returns a stable reference — metrics
 * live in node-based storage and are never removed. A duplicate name
 * is fatal; multi-instance components disambiguate via scope().
 */
class Registry
{
  public:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
    };

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;
    Registry(Registry &&) = default;
    Registry &operator=(Registry &&) = default;

    /// @name Registration (setup-time; duplicate names are fatal).
    /// @{
    Counter &counter(const std::string &name,
                     const std::string &help = "");
    /** Supplier-backed counter view over an existing statistic. */
    Counter &counter(const std::string &name, const std::string &help,
                     std::function<std::uint64_t()> supplier);
    Gauge &gauge(const std::string &name,
                 const std::string &help = "");
    Gauge &gauge(const std::string &name, const std::string &help,
                 std::function<double()> supplier);

    /**
     * Auto-numbered instance prefix: scope("dto") returns "dto0",
     * then "dto1", ... — stable per registration order, which the
     * deterministic construction order makes reproducible.
     */
    std::string scope(const std::string &stem);
    /// @}

    /// @name Observer read surface.
    /// @{
    std::size_t size() const { return metrics.size(); }
    bool has(const std::string &name) const; // simlint:observer

    /** Value of a registered counter; fatal if absent/not a counter. */
    std::uint64_t
    counterValue(const std::string &name) const; // simlint:observer

    /** One metric flattened for export. */
    struct SnapshotEntry
    {
        std::string name;
        std::string help;
        Kind kind = Kind::Counter;
        double value = 0.0;
    };

    /** Point-in-time copy of every metric, ascending name order. */
    struct Snapshot
    {
        Tick when = 0;
        std::vector<SnapshotEntry> entries;
    };

    /**
     * Refresh @p snap in place (reusing entry storage when the
     * metric set is unchanged — the per-sample fast path).
     */
    void sampleInto(Snapshot &snap) const; // simlint:observer
    Snapshot snapshot() const;             // simlint:observer
    /// @}

    /**
     * Copy every metric of @p src into this registry as a stored
     * metric named prefix + name — the deterministic cluster fold:
     * domains are folded in domain-id order with "socket<d>."
     * prefixes, so the combined view is identical for any worker
     * thread count.
     */
    void fold(const Registry &src, const std::string &prefix);

  private:
    /** The Sampler locks direct metric references at first sample. */
    friend class Sampler;

    struct Metric
    {
        Kind kind = Kind::Counter;
        std::string help;
        Counter ctr;
        Gauge gau;
    };

    Metric &add(const std::string &name, Kind kind,
                const std::string &help);

    // Node-based ordered map: references stay valid for the life of
    // the registry and iteration is ascending-name deterministic.
    std::map<std::string, Metric> metrics;
    std::map<std::string, unsigned> scopes;
};

/// @name Export knobs (read once per query; host-only).
/// DSASIM_STATS: unset/""/"0" disables the platform sampler; "1"
/// enables with the default file prefix "dsasim-stats-"; any other
/// value is used as the output file prefix verbatim.
/// DSASIM_STATS_PERIOD: sampling period in nanoseconds (default
/// 1000 = 1 us).
/// @{
bool samplingEnabled();
std::string exportPrefix();
Tick samplePeriodTicks();
/// @}

/// @name Exporters (pure observers over recorded snapshots).
/// @{
/** "dsa0.eng1.bytes_read" -> "dsasim_dsa0_eng1_bytes_read". */
std::string prometheusName(const std::string &name);

/** Prometheus text exposition format (HELP/TYPE + samples). */
void writePrometheus(const Registry::Snapshot &snap,
                     std::FILE *out); // simlint:observer

/**
 * Validate Prometheus text-exposition output: every sample preceded
 * by its HELP/TYPE pair, every TYPE a counter or a gauge, counter
 * values non-negative. Returns true when valid; otherwise fills
 * @p error.
 */
bool validatePrometheus(const std::string &text, std::string *error);
/// @}

} // namespace stats

class Simulation;

namespace stats
{

/**
 * Deterministic registry poller. Installs a non-event sample hook on
 * the Simulation (Simulation::setSampleHook): the event kernel fires
 * the hook on the first event dispatch at-or-after each period
 * boundary, consuming no sequence numbers and mixing nothing into
 * the stream hash, so sampling at any period — or not at all —
 * leaves fingerprints bit-identical.
 *
 * The per-sample path is built for the hot loop: at the first sample
 * the column set is locked with direct references into the
 * registry's node-based storage (stable for the registry's
 * lifetime), and each sample reads those metrics straight into a row
 * — no name lookups, no snapshot rebuild. When the recording reaches
 * maxRows, every second row is dropped and the period doubles
 * (Simulation::setSamplePeriod — an observer knob), so memory stays
 * bounded on arbitrarily long runs while the series keeps uniform
 * spacing; the surviving ticks are a function of simulated time
 * only, so identical runs decimate identically.
 *
 * The Prometheus snapshot is part of the recording: it refreshes
 * inside sample() — every sample for the first snapRefresh rows,
 * then every snapRefresh-th — and the exporters render that
 * recording, never the live registry. Supplier-backed metrics whose
 * owners die after the run (serving tenants, admission policies,
 * cluster ports) therefore never dangle at export time; the
 * invariant components must hold is only that suppliers outlive the
 * last event dispatch.
 */
class Sampler
{
  public:
    /** Row cap; reaching it halves the recording, doubles period. */
    static constexpr std::size_t maxRows = 1 << 16;
    /** Snapshot refresh cadence, in samples (see class comment). */
    static constexpr std::size_t snapRefresh = 16;

    Sampler(Simulation &s, Tick period); // installs the hook
    ~Sampler();                          // clears the hook
    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** One observation of every registered metric. */
    void sample(); // simlint:observer

    std::size_t sampleCount() const { return rows.size(); }
    /** Current cadence (grows on decimation). */
    Tick period() const { return tickPeriod; }

    /** Last recorded snapshot (≤ snapRefresh samples stale). */
    const Registry::Snapshot &lastSnapshot() const // simlint:observer
    {
        return snap;
    }

    /**
     * Per-run time series: one column per metric present at the
     * first sample (late registrations are noted once on stderr and
     * skipped — columns are locked so every row parses), one row per
     * sample. Returns false if the file cannot be opened, a write
     * fails or the close fails (e.g. a full disk).
     */
    bool writeCsv(const std::string &path) const;

    /**
     * Recorded snapshot in Prometheus text-exposition format; false
     * on the same I/O failures as writeCsv().
     */
    bool writePrometheusFile(const std::string &path) const;

  private:
    struct Row
    {
        Tick when = 0;
        std::vector<double> values;
    };

    /**
     * Locked at the first sample, one per metric. The metric
     * pointers alias the registry's node-based storage — valid as
     * long as the registry (metrics are never removed).
     */
    struct Column
    {
        std::string name;
        Registry::Kind kind = Registry::Kind::Counter;
        const Counter *ctr = nullptr;
        const Gauge *gau = nullptr;
    };

    void lockColumns();
    void decimate(); // simlint:observer

    Simulation &sim;
    Tick tickPeriod;
    Registry::Snapshot snap;
    std::vector<Column> columns;
    std::vector<Row> rows;
    std::size_t samplesSinceSnap = 0;
    bool warnedNewMetrics = false;
};

} // namespace stats

} // namespace dsasim

#endif // DSASIM_SIM_STATS_HH
