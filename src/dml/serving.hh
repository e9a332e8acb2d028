/**
 * @file
 * Overload-robust multi-tenant serving on top of dml::Executor.
 *
 * A ServingNode hosts many PASID-isolated tenant sessions on one
 * socket. Each request runs the graceful-degradation ladder, using
 * the executor's client path for each step: Submitter::enqcmdBackoff
 * to submit, Executor::awaitCompletion (the executor's wait, under
 * its watchdog) to wait and Executor::harvest to read the record.
 *
 *   circuit breaker ->  bounded jittered ENQCMD backoff  ->  UMWAIT
 *        |  open                 | exhausted / error
 *        v                       v
 *      CPU (SwKernels) fallback  — never a hang, never a drop of an
 *      accepted descriptor.
 *
 * The breaker watches each tenant's queue-full rate over a tumbling
 * event-count window (event counts, not wall intervals, so the
 * policy is a pure function of the deterministic outcome sequence).
 * When it trips, the tenant's requests shed straight to the CPU
 * path until a cooldown elapses; a few half-open probes then decide
 * whether the SWQ has drained.
 *
 * Backoff jitter is counter-based (sim/traffic.hh CounterRng, keyed
 * by tenant/request/attempt), so retry spreading is identical for
 * any DSASIM_PARTITIONS worker count. Per-tenant SLO accounting
 * (p50/p99/p999 latency, goodput, shed/retry/fallback counters)
 * lives in TenantStats and feeds bench/bench_serving.cc. Its
 * latencyUs sample store is the only latency record: the telemetry
 * registry exports count and sum views of it, never a second copy.
 */

#ifndef DSASIM_DML_SERVING_HH
#define DSASIM_DML_SERVING_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dml/dml.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/traffic.hh"

namespace dsasim::dml
{

/**
 * Per-tenant circuit breaker over ENQCMD queue-full outcomes.
 * Closed counts outcomes in tumbling windows; a window whose
 * queue-full fraction reaches the threshold trips the breaker Open.
 * After the cooldown the breaker admits a handful of half-open
 * probes: one queue-full probe re-opens it, a full set of clean
 * probes closes it.
 */
class CircuitBreaker
{
  public:
    struct Config
    {
        unsigned window = 32;      ///< outcomes per evaluation window
        double openThreshold = 0.5; ///< queue-full fraction to trip
        Tick cooldown = fromUs(100); ///< open hold-down
        unsigned probes = 4;       ///< half-open trial requests
    };

    enum class State : std::uint8_t
    {
        Closed,
        Open,
        HalfOpen,
    };

    CircuitBreaker() = default;
    explicit CircuitBreaker(Config c) : cfg(c) {}

    /**
     * May this request try the hardware path at @p now? Transitions
     * Open -> HalfOpen once the cooldown elapses; a false return is
     * a shed (counted).
     */
    bool allowHardware(Tick now);

    /** Record a request outcome: did it end queue-full? */
    void onOutcome(Tick now, bool queue_full);

    State state() const { return st; }

    /// @name Statistics.
    /// @{
    std::uint64_t opens = 0;
    std::uint64_t closes = 0;
    std::uint64_t shed = 0;
    /// @}

  private:
    void trip(Tick now);

    Config cfg;
    State st = State::Closed;
    unsigned samples = 0;
    unsigned fulls = 0;
    Tick openedAt = 0;
    unsigned probesIssued = 0;
    unsigned probeOks = 0;
};

/** Per-tenant SLO accounting. */
struct TenantStats
{
    std::uint64_t arrivals = 0;  ///< offered by the generator
    std::uint64_t issued = 0;    ///< entered the serving ladder
    std::uint64_t dropped = 0;   ///< shed at arrival (outstanding cap)
    std::uint64_t hwAccepted = 0;
    std::uint64_t hwOk = 0;
    std::uint64_t hwErrors = 0;  ///< completed with an error status
    std::uint64_t retries = 0;   ///< ENQCMD Retry absorbed in backoff
    std::uint64_t giveUps = 0;   ///< bounded backoff exhausted
    std::uint64_t shedBreaker = 0; ///< breaker open: skipped hardware
    std::uint64_t fallbacks = 0; ///< served on the CPU path
    std::uint64_t failures = 0;  ///< terminal non-ok (fallback off)
    std::uint64_t goodputBytes = 0;
    Histogram latencyUs{1 << 12}; ///< arrival-to-done, microseconds

    /** Requests that reached a terminal outcome. */
    std::uint64_t
    completed() const
    {
        return hwOk + fallbacks + failures;
    }

    void merge(const TenantStats &o);
};

/**
 * The serving ladder's policy. The hang watchdog is the executor's
 * (ExecutorConfig::watchdogTimeout and watchdogGrace): every request
 * waits through Executor::awaitCompletion.
 */
struct ServingConfig
{
    /// @name Submitter::enqcmdBackoff limits, jittered per tenant.
    /// @{
    unsigned maxRetries = 4;      ///< bounded ENQCMD resubmissions
    Tick backoffBase = fromNs(250);
    Tick backoffCap = fromUs(4);
    double backoffJitter = 0.5;   ///< pause *= 1 - jitter * U[0,1)
    /// @}
    unsigned outstandingCap = 32; ///< per-tenant in-flight bound
    bool cpuFallback = true;      ///< degrade to SwKernels
    CircuitBreaker::Config breaker{};
    std::uint64_t seed = 1;       ///< jitter stream seed
};

/** One tenant's session on a ServingNode. */
class TenantSession
{
  public:
    TenantSession(Pasid p, Core &c, DsaDevice &d, WorkQueue &q,
                  std::function<WorkDescriptor(std::uint64_t)> make,
                  const ServingConfig &cfg)
        : pasid(p), core(&c), dev(&d), wq(&q),
          makeRequest(std::move(make)), breaker(cfg.breaker),
          jitter(cfg.seed ^ 0x73657276696e67ULL, p)
    {}

    const Pasid pasid;
    Core *core;
    DsaDevice *dev;
    WorkQueue *wq;

    /** Build the k-th request descriptor (pasid set by caller). */
    std::function<WorkDescriptor(std::uint64_t)> makeRequest;

    CircuitBreaker breaker;
    TenantStats stats;
    unsigned outstanding = 0;

    /** Counter-based backoff jitter stream (partition-invariant). */
    CounterRng jitter;
};

/**
 * The per-socket serving node: owns tenant sessions and drives the
 * open-loop request path against one socket's platform.
 */
class ServingNode
{
  public:
    /**
     * Registers this node's telemetry under a fresh serving<N>.
     * scope: ladder-event counters summed across tenants, and the
     * completed count and latency_us_total sum read from the
     * tenants' latencyUs records (DESIGN.md §15).
     */
    ServingNode(Simulation &s, Executor &e, ServingConfig c = {});

    TenantSession &
    addTenant(Pasid pasid, Core &core, DsaDevice &dev, WorkQueue &wq,
              std::function<WorkDescriptor(std::uint64_t)> make)
    {
        tenants.push_back(std::make_unique<TenantSession>(
            pasid, core, dev, wq, std::move(make), cfg));
        return *tenants.back();
    }

    /**
     * Open-loop driver for one tenant: @p requests arrivals paced by
     * @p arrivals, each spawning a detached serve() that arrives on
     * @p done (dropped arrivals arrive immediately). Offered load
     * never adapts to completions.
     */
    SimTask openLoop(TenantSession &t, ArrivalStream arrivals,
                     std::uint64_t requests, Latch &done);

    /** Serve one request synchronously (awaitable); for tests. */
    CoTask serve(TenantSession &t, std::uint64_t k);

    const std::vector<std::unique_ptr<TenantSession>> &
    sessions() const
    {
        return tenants;
    }

    /** Sum of all tenants' stats (latency sample stores merged). */
    TenantStats aggregate() const;

    const ServingConfig &config() const { return cfg; }

  private:
    SimTask serveDetached(TenantSession &t, std::uint64_t k,
                          Latch &done);

    ServingConfig cfg;
    Simulation &sim;
    Executor &ex;
    std::vector<std::unique_ptr<TenantSession>> tenants;
};

} // namespace dsasim::dml

#endif // DSASIM_DML_SERVING_HH
