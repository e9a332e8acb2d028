/**
 * @file
 * dml: the high-level data-mover API of this library, mirroring the
 * Intel DML concepts the paper describes in §5 ("Software libraries
 * for DSA"): execution paths (software / hardware / auto), one-shot
 * synchronous jobs, asynchronous jobs with explicit waits, batch
 * jobs, and load balancing across multiple DSA instances and WQs.
 *
 * This is the layer applications are expected to program against;
 * examples/ and the case-study apps use it exclusively.
 */

#ifndef DSASIM_DML_DML_HH
#define DSASIM_DML_DML_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/kernels.hh"
#include "driver/submitter.hh"
#include "dsa/device.hh"
#include "sim/task.hh"

namespace dsasim::dml
{

/** Where a job runs. */
enum class Path
{
    Software, ///< always on the calling core
    Hardware, ///< always offloaded to DSA
    Auto,     ///< DSA when profitable (size >= threshold), else CPU
};

/** Auto path: offload at or above this size (G2's ~4 KB rule). */
constexpr std::uint64_t autoHwThreshold = 4096;
/**
 * submit()'s bounded ENQCMD backoff pauses enqcmdBackoffBase before
 * the first resubmit and doubles up to enqcmdBackoffCap.
 */
constexpr Tick enqcmdBackoffBase = fromNs(256);
constexpr Tick enqcmdBackoffCap = fromUs(16);
/** CPU cost to touch/repage a faulted page before resuming. */
constexpr Tick faultTouchCost = fromUs(2);
/**
 * executeRecover(): hardware retries (resume, reset-resubmit)
 * before degrading the remainder to the software path.
 */
constexpr unsigned maxRecoveryAttempts = 3;

struct ExecutorConfig
{
    Path path = Path::Auto;

    /// @name Recovery knobs (all off by default: the fault-free
    /// fast path is bit-identical to the pre-recovery executor).
    /// @{
    /**
     * Abort a hardware job that has not completed this long after
     * awaitCompletion() starts (a hung engine, a lost completion).
     * Guards wait() and every ServingNode request on this executor.
     * 0 = off.
     */
    Tick watchdogTimeout = 0;
    /**
     * After the watchdog aborts the hung engine, how long to wait
     * for the Aborted completion before force-completing the record
     * from the driver side (covers a wedged device).
     */
    Tick watchdogGrace = fromUs(10);
    /**
     * submit()'s bounded-exponential ENQCMD backoff
     * (Submitter::enqcmdBackoff without jitter): resubmit at most
     * this many times, pausing enqcmdBackoffBase and doubling up to
     * enqcmdBackoffCap. 0 = legacy unbounded immediate retry (the
     * paper's measured Fig. 9 behavior). ServingNode runs the same
     * loop with its ServingConfig limits.
     */
    unsigned enqcmdMaxRetries = 0;
    /// @}
};

/**
 * Uniform result of any job, software or hardware: the operation's
 * outcome (as the completion record or the CPU path reported it)
 * plus the client's view of it.
 */
struct OpResult : OpOutcome
{
    bool ok = false;      ///< Success (and compare/check passed)
    Tick latency = 0;     ///< submit-to-detect, core perspective
    bool usedHardware = false;
};

/** An in-flight asynchronous job. */
class Job
{
  public:
    explicit Job(Simulation &s) : cr(s) {}

    WorkDescriptor desc;
    CompletionRecord cr;
    /** Batch jobs: one record per sub-descriptor. */
    std::vector<std::unique_ptr<CompletionRecord>> subCrs;
    Tick submittedAt = 0;
    bool usedHardware = false;
    /** Device the job was submitted to (watchdog/reset target). */
    DsaDevice *targetDev = nullptr;

    bool
    done() const
    {
        return !usedHardware || cr.isDone();
    }
};

class Executor
{
  public:
    Executor(Simulation &s, MemSystem &ms, SwKernels &k,
             std::vector<DsaDevice *> devices,
             ExecutorConfig cfg = {});

    const ExecutorConfig &config() const { return cfg; }

    /** The simulation this executor schedules on (e.g. for
     * registering telemetry against its stats registry). */
    Simulation &simulation() { return sim; }

    /// @name Descriptor factories.
    /// All take virtual addresses in @p as and default to
    /// cache-control = on, block-on-fault = on.
    /// @{
    static WorkDescriptor memMove(AddressSpace &as, Addr dst, Addr src,
                                  std::uint64_t n);
    static WorkDescriptor fill(AddressSpace &as, Addr dst,
                               std::uint64_t pattern, std::uint64_t n);
    /** Fill with a 16-byte pattern (lo || hi repeating). */
    static WorkDescriptor fill16(AddressSpace &as, Addr dst,
                                 std::uint64_t lo, std::uint64_t hi,
                                 std::uint64_t n);
    static WorkDescriptor compare(AddressSpace &as, Addr a, Addr b,
                                  std::uint64_t n);
    static WorkDescriptor comparePattern(AddressSpace &as, Addr a,
                                         std::uint64_t pattern,
                                         std::uint64_t n);
    static WorkDescriptor crc32(AddressSpace &as, Addr src,
                                std::uint64_t n);
    static WorkDescriptor copyCrc(AddressSpace &as, Addr dst, Addr src,
                                  std::uint64_t n);
    static WorkDescriptor dualcast(AddressSpace &as, Addr dst1,
                                   Addr dst2, Addr src,
                                   std::uint64_t n);
    static WorkDescriptor createDelta(AddressSpace &as, Addr original,
                                      Addr modified, std::uint64_t n,
                                      Addr record,
                                      std::uint64_t max_record);
    static WorkDescriptor applyDelta(AddressSpace &as, Addr dst,
                                     Addr record,
                                     std::uint64_t record_bytes,
                                     std::uint64_t n);
    static WorkDescriptor difInsert(AddressSpace &as, Addr src,
                                    Addr dst, std::uint32_t block,
                                    std::uint64_t data_bytes,
                                    std::uint16_t app_tag,
                                    std::uint32_t ref_tag);
    static WorkDescriptor difCheck(AddressSpace &as, Addr src,
                                   std::uint32_t block,
                                   std::uint64_t data_bytes,
                                   std::uint16_t app_tag,
                                   std::uint32_t ref_tag);
    static WorkDescriptor difStrip(AddressSpace &as, Addr src,
                                   Addr dst, std::uint32_t block,
                                   std::uint64_t data_bytes);
    static WorkDescriptor difUpdate(AddressSpace &as, Addr src,
                                    Addr dst, std::uint32_t block,
                                    std::uint64_t data_bytes,
                                    std::uint16_t old_app_tag,
                                    std::uint32_t old_ref_tag,
                                    std::uint16_t new_app_tag,
                                    std::uint32_t new_ref_tag);
    static WorkDescriptor cacheFlush(AddressSpace &as, Addr addr,
                                     std::uint64_t n);
    /** Ordering fence: completes when prior group work completes. */
    static WorkDescriptor drain(AddressSpace &as);
    /// @}

    /// @name Asynchronous API (hardware path).
    /// @{
    std::unique_ptr<Job> prepare(const WorkDescriptor &d);

    /**
     * Submit a prepared job. Applies WQ-credit backpressure for
     * DWQs (MOVDIR64B) and the retry protocol for SWQs (ENQCMD).
     */
    CoTask submit(Core &core, Job &job);

    /** Wait for a job and harvest its result. */
    CoTask wait(Core &core, Job &job, OpResult &out);

    /**
     * The client wait on one hardware completion: UMWAIT on @p core,
     * under the watchdog when watchdogTimeout is set. A fire aborts
     * hung work on @p dev, the device the descriptor went to; if no
     * completion follows within watchdogGrace, the record is
     * force-completed Aborted.
     */
    CoTask awaitCompletion(Core &core, CompletionRecord &cr,
                           DsaDevice *dev);

    /** Read a hardware completion record into @p out. */
    static void harvest(const CompletionRecord &cr, OpResult &out);
    /// @}

    /// @name Synchronous one-shot, honoring the configured path.
    /// @{
    CoTask execute(Core &core, const WorkDescriptor &d, OpResult &out);

    /** Force the hardware path regardless of configuration. */
    CoTask executeHardware(Core &core, const WorkDescriptor &d,
                           OpResult &out);

    /** Force the software path regardless of configuration. */
    CoTask executeSoftware(Core &core, const WorkDescriptor &d,
                           OpResult &out);

    /**
     * Hardware execution with the full recovery protocol: partial
     * completions (PageFault, block-on-fault = 0) touch the faulting
     * page and re-issue the remainder; Aborted jobs re-enable the
     * device and resubmit; anything else — and any job still failing
     * after maxRecoveryAttempts — degrades the remainder to the
     * software path. The job always reaches a terminal state.
     */
    CoTask executeRecover(Core &core, const WorkDescriptor &d,
                          OpResult &out);
    /// @}

    /// @name Batch API (F2).
    /// @{
    std::unique_ptr<Job> prepareBatch(
        Pasid pasid, const std::vector<WorkDescriptor> &subs);

    CoTask executeBatch(Core &core,
                        const std::vector<WorkDescriptor> &subs,
                        OpResult &out);
    /// @}

    /// @name Statistics.
    /// @{
    std::uint64_t hwJobs = 0;
    std::uint64_t swJobs = 0;
    std::uint64_t bytesOffloaded = 0;
    std::uint64_t watchdogFires = 0;    ///< timeouts that aborted a job
    std::uint64_t watchdogForced = 0;   ///< grace expired, driver-completed
    std::uint64_t pageFaultResumes = 0; ///< partial completions resumed
    std::uint64_t deviceResets = 0;     ///< re-enables after Aborted
    std::uint64_t submitGiveUps = 0;    ///< ENQCMD backoff exhausted
    std::uint64_t recoveryFallbacks = 0;///< remainders degraded to CPU
    /// @}

  private:
    struct Target
    {
        DsaDevice *dev;
        WorkQueue *wq;
        std::unique_ptr<Semaphore> credits; ///< DWQ backpressure
    };

    Target &pickTarget();
    bool shouldOffload(const WorkDescriptor &d) const;
    SimTask releaseOnDone(CompletionRecord &cr, Semaphore &credits);
    /**
     * Cancellation token for an armed watchdog: the timeout callback
     * may outlive the Job, so it checks cancelled before touching
     * the completion record.
     */
    struct WatchdogArm
    {
        bool cancelled = false;
    };
    std::shared_ptr<WatchdogArm> armWatchdog(CompletionRecord &cr,
                                             DsaDevice *dev);
    /** Page the faulting VA back in; false if it is unmapped. */
    bool touchFaultPage(Pasid pasid, Addr va);
    /**
     * Advance @p d past @p done_bytes of completed work so the
     * remainder can be re-issued. Returns false for operations that
     * must restart from the beginning (delta record offsets are
     * absolute).
     */
    static bool advancePastCompleted(WorkDescriptor &d,
                                     std::uint64_t done_bytes,
                                     const OpResult &partial);

    Simulation &sim;
    MemSystem &mem;
    SwKernels &kernels;
    ExecutorConfig cfg;
    std::vector<Target> targets;
    std::size_t rr = 0;
};

} // namespace dsasim::dml

#endif // DSASIM_DML_DML_HH
