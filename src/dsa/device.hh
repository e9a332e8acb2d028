/**
 * @file
 * DsaDevice: one DSA instance, exposed to the host as an RCiEP.
 *
 * Owns groups, work queues, engines, the device ATC, and the I/O
 * fabric ports. Configuration follows the real flow: build groups /
 * WQs / engines while disabled (the driver's accel-config role),
 * then enable() validates the topology and starts the PEs.
 */

#ifndef DSASIM_DSA_DEVICE_HH
#define DSASIM_DSA_DEVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsa/engine.hh"
#include "dsa/group.hh"
#include "dsa/params.hh"
#include "dsa/wq.hh"
#include "mem/mem_system.hh"
#include "mem/tlb.hh"
#include "sim/fault_injector.hh"
#include "sim/sync.hh"

namespace dsasim
{

class DsaDevice
{
  public:
    DsaDevice(Simulation &s, MemSystem &ms, const DsaParams &p,
              int device_id, int socket_id = 0);

    Simulation &sim() { return simulation; }
    const Simulation &sim() const { return simulation; }
    MemSystem &mem() { return memSys; }
    const DsaParams &params() const { return cfg; }
    int deviceId() const { return id; }
    int socket() const { return socketId; }
    bool enabled() const { return isEnabled; }

    /** Occupancy-accounting identity (distinct from any core). */
    int cacheOwnerId() const { return 1000 + id; }

    /// @name Configuration (only while disabled).
    /// @{
    Group &addGroup();
    WorkQueue &addWorkQueue(Group &grp, WorkQueue::Mode mode,
                            unsigned size, unsigned priority = 0,
                            unsigned threshold = 0);
    Engine &addEngine(Group &grp);
    /** Re-apportion read buffers; unset groups share the remainder. */
    void setGroupReadBuffers(Group &grp, unsigned buffers);
    /// @}

    /**
     * Validate the configuration and start the engines. Mirrors
     * accel-config's device enable; a malformed configuration is a
     * user error (fatal). Re-enabling after disable()/reset() is
     * legal and resumes service with the same topology.
     */
    void enable();

    /**
     * Abort/drain/disable sequencing (idxd's device disable):
     * queued descriptors in every WQ and every batch redispatch
     * queue complete with Status::Aborted, descriptors already on an
     * engine complete with Status::Aborted when they publish, hung
     * engines are released, and the device stops accepting
     * submissions until enable() is called again.
     */
    void disable();

    /** disable() followed by enable(): a full device reset. */
    void reset();

    /**
     * Release descriptors hung on an engine (they complete with
     * Status::Aborted) without disabling the device. The watchdog's
     * abort path.
     */
    void abortHung();

    /** Bumped by every disable(); in-flight work from an older epoch
     * publishes Status::Aborted. */
    std::uint64_t resetEpoch() const { return epoch; }

    /** Awaited by an engine whose descriptor hangs. */
    Trigger &hangRelease() { return *hangReleaseTrig; }

    /// @name Fault injection (optional; nullptr = fault-free).
    /// @{
    void setFaultInjector(FaultInjector *fi) { faultInjector = fi; }
    FaultInjector *injector() { return faultInjector; }
    /// @}

    /// @name Submission (the MMIO portal write, post-flight).
    /// Timing of the submitting instruction itself lives in the
    /// driver's Submitter; this is the descriptor landing in the WQ.
    /// @{
    enum class SubmitStatus
    {
        Accepted,
        Retry,    ///< transient (SWQ at threshold): resubmit
        Rejected, ///< dropped; the completion record has the cause
    };

    SubmitStatus submit(WorkQueue &wq, const WorkDescriptor &d);

    /**
     * Attach @p adm as work queue @p qid's admission policy and
     * publish its verdict counters under dsa<id>.wq<qid>.qos. in the
     * simulation's telemetry registry. Install each policy at most
     * once per queue (re-registration of the same names is fatal).
     */
    void installAdmission(std::size_t qid, WqAdmission *adm);
    /// @}

    /// @name Introspection.
    /// @{
    std::size_t groupCount() const { return groups.size(); }
    Group &group(std::size_t i) { return *groups[i]; }
    const Group &group(std::size_t i) const { return *groups[i]; }
    std::size_t wqCount() const { return wqs.size(); }
    WorkQueue &wq(std::size_t i) { return *wqs[i]; }
    const WorkQueue &wq(std::size_t i) const { return *wqs[i]; }
    std::size_t engineCount() const { return engines.size(); }
    Engine &engine(std::size_t i) { return *engines[i]; }
    const Engine &engine(std::size_t i) const { return *engines[i]; }
    /// @}

    /// @name Device resources used by the engines.
    /// @{
    TranslationCache &atc() { return atcCache; }
    LinkResource &fabricRead() { return fabricRd; }
    LinkResource &fabricWrite() { return fabricWr; }
    /// @}

    /// @name Aggregate statistics.
    /// The submission counters live in the telemetry registry
    /// (dsa<D>.*, DESIGN.md §15); the rest are plain bookkeeping
    /// fields.
    /// @{
    std::uint64_t dwqOverflows = 0;        ///< MOVDIR64B drops detected
    std::uint64_t submitsWhileDisabled = 0;
    std::uint64_t injectedRejects = 0;     ///< forced WqReject fires
    std::uint64_t resets = 0;              ///< disable() invocations

    std::uint64_t
    descriptorsSubmitted() const
    {
        return descriptorsSubmittedCtr.value();
    }
    std::uint64_t
    descriptorsRetried() const
    {
        return descriptorsRetriedCtr.value();
    }
    std::uint64_t descriptorsProcessed() const;
    std::uint64_t bytesProcessed() const;
    /// @}

  private:
    /** Complete a flushed descriptor with Status::Aborted. */
    void completeAborted(const WorkDescriptor &d);

    Simulation &simulation;
    MemSystem &memSys;
    DsaParams cfg;
    const int id;
    const int socketId;
    bool isEnabled = false;
    bool enginesStarted = false;
    std::uint64_t epoch = 0;

    std::vector<std::unique_ptr<Group>> groups;
    std::vector<std::unique_ptr<WorkQueue>> wqs;
    std::vector<std::unique_ptr<Engine>> engines;

    TranslationCache atcCache;
    LinkResource fabricRd;
    LinkResource fabricWr;
    std::unique_ptr<Trigger> hangReleaseTrig;
    FaultInjector *faultInjector = nullptr;

    // Registry-backed submission counters (bound in the constructor).
    stats::Counter &descriptorsSubmittedCtr;
    stats::Counter &descriptorsRetriedCtr;
};

} // namespace dsasim

#endif // DSASIM_DSA_DEVICE_HH
