/**
 * @file
 * Groups: the basic operational unit of DSA. A group binds a set of
 * work queues to a set of processing engines; the group arbiter
 * picks the next descriptor for a free engine, honoring WQ priority
 * while preventing starvation (§3.2).
 */

#ifndef DSASIM_DSA_GROUP_HH
#define DSASIM_DSA_GROUP_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "dsa/descriptor.hh"
#include "dsa/wq.hh"
#include "sim/sync.hh"

namespace dsasim
{

class DsaDevice;
class Engine;

/** Tracks a batch in flight: sub-descriptor fan-out and join. */
struct BatchTracker
{
    BatchTracker(Simulation &s, std::uint64_t count)
        : latch(s, count)
    {}

    Latch latch;
    bool anyFailed = false;
};

/** A unit of work dispatched to an engine. */
struct Work
{
    WorkDescriptor desc;
    Tick enqueuedAt = 0;
    /** Set for batch sub-descriptors: join + failure aggregation. */
    std::shared_ptr<BatchTracker> parent;
};

class Group
{
  public:
    Group(Simulation &s, DsaDevice &device, int group_id)
        : id(group_id), dev(device), pendingWork(s, 0)
    {}

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    void attach(WorkQueue *wq) { wqs.push_back(wq); }
    void attach(Engine *e) { engines.push_back(e); }

    /**
     * Called by the device when a descriptor lands in one of this
     * group's WQs (after the dispatch latency) and by engines when a
     * batch fans out sub-descriptors.
     */
    void signalWork() { pendingWork.release(); }

    /** Engines block here until the arbiter has something for them. */
    auto awaitWork() { return pendingWork.acquire(); }

    /**
     * Group arbiter: batch sub-descriptors first (they already won
     * arbitration once), then the highest-priority non-empty WQ,
     * breaking ties by least-recently-served.
     */
    std::optional<Work> arbitrate();

    /** Fan a batch sub-descriptor back into the dispatch stage. */
    void
    redispatch(Work w)
    {
        internal.push_back(std::move(w));
        signalWork();
    }

    /**
     * Remove and return every queued batch sub-descriptor (device
     * disable/reset). The pending-work semaphore keeps its credits;
     * engines tolerate waking to an empty arbiter.
     */
    std::deque<Work>
    flushInternal()
    {
        std::deque<Work> flushed;
        flushed.swap(internal);
        return flushed;
    }

    const int id;
    DsaDevice &dev;

    std::vector<WorkQueue *> wqs;
    std::vector<Engine *> engines;

    /**
     * Device read buffers allocated to this group; bounds each
     * engine's sustainable read rate (bandwidth-delay product).
     */
    unsigned readBuffers = 0;

    std::uint64_t descriptorsArbitrated = 0;

    /**
     * Descriptors currently being processed by this group's engines
     * (used by the Drain operation and telemetry).
     */
    std::uint64_t inflight = 0;

    /** Work queued anywhere in this group (WQs + batch redispatch). */
    bool
    hasQueuedWork() const
    {
        if (!internal.empty())
            return true;
        for (const WorkQueue *wq : wqs)
            if (!wq->empty())
                return true;
        return false;
    }

  private:
    Semaphore pendingWork;
    std::deque<Work> internal; ///< batch sub-descriptors
    std::uint64_t serveClock = 0;
};

} // namespace dsasim

#endif // DSASIM_DSA_GROUP_HH
