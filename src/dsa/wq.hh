/**
 * @file
 * Work queues: on-device descriptor storage, configured as either
 * dedicated (single software client, MOVDIR64B submission) or shared
 * (multiple clients, ENQCMD submission with a retry status), with a
 * QoS priority consumed by the group arbiter (F3).
 */

#ifndef DSASIM_DSA_WQ_HH
#define DSASIM_DSA_WQ_HH

#include <cstdint>
#include <deque>
#include <optional>

#include "dsa/descriptor.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace dsasim
{

class Group;
class WqAdmission;

class WorkQueue
{
  public:
    enum class Mode : std::uint8_t
    {
        Dedicated, ///< DWQ: one client, posted MOVDIR64B submission
        Shared,    ///< SWQ: many clients, non-posted ENQCMD
    };

    struct Entry
    {
        WorkDescriptor desc;
        Tick enqueuedAt;
    };

    WorkQueue(int wq_id, Mode wq_mode, unsigned wq_size,
              unsigned wq_priority, unsigned wq_threshold = 0)
        : id(wq_id), mode(wq_mode), size(wq_size),
          priority(wq_priority),
          threshold(wq_threshold ? wq_threshold : wq_size)
    {}

    bool full() const { return entries.size() >= size; }

    /**
     * SWQ admission limit for ENQCMD submitters (idxd's `threshold`
     * attribute): entries above it are reserved for privileged
     * ENQCMDS use. Equal to `size` unless configured lower.
     */
    bool
    aboveThreshold() const
    {
        return entries.size() >= threshold;
    }
    bool empty() const { return entries.empty(); }
    std::size_t occupancy() const { return entries.size(); }

    /** Place a descriptor; returns false when the queue is full. */
    bool
    enqueue(const WorkDescriptor &d, Tick now)
    {
        if (full()) {
            ++rejected;
            return false;
        }
        entries.push_back({d, now});
        ++accepted;
        return true;
    }

    std::optional<Entry>
    dequeue()
    {
        if (entries.empty())
            return std::nullopt;
        Entry e = std::move(entries.front());
        entries.pop_front();
        return e;
    }

    /**
     * Remove and return every queued entry (device disable/reset:
     * the WQ is flushed and its descriptors complete with an abort
     * status).
     */
    std::deque<Entry>
    drainAll()
    {
        std::deque<Entry> flushed;
        flushed.swap(entries);
        return flushed;
    }

    const int id;
    const Mode mode;
    const unsigned size;
    const unsigned priority; ///< larger = preferred by the arbiter
    const unsigned threshold;

    Group *group = nullptr;

    /**
     * Optional per-tenant admission policy consulted by the portal
     * for Shared WQs (dsa/qos.hh). Non-owning: the installing layer
     * (serving, bench) owns its lifetime and policy state.
     */
    WqAdmission *admission = nullptr;

    /** Arbiter bookkeeping: last tick this WQ was served. */
    std::uint64_t lastServed = 0;

    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;

  private:
    std::deque<Entry> entries;
};

} // namespace dsasim

#endif // DSASIM_DSA_WQ_HH
