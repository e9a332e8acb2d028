/**
 * @file
 * Work descriptors and completion records.
 *
 * The fields mirror the 64-byte hardware descriptor: operation,
 * PASID, flags, source/destination addresses, transfer size, and the
 * per-operation extras (pattern, CRC seed, DIF tags, delta record
 * limits). The completion record carries status, the CRC value,
 * compare results and fault information; a simulation-side Trigger
 * stands in for the memory write that UMONITOR/UMWAIT or polling
 * would observe on hardware.
 */

#ifndef DSASIM_DSA_DESCRIPTOR_HH
#define DSASIM_DSA_DESCRIPTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/types.hh"
#include "ops/opcodes.hh"
#include "sim/sync.hh"

namespace dsasim
{

/** Descriptor flag bits. */
namespace descflags
{
/** Cache control: steer destination writes into the LLC (DDIO). */
constexpr std::uint32_t cacheControl = 1u << 0;
/** Block on fault: the device waits for the OS to resolve faults. */
constexpr std::uint32_t blockOnFault = 1u << 1;
/** Request an interrupt instead of a polled completion. */
constexpr std::uint32_t requestInterrupt = 1u << 2;
} // namespace descflags

/** The record the device writes an operation's outcome into. */
class CompletionRecord : public OpOutcome
{
  public:
    using Status = OpStatus;

    static const char *
    statusName(Status st)
    {
        switch (st) {
          case Status::None: return "none";
          case Status::Success: return "success";
          case Status::PageFault: return "page-fault";
          case Status::Unsupported: return "unsupported";
          case Status::BatchError: return "batch-error";
          case Status::ReadError: return "read-error";
          case Status::WriteError: return "write-error";
          case Status::DecodeError: return "decode-error";
          case Status::Aborted: return "aborted";
          case Status::WqOverflow: return "wq-overflow";
          case Status::QueueFull: return "queue-full";
        }
        return "?";
    }

    explicit CompletionRecord(Simulation &s) : done(s) {}

    bool isDone() const { return status != Status::None; }

    /** Device-side: publish the final status and wake waiters. */
    void
    complete(Status st)
    {
        status = st;
        done.fire();
    }

    /** Reset for reuse (descriptors are commonly recycled). */
    void
    rearm()
    {
        static_cast<OpOutcome &>(*this) = {};
        done.reset();
    }

    /** Fires when the status byte is written. */
    Trigger done;
};

struct WorkDescriptor : OpArgs
{
    /**
     * Default matches the paper's measurement setup (§4.1): cache
     * control disabled (destination writes go to memory), block on
     * fault enabled. Workloads that want DDIO-style LLC placement
     * (G3) set descflags::cacheControl explicitly.
     */
    std::uint32_t flags = descflags::blockOnFault;
    Pasid pasid = 0;

    /** Completion record; must outlive processing. */
    CompletionRecord *completion = nullptr;

    /**
     * Batch payload: the array of work descriptors the batch
     * descriptor points at (a descriptor-list address on hardware).
     */
    std::shared_ptr<std::vector<WorkDescriptor>> batch;

    bool wantsCacheControl() const
    {
        return flags & descflags::cacheControl;
    }
    bool blocksOnFault() const
    {
        return flags & descflags::blockOnFault;
    }
    bool wantsInterrupt() const
    {
        return flags & descflags::requestInterrupt;
    }
};

} // namespace dsasim

#endif // DSASIM_DSA_DESCRIPTOR_HH
