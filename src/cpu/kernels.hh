/**
 * @file
 * Software counterparts of every DSA operation, executed by a CPU
 * core: glibc-style memcpy/memset/memcmp/memmove, ISA-L style CRC32
 * and DIF, plus delta create/apply, dualcast and cache flush.
 *
 * Every kernel is *functional* (bytes really move through the
 * simulated memory, through the data plane the device shares,
 * ops/data_plane.hh) and *timed*: it walks the touched cache lines
 * through the LLC model (polluting it exactly the way the paper's
 * §4.5 experiment shows), charges the memory links for the traffic it
 * generates, and returns the core-visible duration.
 */

#ifndef DSASIM_CPU_KERNELS_HH
#define DSASIM_CPU_KERNELS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cpu/core.hh"
#include "mem/address_space.hh"
#include "mem/mem_system.hh"
#include "ops/data_plane.hh"

namespace dsasim
{

class SwKernels
{
  public:
    explicit SwKernels(MemSystem &ms) : mem(ms) {}

    /** The operation's completion metadata and its core time. */
    struct Result : OpOutcome
    {
        Tick duration = 0;
    };

    /**
     * glibc memcpy (memmove semantics for overlapping ranges): a
     * Memmove through run().
     */
    Result memcpyOp(Core &core, AddressSpace &as, Addr dst, Addr src,
                    std::uint64_t n);

    /**
     * Run any data operation on @p core (Nop, Batch and Drain are
     * fatal). Invalid operands complete Unsupported after the call
     * overhead alone. @p nontemporal selects NT stores (no
     * allocation, no RFO) for the writes.
     */
    Result run(Core &core, AddressSpace &as, const OpArgs &args,
               bool nontemporal);

  private:
    /** Data-location classes with distinct per-line costs. */
    enum class Level { Llc, DramLocal, DramRemote, Cxl };

    struct RangeCost
    {
        Tick coreTicks = 0;   ///< summed per-line core-side cost
        Tick linkEnd = 0;     ///< latest link completion (absolute)
        bool anyMiss = false;
        int nodeId = -1;
        std::uint64_t tlbWalks = 0;
    };

    Level levelOf(const Core &core, int node_id) const;
    Tick readLineCost(const Core &core, Level lvl) const;
    Tick writeLineCost(const Core &core, Level lvl) const;

    /**
     * Walk [va, va+len) through TLB + LLC as a read or an
     * (allocating or non-temporal) write stream, charging links.
     */
    RangeCost touchRange(Core &core, AddressSpace &as, Addr va,
                         std::uint64_t len, bool is_write,
                         bool allocate);

    /** Flush [va, va+len) from the caches, page by page. */
    RangeCost flushRange(Core &core, AddressSpace &as, Addr va,
                         std::uint64_t len);

    /** Combine call overhead, range costs and compute time. */
    Tick finish(Core &core, double extra_ns,
                std::span<const RangeCost> ranges);

    MemSystem &mem;
    /** touchRange's dirty victims of one page run (reused buffer). */
    std::vector<Addr> victims;
    /** Staging buffers for run()'s data plane. */
    OpScratch scratch;
};

} // namespace dsasim

#endif // DSASIM_CPU_KERNELS_HH
