/**
 * @file
 * Software counterparts of every DSA operation, executed by a CPU
 * core: glibc-style memcpy/memset/memcmp/memmove, ISA-L style CRC32
 * and DIF, plus delta create/apply, dualcast and cache flush.
 *
 * Every kernel is *functional* (bytes really move through the
 * simulated memory) and *timed*: it walks the touched cache lines
 * through the LLC model (polluting it exactly the way the paper's
 * §4.5 experiment shows), charges the memory links for the traffic it
 * generates, and returns the core-visible duration.
 */

#ifndef DSASIM_CPU_KERNELS_HH
#define DSASIM_CPU_KERNELS_HH

#include <cstdint>
#include <vector>

#include "cpu/core.hh"
#include "mem/address_space.hh"
#include "mem/mem_system.hh"

namespace dsasim
{

class SwKernels
{
  public:
    explicit SwKernels(MemSystem &ms) : mem(ms) {}

    struct Result
    {
        Tick duration = 0;
        bool ok = true;               ///< comparison/check outcome
        std::uint32_t crc = 0;        ///< CRC operations
        std::uint64_t diffOffset = 0; ///< memcmp: first difference
        std::uint64_t recordBytes = 0;///< delta create: record size
        bool recordFits = true;       ///< delta create: within max
        std::uint64_t bytesProcessed = 0;
    };

    /// @name Move operations.
    /// @{
    Result memcpyOp(Core &core, AddressSpace &as, Addr dst, Addr src,
                    std::uint64_t n);
    Result dualcastOp(Core &core, AddressSpace &as, Addr dst1,
                      Addr dst2, Addr src, std::uint64_t n);
    /** Copy + CRC32-C of the transferred data (DSA Copy with CRC). */
    Result copyCrcOp(Core &core, AddressSpace &as, Addr dst, Addr src,
                     std::uint64_t n, std::uint32_t seed);
    /// @}

    /// @name Fill.
    /// @{
    /**
     * Fill with a repeating 8-byte pattern. @p nontemporal selects
     * NT stores (no allocation, no RFO) versus regular stores.
     */
    Result memsetOp(Core &core, AddressSpace &as, Addr dst,
                    std::uint64_t pattern, std::uint64_t n,
                    bool nontemporal);

    /** 8- or 16-byte-pattern fill (Table 1's Memory Fill). */
    Result memsetOp2(Core &core, AddressSpace &as, Addr dst,
                     std::uint64_t lo, std::uint64_t hi,
                     unsigned pattern_bytes, std::uint64_t n,
                     bool nontemporal);
    /// @}

    /// @name Compare / delta.
    /// @{
    Result memcmpOp(Core &core, AddressSpace &as, Addr a, Addr b,
                    std::uint64_t n);
    Result comparePatternOp(Core &core, AddressSpace &as, Addr a,
                            std::uint64_t pattern, std::uint64_t n);
    Result deltaCreateOp(Core &core, AddressSpace &as, Addr original,
                         Addr modified, std::uint64_t n, Addr record,
                         std::uint64_t max_record_bytes);
    Result deltaApplyOp(Core &core, AddressSpace &as, Addr dst,
                        Addr record, std::uint64_t record_bytes,
                        std::uint64_t n);
    /// @}

    /// @name CRC and DIF.
    /// @{
    Result crc32Op(Core &core, AddressSpace &as, Addr src,
                   std::uint64_t n, std::uint32_t seed);
    Result difInsertOp(Core &core, AddressSpace &as, Addr src,
                       Addr dst, std::uint64_t block_bytes,
                       std::uint64_t nblocks, std::uint16_t app_tag,
                       std::uint32_t ref_tag);
    Result difCheckOp(Core &core, AddressSpace &as, Addr src,
                      std::uint64_t block_bytes, std::uint64_t nblocks,
                      std::uint16_t app_tag, std::uint32_t ref_tag);
    Result difStripOp(Core &core, AddressSpace &as, Addr src, Addr dst,
                      std::uint64_t block_bytes,
                      std::uint64_t nblocks);
    Result difUpdateOp(Core &core, AddressSpace &as, Addr src,
                       Addr dst, std::uint64_t block_bytes,
                       std::uint64_t nblocks, std::uint16_t old_app,
                       std::uint32_t old_ref, std::uint16_t new_app,
                       std::uint32_t new_ref);
    /// @}

    /// @name Flush.
    /// @{
    Result cacheFlushOp(Core &core, AddressSpace &as, Addr addr,
                        std::uint64_t n);
    /// @}

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

    /** Combine call overhead, range costs and compute time. */
    Result finish(Core &core, std::uint64_t bytes, double extra_ns,
                  std::initializer_list<RangeCost> ranges);

    MemSystem &mem;
    /** touchRange's dirty victims of one page run (reused buffer). */
    std::vector<Addr> victims;
};

} // namespace dsasim

#endif // DSASIM_CPU_KERNELS_HH
