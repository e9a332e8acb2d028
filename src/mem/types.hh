/**
 * @file
 * Common memory-system vocabulary types.
 */

#ifndef DSASIM_MEM_TYPES_HH
#define DSASIM_MEM_TYPES_HH

#include <cstdint>
#include <string>

namespace dsasim
{

/** Simulated addresses (both virtual and physical) are 64-bit. */
using Addr = std::uint64_t;

/** Process address space identifier (SVM/PASID). */
using Pasid = std::uint32_t;

/**
 * Widths of a PASID (the PCIe PASID field) and of a simulated virtual
 * address. Translation caches pack (PASID, 4 KiB page number) into
 * one 64-bit key, which is unique only within these widths.
 */
constexpr unsigned pasidBits = 20;
constexpr unsigned vaBits = 40;

constexpr Addr cacheLineSize = 64;

/** Round @p a down/up to a cache-line boundary. */
constexpr Addr lineAlignDown(Addr a) { return a & ~(cacheLineSize - 1); }
constexpr Addr
lineAlignUp(Addr a)
{
    return (a + cacheLineSize - 1) & ~(cacheLineSize - 1);
}

/** Number of cache lines overlapped by [addr, addr+size). */
constexpr std::uint64_t
linesCovered(Addr addr, std::uint64_t size)
{
    if (size == 0)
        return 0;
    return (lineAlignUp(addr + size) - lineAlignDown(addr)) / cacheLineSize;
}

/** Memory medium kinds of the evaluated platforms (Table 2 / Fig. 6). */
enum class MemKind : std::uint8_t
{
    DramLocal,  ///< DDR attached to the requester's socket
    DramRemote, ///< DDR on the other socket, reached over UPI
    Cxl,        ///< CXL 1.1 type-3 device (Agilex-I dev kit stand-in)
};

inline const char *
memKindName(MemKind k)
{
    switch (k) {
      case MemKind::DramLocal: return "DRAM-local";
      case MemKind::DramRemote: return "DRAM-remote";
      case MemKind::Cxl: return "CXL";
    }
    return "?";
}

/** Page sizes supported by the address-space allocator (Fig. 8). */
enum class PageSize : std::uint8_t
{
    Size4K,
    Size2M,
};

constexpr std::uint64_t
pageBytes(PageSize ps)
{
    return ps == PageSize::Size4K ? (1ull << 12) : (1ull << 21);
}

/**
 * Who is touching memory. Cache-occupancy accounting (pqos-style,
 * Fig. 12) and NUMA routing key off this.
 */
struct Agent
{
    enum class Kind : std::uint8_t { Core, Device };

    Kind kind = Kind::Core;
    /** Socket the agent lives on (routing to local/remote DRAM). */
    int socket = 0;
    /** Occupancy-monitoring id; unique per core / per device. */
    int ownerId = 0;

    static Agent
    core(int owner_id, int socket_id = 0)
    {
        return {Kind::Core, socket_id, owner_id};
    }

    static Agent
    device(int owner_id, int socket_id = 0)
    {
        return {Kind::Device, socket_id, owner_id};
    }
};

} // namespace dsasim

#endif // DSASIM_MEM_TYPES_HH
