/**
 * @file
 * The data plane: what each operation reads, writes and computes.
 *
 * The DSA engine and the CPU kernels run every operation through
 * these functions, so both paths move the same bytes and report the
 * same completion metadata by construction. Each path adds only its
 * own timing model: the engine streams the ranges chunk by chunk
 * through the ATC/IOMMU and the I/O fabric, the CPU walks them
 * through its TLB and the LLC.
 */

#ifndef DSASIM_OPS_DATA_PLANE_HH
#define DSASIM_OPS_DATA_PLANE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "ops/opcodes.hh"

namespace dsasim
{

class AddressSpace;

/**
 * Operand rules common to both paths: an 8- or 16-byte pattern,
 * 8-byte-multiple delta inputs within the record's 16-bit offset
 * reach, whole delta entries, and whole blocks of a valid DIF block
 * size. The device adds its maxTransferSize.
 */
bool opArgsValid(const OpArgs &a);

/** One address range an operation reads or writes. */
struct OpStream
{
    Addr va = 0;
    std::uint64_t len = 0;
    bool write = false;
};

/** An operation's streams, in the order both paths visit them. */
class OpStreams
{
  public:
    /** The most streams an operation has (Dualcast's three). */
    static constexpr std::size_t capacity = 3;

    void push_back(const OpStream &s) { v[n++] = s; }
    OpStream &operator[](std::size_t i) { return v[i]; }
    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }
    OpStream *begin() { return v.data(); }
    OpStream *end() { return v.data() + n; }
    const OpStream *begin() const { return v.data(); }
    const OpStream *end() const { return v.data() + n; }

  private:
    std::array<OpStream, capacity> v{};
    std::size_t n = 0;
};

/**
 * The ranges a valid operation touches before it runs. A created
 * delta record is data dependent and joins in settleStreams().
 */
OpStreams streamsOf(const OpArgs &a);

/** Bytes one DIF block occupies in the source and the destination. */
struct DifUnits
{
    std::uint64_t in = 0;
    std::uint64_t out = 0;
};
DifUnits difUnits(const OpArgs &a);

/** Grow-only staging buffers, reused across operations. */
struct OpScratch
{
    std::vector<std::uint8_t> a;
    std::vector<std::uint8_t> b;
};

/**
 * Run a valid operation on @p eff_size bytes of its data (the whole
 * size, or the prefix a page fault left reachable; @p partial says
 * which). Works zero-copy on the spans backing each range. Aliased
 * ranges, whose result depends on copy order, and ranges that are
 * not host-contiguous go through @p scratch. On a partial delta
 * apply, entries past the prefix are skipped, not malformed.
 */
OpOutcome runOp(AddressSpace &as, const OpArgs &a,
                std::uint64_t eff_size, bool partial,
                OpScratch &scratch);

/**
 * Fit @p streams to what runOp() did: a created delta record is
 * written out (at least one byte), and a compare mismatch stops
 * reading at the end of the @p granule that holds it.
 */
void settleStreams(OpStreams &streams, const OpArgs &a,
                   const OpOutcome &out, std::uint64_t granule);

} // namespace dsasim

#endif // DSASIM_OPS_DATA_PLANE_HH
