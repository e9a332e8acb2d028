/**
 * @file
 * Sparse physical backing store.
 *
 * Every simulated memory node owns one PhysicalMemory. Storage is
 * materialized lazily in 2 MiB chunks so that multi-GB simulated
 * capacities cost only what the workload actually touches. Each chunk
 * is its own 2 MiB-aligned anonymous mapping (mem/host_map.hh),
 * advised for a huge page (MADV_HUGEPAGE, 4 KiB pages where the host
 * declines): it arrives zero-filled from the kernel, with no memset,
 * takes one page fault instead of 512, and is unmapped with its
 * PhysicalMemory, so repeated set-ups never depend on how the malloc
 * heap was left. All
 * data operations in dsasim are *functional* — a simulated copy really
 * moves these bytes — so tests can verify end-to-end data integrity.
 *
 * A two-entry chunk-pointer cache makes repeated accesses to the
 * same 2 MiB chunk O(1): streaming workloads touch one chunk for
 * hundreds of pages before moving on, and copies alternate between
 * a source and a destination chunk. Chunk storage is never freed or
 * moved while the PhysicalMemory lives, so cached (and handed-out)
 * pointers stay valid (DESIGN.md §10).
 */

#ifndef DSASIM_MEM_PHYS_MEM_HH
#define DSASIM_MEM_PHYS_MEM_HH

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "mem/host_map.hh"
#include "mem/types.hh"
#include "sim/logging.hh"

namespace dsasim
{

class PhysicalMemory
{
  public:
    static constexpr std::uint64_t chunkShift = 21; // 2 MiB
    static constexpr std::uint64_t chunkSize = 1ull << chunkShift;
    static constexpr std::uint64_t chunkMask = chunkSize - 1;

    explicit PhysicalMemory(std::uint64_t capacity_bytes)
        : capacity(capacity_bytes)
    {}

    std::uint64_t capacityBytes() const { return capacity; }

    /** Bytes of host memory actually materialized. */
    std::uint64_t
    residentBytes() const
    {
        return chunks.size() * chunkSize;
    }

    /** Copy @p len bytes at offset @p pa into @p dst. */
    void read(Addr pa, void *dst, std::uint64_t len) const;

    /** Copy @p len bytes from @p src to offset @p pa. */
    void write(Addr pa, const void *src, std::uint64_t len);

    /** Fill [pa, pa+len) with byte @p value. */
    void fill(Addr pa, std::uint8_t value, std::uint64_t len);

    /**
     * Direct host pointer to [pa, pa+len). Only valid while the
     * PhysicalMemory lives, and only when the range does not cross a
     * chunk boundary; callers that operate page-at-a-time (pages
     * never straddle chunks) rely on this fast path. Materializes
     * the chunk on first touch. Defined inline so the cache-hit path
     * compiles down to a couple of compares — it sits under every
     * functional byte moved.
     */
    std::uint8_t *
    hostSpan(Addr pa, std::uint64_t len)
    {
        std::uint64_t off = pa & chunkMask;
        panic_if(off + len > chunkSize,
                 "hostSpan crosses a chunk boundary "
                 "(pa=0x%llx len=%llu)",
                 static_cast<unsigned long long>(pa),
                 static_cast<unsigned long long>(len));
        if (std::uint8_t *c = cachedFor(pa >> chunkShift);
            c && pa < capacity)
            return c + off;
        return chunkFor(pa) + off;
    }

    const std::uint8_t *
    hostSpan(Addr pa, std::uint64_t len) const
    {
        std::uint64_t off = pa & chunkMask;
        panic_if(off + len > chunkSize,
                 "hostSpan crosses a chunk boundary "
                 "(pa=0x%llx len=%llu)",
                 static_cast<unsigned long long>(pa),
                 static_cast<unsigned long long>(len));
        if (const std::uint8_t *hit = cachedFor(pa >> chunkShift);
            hit && pa < capacity)
            return hit + off;
        const std::uint8_t *c = chunkForConst(pa);
        panic_if(!c, "const hostSpan of untouched memory (pa=0x%llx)",
                 static_cast<unsigned long long>(pa));
        return c + off;
    }

    /**
     * Like hostSpan, but returns nullptr when the chunk has never
     * been touched (the range reads as zeroes) instead of
     * materializing or panicking. The read-only span path uses this
     * so that scanning a sparse buffer stays sparse.
     */
    const std::uint8_t *
    hostSpanIfResident(Addr pa, std::uint64_t len) const
    {
        std::uint64_t off = pa & chunkMask;
        panic_if(off + len > chunkSize,
                 "hostSpan crosses a chunk boundary "
                 "(pa=0x%llx len=%llu)",
                 static_cast<unsigned long long>(pa),
                 static_cast<unsigned long long>(len));
        if (const std::uint8_t *hit = cachedFor(pa >> chunkShift);
            hit && pa < capacity)
            return hit + off;
        const std::uint8_t *c = chunkForConst(pa);
        return c ? c + off : nullptr;
    }

  private:
    std::uint8_t *chunkFor(Addr pa);
    const std::uint8_t *chunkForConst(Addr pa) const;

    /** MRU-first probe of the two cached chunk entries. */
    std::uint8_t *
    cachedFor(std::uint64_t idx) const
    {
        if (idx == cachedIdx)
            return cachedChunk;
        if (idx == cachedIdx2) {
            std::swap(cachedIdx, cachedIdx2);
            std::swap(cachedChunk, cachedChunk2);
            return cachedChunk;
        }
        return nullptr;
    }

    /** Install @p idx as the MRU cache entry. */
    void
    cacheInsert(std::uint64_t idx, std::uint8_t *chunk) const
    {
        cachedIdx2 = cachedIdx;
        cachedChunk2 = cachedChunk;
        cachedIdx = idx;
        cachedChunk = chunk;
    }

    using Chunk = HostArray<std::uint8_t>;

    std::uint64_t capacity;
    std::unordered_map<std::uint64_t, Chunk> chunks;
    // Two-entry cache of recently looked-up chunks (copies alternate
    // source/destination). Chunk arrays are stable, so the pointers
    // never dangle.
    mutable std::uint64_t cachedIdx = ~std::uint64_t{0};
    mutable std::uint8_t *cachedChunk = nullptr;
    mutable std::uint64_t cachedIdx2 = ~std::uint64_t{0};
    mutable std::uint8_t *cachedChunk2 = nullptr;
};

} // namespace dsasim

#endif // DSASIM_MEM_PHYS_MEM_HH
