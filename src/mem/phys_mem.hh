/**
 * @file
 * Sparse physical backing store.
 *
 * Every simulated memory node owns one PhysicalMemory. Storage is
 * materialized lazily in 2 MiB chunks so that multi-GB simulated
 * capacities cost only what the workload actually touches. Each chunk
 * is its own 2 MiB-aligned anonymous mapping, advised for a huge page
 * (MADV_HUGEPAGE, 4 KiB pages where the host declines): it arrives
 * zero-filled from the kernel, with no memset, takes one page fault
 * instead of 512, and is unmapped when its last reference goes, so
 * repeated set-ups never depend on how the malloc heap was left. All
 * data operations in dsasim are *functional* — a simulated copy really
 * moves these bytes — so tests can verify end-to-end data integrity.
 *
 * Chunks are copy-on-write (DESIGN.md §10): a snapshot captures the
 * store by sharing every chunk reference (O(resident) pointer
 * copies, zero data copies), and the first write to a shared chunk —
 * by the live platform or by any fork — clones just that 2 MiB. A
 * platform that never snapshots owns every chunk exclusively and
 * never pays a clone.
 *
 * A two-entry chunk-pointer cache makes repeated accesses to the
 * same 2 MiB chunk O(1): streaming workloads touch one chunk for
 * hundreds of pages before moving on, and copies alternate between
 * a source and a destination chunk. The cache only ever holds
 * *exclusively owned* chunks — a cached pointer is handed out
 * writable by the hostSpan fast path, which must never bypass the
 * copy-on-write check — and it is dropped whenever chunks become
 * shared (saveState/restoreState). Exclusive chunk storage is never
 * freed or moved, so cached (and handed-out) pointers stay valid
 * until the next snapshot operation.
 */

#ifndef DSASIM_MEM_PHYS_MEM_HH
#define DSASIM_MEM_PHYS_MEM_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

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

    /** Chunks shared with a snapshot (not yet cloned by a write).
     * Telemetry only; the sum is iteration-order independent. */
    std::uint64_t
    sharedChunks() const
    {
        std::uint64_t n = 0;
        // simlint:allow(unordered-iter)
        for (const auto &kv : chunks)
            n += kv.second.use_count() > 1;
        return n;
    }

    /** Copy @p len bytes at offset @p pa into @p dst. */
    void read(Addr pa, void *dst, std::uint64_t len) const;

    /** Copy @p len bytes from @p src to offset @p pa. */
    void write(Addr pa, const void *src, std::uint64_t len);

    /** Fill [pa, pa+len) with byte @p value. */
    void fill(Addr pa, std::uint8_t value, std::uint64_t len);

    /**
     * Direct host pointer to [pa, pa+len). Only valid while the
     * PhysicalMemory lives, only until the next saveState/
     * restoreState, and only when the range does not cross a chunk
     * boundary; callers that operate page-at-a-time (pages never
     * straddle chunks) rely on this fast path. Materializes the
     * chunk on first touch and clones it if a snapshot still shares
     * it. Defined inline so the cache-hit path compiles down to a
     * couple of compares — it sits under every functional byte
     * moved.
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

    /**
     * Checkpointable (sim/checkpoint.hh): the chunk map, by
     * reference. Capture shares every chunk (refcounts are atomic,
     * so concurrent forks from one snapshot are safe) and drops the
     * source's pointer cache so its next write takes the
     * copy-on-write path instead of mutating a now-shared chunk.
     */
    struct State
    {
        std::uint64_t capacity = 0;
        std::unordered_map<std::uint64_t,
                           std::shared_ptr<std::uint8_t[]>>
            chunks;
    };

    State saveState() const;
    void restoreState(const State &st);

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

    /** Install @p idx as the MRU cache entry. Only exclusively
     * owned chunks may ever be cached (see file header). */
    void
    cacheInsert(std::uint64_t idx, std::uint8_t *chunk) const
    {
        cachedIdx2 = cachedIdx;
        cachedChunk2 = cachedChunk;
        cachedIdx = idx;
        cachedChunk = chunk;
    }

    void
    cacheDrop() const
    {
        cachedIdx = ~std::uint64_t{0};
        cachedChunk = nullptr;
        cachedIdx2 = ~std::uint64_t{0};
        cachedChunk2 = nullptr;
    }

    std::uint64_t capacity;
    std::unordered_map<std::uint64_t, std::shared_ptr<std::uint8_t[]>>
        chunks;
    // Two-entry cache of recently looked-up exclusively-owned chunks
    // (copies alternate source/destination). Exclusive chunk arrays
    // are stable, so the pointers never dangle; shared chunks are
    // never cached, so the hostSpan fast path cannot skip a
    // copy-on-write clone.
    mutable std::uint64_t cachedIdx = ~std::uint64_t{0};
    mutable std::uint8_t *cachedChunk = nullptr;
    mutable std::uint64_t cachedIdx2 = ~std::uint64_t{0};
    mutable std::uint8_t *cachedChunk2 = nullptr;
};

} // namespace dsasim

#endif // DSASIM_MEM_PHYS_MEM_HH
