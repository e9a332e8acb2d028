/**
 * @file
 * Per-PASID page table: virtual page -> physical page mappings at
 * either 4 KiB or 2 MiB granularity, with a present bit so tests can
 * exercise the device page-fault path (DSA block-on-fault semantics).
 *
 * Storage is one record per mapped region — a VA-linear,
 * PA-contiguous run of same-size pages, which is what one
 * AddressSpace::alloc() maps — in a sorted vector, plus the sorted
 * base VAs of the pages whose present bit is clear (empty unless a
 * page was evicted). Translation stays page-granular: a lookup
 * derives the page's base, PA and present bit from its region.
 * Lookups go through a two-entry region memo (copies alternate
 * between a source and a destination region) and, on a miss, one
 * branch-free binary search of the regions.
 */

#ifndef DSASIM_MEM_PAGE_TABLE_HH
#define DSASIM_MEM_PAGE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/types.hh"

namespace dsasim
{

class PageTable
{
  public:
    /** One page's translation, returned by value. */
    struct Mapping
    {
        Addr vaBase = 0;
        Addr paBase = 0;
        std::uint64_t size = 0;
        bool present = true;
    };

    /** Map one page of @p size bytes. */
    void map(Addr va_base, Addr pa_base, std::uint64_t size)
    {
        map(va_base, pa_base, size, size);
    }

    /**
     * Map [va_base, va_base + size) to the PAs from @p pa_base on, as
     * present pages of @p page_size bytes (a power of two dividing
     * @p size). Overlaps are a caller bug.
     */
    void map(Addr va_base, Addr pa_base, std::uint64_t size,
             std::uint64_t page_size);

    /**
     * Translate @p va to the page holding it. Returns nullopt if
     * unmapped. A page with present == false is returned as-is;
     * callers decide whether to fault or fail. Inline: this is the
     * innermost hop of every functional access.
     */
    std::optional<Mapping>
    lookup(Addr va) const
    {
        const Region *r = regionOf(va);
        if (!r)
            return std::nullopt;
        const Addr page = va - ((va - r->vaBase) & (r->pageSize - 1));
        return Mapping{page, r->paBase + (page - r->vaBase), r->pageSize,
                       isPresent(page)};
    }

    /** The part of one page a walk covers; see walk(). */
    struct PageRun
    {
        Addr va = 0;       ///< first VA of the run
        Addr pageVa = 0;   ///< base VA of the page holding it
        Addr pa = 0;       ///< PA of va
        std::uint64_t len = 0;
        bool present = true;
    };

    /**
     * Walk [va, va + len) page by page, in VA order: @p fn(const
     * PageRun &) gets each page's part of the range and returns false
     * to stop the walk. Returns the first unmapped VA the walk
     * reached (fn has seen every page before it), or nullopt when it
     * covered the range or fn stopped it. Each page is looked up
     * afresh, so fn may flip present bits.
     */
    template <typename Fn>
    std::optional<Addr>
    walk(Addr va, std::uint64_t len, Fn &&fn) const
    {
        while (len > 0) {
            const std::optional<Mapping> m = lookup(va);
            if (!m)
                return va;
            const std::uint64_t run =
                std::min(len, m->vaBase + m->size - va);
            if (!fn(PageRun{va, m->vaBase, m->paBase + (va - m->vaBase),
                            run, m->present}))
                return std::nullopt;
            va += run;
            len -= run;
        }
        return std::nullopt;
    }

    /** Functional VA->PA for a mapped, present address. */
    Addr translateOrDie(Addr va) const;

    /** Clear/restore the present bit of the page holding @p va. */
    void setPresent(Addr va, bool present);

    /** No mapped page has its present bit clear. */
    bool allPresent() const { return absent.empty(); }

    /** Number of mapped pages. */
    std::size_t mappingCount() const;

  private:
    static constexpr std::size_t noMemo = ~std::size_t{0};

    /**
     * Pages [vaBase, vaEnd) of pageSize bytes each, mapped to the PAs
     * from paBase on.
     */
    struct Region
    {
        Addr vaBase = 0;
        Addr vaEnd = 0;
        Addr paBase = 0;
        std::uint64_t pageSize = 0;
    };

    /** The region holding @p va, or nullptr; memo first. */
    const Region *
    regionOf(Addr va) const
    {
        // (va - vaBase) underflows to a huge value when va < vaBase,
        // so one comparison covers both bounds.
        auto holds = [&](std::size_t i) {
            return i < regions.size() &&
                   va - regions[i].vaBase <
                       regions[i].vaEnd - regions[i].vaBase;
        };
        if (holds(lastIdx))
            return &regions[lastIdx];
        if (!holds(prevIdx))
            return searchRegion(va);
        std::swap(lastIdx, prevIdx);
        return &regions[lastIdx];
    }

    /** Memo miss: binary-search the regions, then refresh the memo. */
    const Region *searchRegion(Addr va) const;

    bool
    isPresent(Addr page) const
    {
        return absent.empty() ||
               !std::binary_search(absent.begin(), absent.end(), page);
    }

    // Sorted by vaBase; regions never overlap.
    std::vector<Region> regions;
    // Sorted base VAs of the pages whose present bit is clear.
    std::vector<Addr> absent;
    // Two most recently used regions (noMemo when cold).
    mutable std::size_t lastIdx = noMemo;
    mutable std::size_t prevIdx = noMemo;
};

} // namespace dsasim

#endif // DSASIM_MEM_PAGE_TABLE_HH
