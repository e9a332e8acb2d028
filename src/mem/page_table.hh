/**
 * @file
 * Per-PASID page table: virtual page -> physical page mappings at
 * either 4 KiB or 2 MiB granularity, with a present bit so tests can
 * exercise the device page-fault path (DSA block-on-fault semantics).
 *
 * Storage is a sorted vector of non-overlapping mappings, fronted by
 * a two-entry last-mapping cache (copies alternate between a source
 * and a destination mapping) with sequential-next probes (streams
 * walk pages in order): the functional data path translates every
 * page it touches, and nearly all of those lookups resolve in a
 * couple of compares. A miss (a random probe) searches the run
 * index instead of the table: the maximal runs of same-size,
 * VA-adjacent mappings, one per allocation region, so the mapping
 * is one short search plus one divide away. find() returns a pointer
 * into the table so the present bit is always read fresh; the
 * pointer (and the cache) is invalidated by the next map() call.
 */

#ifndef DSASIM_MEM_PAGE_TABLE_HH
#define DSASIM_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/types.hh"

namespace dsasim
{

class PageTable
{
  public:
    struct Mapping
    {
        Addr vaBase = 0;
        Addr paBase = 0;
        std::uint64_t size = 0;
        bool present = true;
    };

    /** Install a page mapping. Overlaps are a caller bug. */
    void map(Addr va_base, Addr pa_base, std::uint64_t size);

    /**
     * O(1)-amortized translation fast path. Returns the mapping
     * holding @p va or nullptr if unmapped; a mapping with
     * present == false is returned as-is. The pointer stays valid
     * until the next map() call (setPresent mutates in place and
     * does not invalidate it). Inline: this is the innermost hop of
     * every functional access.
     */
    const Mapping *
    find(Addr va) const
    {
        const Mapping *t = table.data();
        const std::size_t n = table.size();
        // (va - vaBase) underflows to a huge value when va < vaBase,
        // so one comparison covers both bounds. noCache + 1 wraps to
        // index 0 — a harmless extra probe while cold.
        auto probe = [&](std::size_t i) {
            return i < n && va - t[i].vaBase < t[i].size;
        };
        if (probe(lastIdx))
            return &t[lastIdx];
        std::size_t hit;
        if (probe(lastIdx + 1))
            hit = lastIdx + 1;
        else if (probe(prevIdx))
            hit = prevIdx;
        else if (probe(prevIdx + 1))
            hit = prevIdx + 1;
        else
            return findSlow(va);
        prevIdx = lastIdx;
        lastIdx = hit;
        return &t[hit];
    }

    /**
     * Translate @p va. Returns nullopt if unmapped. A mapping with
     * present == false is returned as-is; callers decide whether to
     * fault or fail.
     */
    std::optional<Mapping>
    lookup(Addr va) const
    {
        const Mapping *m = find(va);
        if (!m)
            return std::nullopt;
        return *m;
    }

    /** Functional VA->PA for a mapped, present address. */
    Addr translateOrDie(Addr va) const;

    /** Clear/restore the present bit of the page holding @p va. */
    void setPresent(Addr va, bool present);

    std::size_t mappingCount() const { return table.size(); }

    /**
     * Checkpointable (sim/checkpoint.hh): the full mapping table,
     * present bits included (an evicted page stays evicted across a
     * fork). The MRU probe indices are a pure lookup accelerator and
     * restore cold — they cannot affect timing or results.
     */
    struct State
    {
        std::vector<Mapping> table;
    };

    State saveState() const { return State{table}; }

    void
    restoreState(const State &st)
    {
        table = st.table;
        lastIdx = noCache;
        prevIdx = noCache;
        rebuildRuns();
    }

  private:
    static constexpr std::size_t noCache = ~std::size_t{0};

    /**
     * Mappings table[first, first + (vaEnd - vaBase) / pageSize), each
     * pageSize bytes and each starting where the previous one ends.
     */
    struct Run
    {
        Addr vaBase = 0;
        Addr vaEnd = 0;
        std::uint64_t pageSize = 0;
        std::size_t first = 0;
    };

    /** Cache-miss path: search the runs, then refresh the cache. */
    const Mapping *findSlow(Addr va) const;

    /** Add table[idx], the last mapping so far, to the runs. */
    void extendRuns(std::size_t idx);
    /** Recompute every run from the table. */
    void rebuildRuns();

    // Sorted by vaBase; mappings never overlap.
    std::vector<Mapping> table;
    // Maximal runs covering the table in order; kept current by
    // map() and restoreState(), never by a lookup.
    std::vector<Run> runs;
    // Two most recently found mappings (noCache when cold).
    mutable std::size_t lastIdx = noCache;
    mutable std::size_t prevIdx = noCache;
};

} // namespace dsasim

#endif // DSASIM_MEM_PAGE_TABLE_HH
