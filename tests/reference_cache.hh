/**
 * @file
 * ReferenceCache: a deliberately naive LLC/DDIO model, the oracle the
 * differential fuzz in test_cache_acct.cc checks CacheModel against
 * (DESIGN.md §13).
 *
 * It shares no code and no storage with CacheModel — only its Config
 * (the geometry) and its State (so the two can be compared). Every
 * way is a plain struct,
 * every lookup a linear scan of the set, every span op a per-line
 * loop over the scalar ops below, and invalidateAll() clears every
 * way. Nothing here is fast; everything here is meant to be read
 * against the documented rules:
 *
 *   - a line lives in set (pa / 64) % sets, tagged pa / 64;
 *   - a CPU access allocates in any way, a DDIO device write only in
 *     ways [0, ddioWays) (every way when ddioWays == 0), a device
 *     read never;
 *   - the victim is the highest free way of the allowed range, else
 *     the way with the smallest lastUse;
 *   - every touch or install takes the next value of one use clock,
 *     which stays internal: the state view records each present
 *     line's rank, the number of present lines of its set used
 *     before it;
 *   - occupancy belongs to the line's most recent CPU or DDIO-write
 *     toucher (device reads keep the owner).
 */

#ifndef DSASIM_TESTS_REFERENCE_CACHE_HH
#define DSASIM_TESTS_REFERENCE_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "mem/cache.hh"
#include "mem/types.hh"

namespace dsasim
{

class ReferenceCache
{
  public:
    struct Access
    {
        bool hit = false;
        bool evictedDirty = false;
        Addr evictedPa = 0;
    };

    explicit ReferenceCache(const CacheModel::Config &cfg)
        : ways(cfg.ways),
          allocWays(cfg.ddioWays > 0 ? cfg.ddioWays : cfg.ways),
          sets(cfg.sizeBytes / cacheLineSize / cfg.ways),
          lines(sets * ways)
    {
    }

    /// @name Scalar ops, one line each.
    /// @{
    Access
    cpuAccess(Addr pa, int owner, bool is_write)
    {
        return access(pa, owner, is_write, ways);
    }

    Access
    deviceRead(Addr pa)
    {
        Access a;
        if (Way *w = find(pa)) {
            a.hit = true;
            w->lastUse = ++useClock;
            hitBytes += cacheLineSize;
        } else {
            missBytes += cacheLineSize;
        }
        return a;
    }

    /** DDIO allocating write (the cache-control hint set). */
    Access
    deviceWrite(Addr pa, int owner)
    {
        return access(pa, owner, true, allocWays);
    }

    /** Drop the line; true when it was present and dirty. */
    bool
    flushLine(Addr pa)
    {
        Way *w = find(pa);
        if (!w)
            return false;
        const bool dirty = w->dirty;
        if (dirty)
            writebackBytes += cacheLineSize;
        drop(*w);
        return dirty;
    }

    void
    invalidate(Addr pa)
    {
        if (Way *w = find(pa))
            drop(*w);
    }

    bool probe(Addr pa) { return find(pa) != nullptr; }
    /// @}

    /** cpuAccess on every line covering [pa, pa+size), lowest first. */
    CacheModel::CpuSpanResult
    cpuAccessSpan(Addr pa, std::uint64_t size, int owner, bool is_write,
                  std::vector<Addr> &dirty_victims)
    {
        CacheModel::CpuSpanResult r;
        for (Addr a : linesOf(pa, size)) {
            const Access res = cpuAccess(a, owner, is_write);
            ++(res.hit ? r.hits : r.misses);
            if (res.evictedDirty)
                dirty_victims.push_back(res.evictedPa);
        }
        return r;
    }

    /// @name Span ops: the scalar op applied to every line covering
    /// [pa, pa+size), lowest address first.
    /// @{
    CacheModel::SpanResult
    probeSpan(Addr pa, std::uint64_t size)
    {
        CacheModel::SpanResult r;
        for (Addr a : linesOf(pa, size))
            (deviceRead(a).hit ? r.hitBytes : r.missBytes) +=
                cacheLineSize;
        return r;
    }

    CacheModel::SpanResult
    fillSpan(Addr pa, std::uint64_t size, int owner)
    {
        CacheModel::SpanResult r;
        for (Addr a : linesOf(pa, size)) {
            const Access res = deviceWrite(a, owner);
            (res.hit ? r.hitBytes : r.missBytes) += cacheLineSize;
            if (res.evictedDirty) {
                r.writebackBytes += cacheLineSize;
                r.lastEvictedPa = res.evictedPa;
            }
        }
        return r;
    }

    CacheModel::SpanResult
    evictSpan(Addr pa, std::uint64_t size)
    {
        for (Addr a : linesOf(pa, size))
            invalidate(a);
        return {};
    }

    CacheModel::SpanResult
    flushSpan(Addr pa, std::uint64_t size)
    {
        CacheModel::SpanResult r;
        for (Addr a : linesOf(pa, size)) {
            if (flushLine(a))
                r.writebackBytes += cacheLineSize;
        }
        return r;
    }
    /// @}

    /** Clear every way; the use clock and tallies carry on. */
    void
    invalidateAll()
    {
        for (Way &w : lines)
            w.valid = false;
        ownerLines.clear();
    }

    std::uint64_t
    occupancyBytes(int owner) const
    {
        auto it = ownerLines.find(owner);
        return it == ownerLines.end() ? 0 : it->second * cacheLineSize;
    }

    std::uint64_t
    totalOccupancyBytes() const
    {
        std::uint64_t n = 0;
        for (const auto &[owner, count] : ownerLines)
            n += count;
        return n * cacheLineSize;
    }

    /** Every valid way, in way-index order. */
    CacheModel::State
    saveState() const
    {
        CacheModel::State st;
        st.hitBytes = hitBytes;
        st.missBytes = missBytes;
        st.writebackBytes = writebackBytes;
        for (std::uint64_t i = 0; i < lines.size(); ++i) {
            const Way &w = lines[i];
            if (!w.valid)
                continue;
            const Way *set = &lines[i / ways * ways];
            std::uint64_t rank = 0;
            for (unsigned v = 0; v < ways; ++v)
                rank += set[v].valid && set[v].lastUse < w.lastUse;
            st.validLines.push_back({i, {w.tag, rank, w.owner, w.dirty}});
        }
        return st;
    }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        int owner = 0;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };

    static std::vector<Addr>
    linesOf(Addr pa, std::uint64_t size)
    {
        std::vector<Addr> out;
        if (size == 0)
            return out;
        for (Addr a = pa / cacheLineSize * cacheLineSize; a < pa + size;
             a += cacheLineSize)
            out.push_back(a);
        return out;
    }

    Way *
    setBase(Addr pa)
    {
        return &lines[pa / cacheLineSize % sets * ways];
    }

    Way *
    find(Addr pa)
    {
        Way *set = setBase(pa);
        for (unsigned w = 0; w < ways; ++w) {
            if (set[w].valid && set[w].tag == pa / cacheLineSize)
                return &set[w];
        }
        return nullptr;
    }

    void
    drop(Way &w)
    {
        w.valid = false;
        --ownerLines[w.owner];
    }

    /** A hit or an install into ways [0, hi) of the line's set. */
    Access
    access(Addr pa, int owner, bool dirty, unsigned hi)
    {
        Access a;
        if (Way *w = find(pa)) {
            a.hit = true;
            hitBytes += cacheLineSize;
            w->lastUse = ++useClock;
            w->dirty = w->dirty || dirty;
            --ownerLines[w->owner];
            ++ownerLines[owner];
            w->owner = owner;
            return a;
        }
        missBytes += cacheLineSize;
        Way *set = setBase(pa);
        Way *victim = nullptr;
        for (unsigned w = hi; w-- > 0 && !victim;) {
            if (!set[w].valid)
                victim = &set[w];
        }
        if (!victim) {
            victim = &set[0];
            for (unsigned w = 1; w < hi; ++w) {
                if (set[w].lastUse < victim->lastUse)
                    victim = &set[w];
            }
            a.evictedDirty = victim->dirty;
            a.evictedPa = victim->tag * cacheLineSize;
            if (victim->dirty)
                writebackBytes += cacheLineSize;
            drop(*victim);
        }
        *victim = {true, dirty, owner, pa / cacheLineSize, ++useClock};
        ++ownerLines[owner];
        return a;
    }

    unsigned ways;
    unsigned allocWays;
    std::uint64_t sets;
    std::vector<Way> lines; // sets * ways, row-major by set
    std::map<int, std::uint64_t> ownerLines;
    std::uint64_t useClock = 0;
    std::uint64_t hitBytes = 0;
    std::uint64_t missBytes = 0;
    std::uint64_t writebackBytes = 0;
};

} // namespace dsasim

#endif // DSASIM_TESTS_REFERENCE_CACHE_HH
