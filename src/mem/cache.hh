/**
 * @file
 * Shared last-level cache model with a DDIO way partition.
 *
 * A set-associative directory (tags only — data lives in the
 * PhysicalMemory backing store) with per-owner occupancy accounting,
 * mirroring what Intel's pqos/CMT exposes and what the paper uses for
 * its Fig. 12 occupancy plots.
 *
 * The DDIO mechanism is modeled the way the paper describes it
 * (§4.5, §6.2): CPU demand fills may allocate in any way; I/O-device
 * writes with the cache-control hint set may only allocate within the
 * first `ddioWays` ways of each set, and device reads never allocate.
 * This single rule produces both the cache-pollution immunity
 * (Fig. 12/13) and the "leaky DMA" throughput cliff (Fig. 10).
 *
 * Device-side traffic uses the span API (probeSpan / fillSpan /
 * evictSpan / flushSpan): one call covers every line a physically
 * contiguous run touches, in ascending address order, and returns
 * aggregate byte counts, so the engine timing walk charges per chunk
 * instead of per line. CPU kernels walk a page run with one
 * cpuAccessSpan call, which returns hit/miss counts and the dirty
 * victims in line order; random CPU accesses use cpuAccess. The
 * test-only ReferenceCache (tests/reference_cache.hh) is an
 * independent, naive implementation of the same rules; a
 * differential fuzz pins this model against it state for state
 * (DESIGN.md §13).
 */

#ifndef DSASIM_MEM_CACHE_HH
#define DSASIM_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/host_map.hh"
#include "mem/types.hh"

namespace dsasim
{

class CacheModel
{
  public:
    struct Config
    {
        std::uint64_t sizeBytes = 105ull << 20; ///< SPR: 105 MB LLC
        unsigned ways = 15;
        unsigned ddioWays = 2;
    };

    struct AccessResult
    {
        bool hit = false;
        /**
         * The evicted victim was dirty: the caller owes a writeback
         * to memory (the "leaky DMA" traffic of Fig. 10).
         */
        bool evictedDirty = false;
        /** PA of the dirty victim line (valid when evictedDirty). */
        Addr evictedPa = 0;
    };

    /**
     * Aggregate outcome of a span operation over the lines covering
     * [pa, pa+size).
     */
    struct SpanResult
    {
        std::uint64_t hitBytes = 0;
        std::uint64_t missBytes = 0;
        /** Dirty-victim (fillSpan) or dirty-flushed (flushSpan)
         *  bytes owed to memory. */
        std::uint64_t writebackBytes = 0;
        /** PA of the last dirty victim (fillSpan, writebackBytes>0):
         *  the node the engine charges the aggregate writeback to. */
        Addr lastEvictedPa = 0;
    };

    explicit CacheModel(const Config &cfg);

    /**
     * The 8-bit fingerprint a set header keeps of @p tag: the top
     * byte of a multiplicative hash of the full tag. Public so tests
     * can build colliding tags.
     */
    static std::uint64_t
    tagFingerprint(std::uint64_t tag)
    {
        const std::uint64_t fp = tag * 0x9e3779b97f4a7c15ull >> 56;
        return fp == 0xff ? 0xfe : fp; // 0xff marks an absent way
    }

    unsigned numWays() const { return config.ways; }
    unsigned numSets() const { return sets; }
    std::uint64_t sizeBytes() const { return config.sizeBytes; }

    /**
     * CPU load/store. Allocates on miss (any way). @p owner feeds the
     * occupancy accounting; stores mark the line dirty.
     */
    AccessResult cpuAccess(Addr pa, int owner, bool is_write = false);

    /** Outcome counts of a cpuAccessSpan. */
    struct CpuSpanResult
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    /**
     * cpuAccess applied to every line overlapping [pa, pa+size), in
     * ascending address order (a zero size touches nothing). The PA
     * of each dirty victim is appended to @p dirty_victims in line
     * order; the state and tallies are those of the per-line loop.
     */
    CpuSpanResult cpuAccessSpan(Addr pa, std::uint64_t size, int owner,
                                bool is_write,
                                std::vector<Addr> &dirty_victims);

    /// @name Span operations (device-side streaming, DESIGN.md §13).
    /// Each visits every line overlapping [pa, pa+size) once, in
    /// ascending address order; a zero size touches nothing.
    /// @{

    /**
     * Device read: each present line is a hit and is LRU-touched
     * (owner kept); absent lines are misses and never allocate.
     */
    SpanResult probeSpan(Addr pa, std::uint64_t size);

    /**
     * DDIO allocating write (cache-control flag = 1): a present line
     * is LRU-touched, marked dirty and moves to @p owner; an absent
     * line installs dirty within the first `ddioWays` ways of its set
     * (any way when ddioWays == 0). Dirty victims are reported in
     * writebackBytes / lastEvictedPa.
     */
    SpanResult fillSpan(Addr pa, std::uint64_t size, int owner);

    /**
     * Non-allocating device write: invalidates any present copies.
     * Dropped dirty copies are not reported — the device write
     * itself updates memory.
     */
    SpanResult evictSpan(Addr pa, std::uint64_t size);

    /** clflush: drops present lines, dirty bytes in writebackBytes. */
    SpanResult flushSpan(Addr pa, std::uint64_t size);
    /// @}

    /** True if the line holding @p pa is present (no state change). */
    bool probe(Addr pa) const;

    /** Invalidate the line holding @p pa, if present. */
    void invalidate(Addr pa);

    /** Drop every valid line (test scaffolding between iterations). */
    void invalidateAll();

    /** Bytes currently occupied by lines allocated by @p owner. */
    std::uint64_t
    occupancyBytes(int owner) const
    {
        const auto o = static_cast<std::size_t>(owner);
        return owner >= 0 && o < ownerLines.size()
            ? ownerLines[o] * cacheLineSize
            : 0;
    }

    /** Bytes currently valid across all owners. */
    std::uint64_t
    totalOccupancyBytes() const
    {
        return validLines * cacheLineSize;
    }

    /** Capacity of the DDIO partition in bytes. */
    std::uint64_t
    ddioCapacityBytes() const
    {
        return static_cast<std::uint64_t>(sets) * config.ddioWays *
               cacheLineSize;
    }

    /// @name Cumulative traffic tallies (telemetry, DESIGN.md §15).
    /// cpuAccess, probeSpan and fillSpan count hit and miss bytes;
    /// dirty victims and dirty flushed lines count writeback bytes.
    /// MemSystem exposes these as llc.* registry counters.
    /// @{
    std::uint64_t hitBytesTotal() const { return hitBytesTally; }
    std::uint64_t missBytesTotal() const { return missBytesTally; }
    std::uint64_t
    writebackBytesTotal() const
    {
        return writebackBytesTally;
    }
    /// @}

    /**
     * A present line as saveState() reports it. rank is its LRU
     * position among its set's present lines, 0 being the least
     * recently used.
     */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t rank = 0;
        int owner = 0;
        bool dirty = false;
    };

    /**
     * Read-only view of the full state, which the reference-model
     * tests compare: the present lines, stored sparsely as (way
     * index, line) pairs in ascending way order — O(occupied), not
     * O(capacity) — and the byte tallies.
     */
    struct State
    {
        std::vector<std::pair<std::uint64_t, Line>> validLines;
        std::uint64_t hitBytes = 0;
        std::uint64_t missBytes = 0;
        std::uint64_t writebackBytes = 0;
    };

    State saveState() const;

  private:
    /**
     * One directory way, one word: `tag | owner << 47 | dirty << 63`.
     * It holds no LRU state (the set header's order word is the only
     * LRU truth), so a hit writes it only to set the dirty bit or move
     * the owner. The storage is never zeroed: a way is read only while
     * its presence-mask bit is set, and installWay() writes it before
     * setting the bit. This cold array is read only to confirm a
     * fingerprint match, to evict a victim and by saveState().
     */
    struct Way
    {
        std::uint64_t bits;
    };
    static_assert(sizeof(Way) == 8);

    /**
     * The hot half of a set, 32 bytes (two per host cache line):
     *   - fp: byte w is way w's 8-bit tag fingerprint, or 0xff
     *     (which no tag maps to) while the way is absent. It only
     *     filters; every match is confirmed against the full tag;
     *   - order: a permutation of the 16 way indices, nibble i being
     *     the way at LRU position i (0 = least recent): the only LRU
     *     truth. Present ways appear in the order they were last
     *     touched; an absent way's nibble is wherever it was dropped,
     *     and moves to the MRU end when the way is installed again;
     *   - mask: presence, bit w set <=> way w holds a line — the only
     *     presence truth.
     * A header is valid only while its set's bit in `live` is set;
     * the storage is never zeroed, and a set comes alive empty on its
     * first install.
     */
    struct alignas(32) SetHeader
    {
        std::uint64_t fp[2];
        std::uint64_t order;
        std::uint64_t mask;
    };

    /** How far ahead of the current set a walk prefetches. */
    static constexpr std::size_t kLookahead = 16;

    static constexpr unsigned kTagBits = 47;
    static constexpr std::uint64_t kTagMask = (1ull << kTagBits) - 1;
    static constexpr unsigned kOwnerBits = 16;
    static constexpr std::uint64_t kOwnerMask = (1ull << kOwnerBits) - 1;
    static constexpr std::uint64_t kDirtyBit = 1ull << 63;
    /** findWay() result when the tag is not present. */
    static constexpr unsigned kNoWay = ~0u;

    bool
    isLive(std::size_t set) const
    {
        return live[set >> 6] >> (set & 63) & 1;
    }

    /** The set's header, brought to life empty if it was not live. */
    SetHeader &liveHeader(std::size_t set);

    /**
     * Host-only, no simulated effect: the first time every set is
     * live, move both arrays onto 2 MiB pages (DESIGN.md §13). Every
     * 4 KiB page of them is resident by then, so this adds no RSS.
     */
    void collapseDirectory();

    Way &
    wayAt(std::size_t set, unsigned way)
    {
        return dir[set * config.ways + way];
    }

    static std::uint64_t wayTag(const Way &w) { return w.bits & kTagMask; }

    static bool wayDirty(const Way &w) { return w.bits & kDirtyBit; }

    static int
    wayOwner(const Way &w)
    {
        return static_cast<int>(w.bits >> kTagBits & kOwnerMask);
    }

    /** A way holding @p tag for @p owner; the tag is checked to pack. */
    static Way packWay(std::uint64_t tag, int owner, bool dirty);

    /** LRU-touch a present way: promote it in its set's order word. */
    void touchWay(std::size_t set, unsigned way);

    /** The present way of live set @p set holding @p tag, else kNoWay. */
    unsigned findIn(const SetHeader &h, std::size_t set,
                    std::uint64_t tag) const;
    /** As findIn, for any set. */
    unsigned
    findWay(std::size_t set, std::uint64_t tag) const
    {
        return isLive(set) ? findIn(heads[set], set, tag) : kNoWay;
    }
    /** Pick the way in [way_lo, way_hi) of a live set to install into. */
    static unsigned victimInSet(const SetHeader &h, unsigned way_lo,
                                unsigned way_hi);
    /** Install @p tag into @p way of live set @p set, reporting a
     *  dirty victim. */
    void installWay(SetHeader &h, std::size_t set, unsigned way,
                    std::uint64_t tag, int owner, bool dirty,
                    AccessResult &result);
    void dropWay(std::size_t set, unsigned way);
    /** Move a hit way's occupancy to its most recent toucher. */
    void retagOwner(std::size_t set, unsigned way, int owner);
    /**
     * A hit, or an install into ways [0, @p way_hi) of @p set, of the
     * line @p tag, with its tallies: cpuAccess and one line of
     * fillSpan.
     */
    AccessResult accessLine(std::size_t set, std::uint64_t tag, int owner,
                            bool is_write, unsigned way_hi);

    /**
     * Host-only hint, no simulated effect: start loading the header
     * and the way row of @p set.
     */
    void prefetchSet(std::size_t set) const;

    /**
     * Visit each line of [pa, pa+size) as fn(set, tag), lowest
     * address first, prefetching the set kLookahead ahead when it is
     * live (installing into a set that is not reads nothing).
     */
    template <class Fn> void walk(Addr pa, std::uint64_t size, Fn &&fn);

    /**
     * Visit the lines of [pa, pa+size) whose set is live as
     * fn(header, set, tag), lowest address first, and return how many
     * lines were skipped. For ops that never change which sets are
     * live: a line of a set that is not live is absent, so probing,
     * evicting or flushing it changes nothing, and 64 such sets cost
     * one bitset word.
     */
    template <class Fn>
    std::uint64_t walkLive(Addr pa, std::uint64_t size, Fn &&fn);

    /**
     * @p owner's line count. Inline, with the growth out of line:
     * every install and every owner change bumps one.
     */
    std::uint64_t &
    ownerCount(int owner)
    {
        // A negative owner converts to a huge index and grows, which
        // is fatal there.
        const auto o = static_cast<std::size_t>(owner);
        if (o >= ownerLines.size())
            growOwners(owner);
        return ownerLines[o];
    }

    /** Size ownerLines for @p owner; fatal outside the way field. */
    void growOwners(int owner);
    void uncountOwner(int owner);

    std::size_t
    setIndex(Addr pa) const
    {
        return static_cast<std::size_t>((pa >> 6) % sets);
    }
    std::uint64_t tagOf(Addr pa) const { return pa >> 6; }

    Config config;
    unsigned sets;
    HostArray<SetHeader> heads;            // one per set, never written
    HostArray<Way> dir;                    // sets * ways, row-major by set
    std::vector<std::uint64_t> live;       // bit s: heads[s] is valid
    std::size_t liveSets = 0;              // set bits in `live`
    bool collapsed = false;                // collapseDirectory() has run
    std::vector<std::uint64_t> ownerLines; // present lines by owner
    std::uint64_t validLines = 0;
    std::uint64_t hitBytesTally = 0;
    std::uint64_t missBytesTally = 0;
    std::uint64_t writebackBytesTally = 0;
};

} // namespace dsasim

#endif // DSASIM_MEM_CACHE_HH
