#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace dsasim
{

namespace
{

constexpr std::uint64_t kNibbleLow = 0x1111111111111111ull;
constexpr std::uint64_t kByteLow = 0x0101010101010101ull;
constexpr std::uint64_t kByteLow7 = 0x7f7f7f7f7f7f7f7full;

/** Prefetch stride: a host cache line, not a simulated one. */
constexpr std::size_t kHostLine = 64;

/** The order word of a set that just came alive: way i at position i. */
constexpr std::uint64_t kIdentityOrder = 0xfedcba9876543210ull;

/** The fingerprint byte of a way that holds no line. */
constexpr std::uint64_t kNoFingerprint = 0xff;

/** Store @p fp as byte @p way of @p fps. */
void
setFingerprint(std::uint64_t (&fps)[2], unsigned way, std::uint64_t fp)
{
    const unsigned shift = (way & 7) * 8;
    std::uint64_t &word = fps[way >> 3];
    word = (word & ~(0xffull << shift)) | fp << shift;
}

/**
 * Bit 8k + 7 set where byte k of @p word equals every byte of
 * @p splat: exact, since no carry crosses a byte.
 */
std::uint64_t
matchBytes(std::uint64_t word, std::uint64_t splat)
{
    const std::uint64_t x = word ^ splat;
    return ~(((x & kByteLow7) + kByteLow7) | x) & ~kByteLow7;
}

/** @p order with way @p way moved to the MRU end (position 15). */
std::uint64_t
promote(std::uint64_t order, unsigned way)
{
    // The order is a permutation, so exactly one nibble of x is zero.
    const std::uint64_t x = order ^ kNibbleLow * way;
    const std::uint64_t nonzero = (x | x >> 1 | x >> 2 | x >> 3) &
                                  kNibbleLow;
    const unsigned shift =
        static_cast<unsigned>(std::countr_zero(~nonzero & kNibbleLow));
    const std::uint64_t below = order & ((1ull << shift) - 1);
    const std::uint64_t above = order >> 4 >> shift;
    return below | above << shift | std::uint64_t{way} << 60;
}

/**
 * The way at the lowest position of @p order whose index lies in
 * [lo, hi), hi <= 16. Even and odd nibbles are compared in separate
 * byte lanes: bit 7 of `v + 0x80 - k` is set iff v >= k.
 */
unsigned
lruInRange(std::uint64_t order, unsigned lo, unsigned hi)
{
    auto in_range = [&](std::uint64_t v) {
        const std::uint64_t ge_lo = v + kByteLow * (0x80 - lo);
        const std::uint64_t ge_hi = v + kByteLow * (0x80 - hi);
        return ge_lo & ~ge_hi & ~kByteLow7;
    };
    constexpr std::uint64_t nibbles = 0x0f0f0f0f0f0f0f0full;
    // Position i's flag lands on bit 4i + 3.
    const std::uint64_t flags = in_range(order & nibbles) >> 4 |
                                in_range(order >> 4 & nibbles);
    return static_cast<unsigned>(
        order >> (std::countr_zero(flags) - 3) & 0xf);
}

} // namespace

CacheModel::CacheModel(const Config &cfg) : config(cfg)
{
    fatal_if(cfg.ways == 0, "LLC must have at least one way");
    fatal_if(cfg.ways > 16,
             "LLC ways (%u) exceed the 16 a set header orders",
             cfg.ways);
    fatal_if(cfg.ddioWays > cfg.ways,
             "DDIO ways (%u) exceed total ways (%u)",
             cfg.ddioWays, cfg.ways);
    std::uint64_t line_count = cfg.sizeBytes / cacheLineSize;
    sets = static_cast<unsigned>(line_count / cfg.ways);
    fatal_if(sets == 0, "LLC too small for %u ways", cfg.ways);
    // Left unwritten: a header is read only while its live bit is
    // set, a way only while its mask bit is set. No huge-page advice
    // here: a directory that never becomes dense would fault in whole
    // 2 MiB pages for the few sets it uses.
    heads = mapHostArray<SetHeader>(sets);
    dir = mapHostArray<Way>(static_cast<std::size_t>(sets) * cfg.ways);
    live.resize((sets + 63) / 64);
}

CacheModel::Way
CacheModel::packWay(std::uint64_t tag, int owner, bool dirty)
{
    panic_if(tag > kTagMask, "LLC tag 0x%llx outside the %u-bit way field",
             static_cast<unsigned long long>(tag), kTagBits);
    return Way{tag | static_cast<std::uint64_t>(owner) << kTagBits |
               (dirty ? kDirtyBit : 0)};
}

CacheModel::SetHeader &
CacheModel::liveHeader(std::size_t set)
{
    SetHeader &h = heads[set];
    std::uint64_t &word = live[set >> 6];
    const std::uint64_t bit = 1ull << (set & 63);
    if (!(word & bit)) {
        word |= bit;
        h = SetHeader{{~0ull, ~0ull}, kIdentityOrder, 0};
        if (++liveSets == sets)
            collapseDirectory();
    }
    return h;
}

void
CacheModel::collapseDirectory()
{
    if (collapsed)
        return;
    collapsed = true;
    collapseHugePages(heads.get(), heads.get_deleter().bytes);
    collapseHugePages(dir.get(), dir.get_deleter().bytes);
}

void
CacheModel::prefetchSet(std::size_t set) const
{
    __builtin_prefetch(&heads[set]);
    const auto *row =
        reinterpret_cast<const unsigned char *>(&dir[set * config.ways]);
    // One demand load first, kept by the empty asm: on hosts that
    // drop a software prefetch whose page misses the TLB (AMD EPYC,
    // measured), it brings the page in, and the prefetches of the rest
    // of the row then land. The byte's value is never used.
    const unsigned char first = *row;
    asm("" : : "r"(first));
    const std::size_t bytes = config.ways * sizeof(Way);
    for (std::size_t off = kHostLine; off < bytes; off += kHostLine)
        __builtin_prefetch(row + off);
    __builtin_prefetch(row + bytes - 1);
}

template <class Fn>
void
CacheModel::walk(Addr pa, std::uint64_t size, Fn &&fn)
{
    if (size == 0)
        return;
    const std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    std::size_t ahead = (set + kLookahead) % sets;
    for (std::uint64_t i = 0; i < n; ++i, ++tag) {
        if (isLive(ahead))
            prefetchSet(ahead);
        fn(set, tag);
        if (++set == sets)
            set = 0;
        if (++ahead == sets)
            ahead = 0;
    }
}

template <class Fn>
std::uint64_t
CacheModel::walkLive(Addr pa, std::uint64_t size, Fn &&fn)
{
    if (size == 0)
        return 0;
    std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    std::uint64_t skipped = 0;
    while (n > 0) {
        // The sets of one bitset word, up to the wrap.
        const unsigned bit = set & 63;
        const std::uint64_t len = std::min<std::uint64_t>(
            {n, 64 - bit, sets - set});
        const std::uint64_t want = len == 64 ? ~0ull : (1ull << len) - 1;
        std::uint64_t hits = live[set >> 6] >> bit & want;
        skipped += len - static_cast<std::uint64_t>(std::popcount(hits));
        for (; hits; hits &= hits - 1) {
            const unsigned k = static_cast<unsigned>(std::countr_zero(hits));
            fn(heads[set + k], set + k, tag + k);
        }
        n -= len;
        tag += len;
        set += len;
        if (set == sets)
            set = 0;
    }
    return skipped;
}

unsigned
CacheModel::findIn(const SetHeader &h, std::size_t set,
                   std::uint64_t tag) const
{
    // Absent ways hold kNoFingerprint, which no tag maps to, so the
    // matches need no presence mask.
    const std::uint64_t splat = tagFingerprint(tag) * kByteLow;
    const Way *row = &dir[set * config.ways];
    for (unsigned half = 0; half < 2; ++half) {
        for (std::uint64_t m = matchBytes(h.fp[half], splat); m;
             m &= m - 1) {
            const unsigned w =
                half * 8 + static_cast<unsigned>(std::countr_zero(m)) / 8;
            if (wayTag(row[w]) == tag)
                return w;
        }
    }
    return kNoWay;
}

/**
 * Prefer free ways from the top so CPU fills gravitate away from the
 * DDIO ways (0..ddioWays) while those are free — avoiding an
 * artificial placement pathology where demand lines keep landing in
 * the device-churned partition. With no free way, evict the LRU line
 * of the range: every way in it is present, and the order word lists
 * present ways least recently used first.
 */
unsigned
CacheModel::victimInSet(const SetHeader &h, unsigned way_lo,
                        unsigned way_hi)
{
    const std::uint64_t range =
        ((1ull << way_hi) - 1) & ~((1ull << way_lo) - 1);
    if (std::uint64_t free = ~h.mask & range)
        return 63 - static_cast<unsigned>(std::countl_zero(free));
    return lruInRange(h.order, way_lo, way_hi);
}

void
CacheModel::growOwners(int owner)
{
    panic_if(owner < 0 || static_cast<std::uint64_t>(owner) > kOwnerMask,
             "LLC owner %d outside the %u-bit way field", owner,
             kOwnerBits);
    ownerLines.resize(static_cast<std::size_t>(owner) + 1);
}

void
CacheModel::uncountOwner(int owner)
{
    std::uint64_t &n = ownerLines[static_cast<std::size_t>(owner)];
    panic_if(n == 0, "owner occupancy underflow (owner=%d)", owner);
    --n;
}

void
CacheModel::touchWay(std::size_t set, unsigned way)
{
    std::uint64_t &order = heads[set].order;
    if (order >> 60 != way)
        order = promote(order, way);
}

void
CacheModel::dropWay(std::size_t set, unsigned way)
{
    SetHeader &h = heads[set];
    h.mask &= ~(1ull << way);
    setFingerprint(h.fp, way, kNoFingerprint);
    --validLines;
    uncountOwner(wayOwner(wayAt(set, way)));
}

void
CacheModel::installWay(SetHeader &h, std::size_t set, unsigned way,
                       std::uint64_t tag, int owner, bool dirty,
                       AccessResult &result)
{
    Way &w = wayAt(set, way);
    const std::uint64_t bit = 1ull << way;
    if (h.mask & bit) {
        result.evictedDirty = wayDirty(w);
        result.evictedPa = wayTag(w) << 6;
        uncountOwner(wayOwner(w));
    } else {
        h.mask |= bit;
        ++validLines;
    }
    ++ownerCount(owner);
    w = packWay(tag, owner, dirty);
    setFingerprint(h.fp, way, tagFingerprint(tag));
    h.order = promote(h.order, way);
}

void
CacheModel::retagOwner(std::size_t set, unsigned way, int owner)
{
    // Occupancy follows the most recent toucher, as CMT's RMID
    // accounting effectively does for shared lines.
    Way &w = wayAt(set, way);
    const int old = wayOwner(w);
    if (old != owner) {
        ++ownerCount(owner);
        uncountOwner(old);
        w.bits = (w.bits & ~(kOwnerMask << kTagBits)) |
                 static_cast<std::uint64_t>(owner) << kTagBits;
    }
}

CacheModel::AccessResult
CacheModel::accessLine(std::size_t set, std::uint64_t tag, int owner,
                       bool is_write, unsigned way_hi)
{
    AccessResult result;
    SetHeader &h = liveHeader(set);
    const unsigned way = findIn(h, set, tag);
    if (way != kNoWay) {
        result.hit = true;
        hitBytesTally += cacheLineSize;
        touchWay(set, way);
        if (is_write)
            wayAt(set, way).bits |= kDirtyBit;
        retagOwner(set, way, owner);
        return result;
    }
    missBytesTally += cacheLineSize;
    installWay(h, set, victimInSet(h, 0, way_hi), tag, owner, is_write,
               result);
    if (result.evictedDirty)
        writebackBytesTally += cacheLineSize;
    return result;
}

CacheModel::AccessResult
CacheModel::cpuAccess(Addr pa, int owner, bool is_write)
{
    // Start the way row's load with the header's, rather than after
    // the fingerprint match or victim choice that reads the header.
    const std::size_t set = setIndex(pa);
    if (isLive(set))
        prefetchSet(set);
    return accessLine(set, tagOf(pa), owner, is_write, config.ways);
}

CacheModel::CpuSpanResult
CacheModel::cpuAccessSpan(Addr pa, std::uint64_t size, int owner,
                          bool is_write, std::vector<Addr> &dirty_victims)
{
    CpuSpanResult r;
    walk(pa, size, [&](std::size_t set, std::uint64_t tag) {
        const AccessResult res =
            accessLine(set, tag, owner, is_write, config.ways);
        ++(res.hit ? r.hits : r.misses);
        if (res.evictedDirty)
            dirty_victims.push_back(res.evictedPa);
    });
    return r;
}

CacheModel::SpanResult
CacheModel::probeSpan(Addr pa, std::uint64_t size)
{
    SpanResult r;
    const std::uint64_t absent = walkLive(
        pa, size,
        [&](const SetHeader &h, std::size_t set, std::uint64_t tag) {
            const unsigned way = findIn(h, set, tag);
            if (way != kNoWay) {
                touchWay(set, way);
                r.hitBytes += cacheLineSize;
            } else {
                r.missBytes += cacheLineSize;
            }
        });
    r.missBytes += absent * cacheLineSize;
    hitBytesTally += r.hitBytes;
    missBytesTally += r.missBytes;
    return r;
}

CacheModel::SpanResult
CacheModel::fillSpan(Addr pa, std::uint64_t size, int owner)
{
    SpanResult r;
    const unsigned hi =
        config.ddioWays > 0 ? config.ddioWays : config.ways;
    walk(pa, size, [&](std::size_t set, std::uint64_t tag) {
        const AccessResult res = accessLine(set, tag, owner, true, hi);
        (res.hit ? r.hitBytes : r.missBytes) += cacheLineSize;
        if (res.evictedDirty) {
            r.writebackBytes += cacheLineSize;
            r.lastEvictedPa = res.evictedPa;
        }
    });
    return r;
}

CacheModel::SpanResult
CacheModel::evictSpan(Addr pa, std::uint64_t size)
{
    walkLive(pa, size,
             [&](const SetHeader &h, std::size_t set, std::uint64_t tag) {
                 const unsigned way = findIn(h, set, tag);
                 if (way != kNoWay)
                     dropWay(set, way);
             });
    return {};
}

CacheModel::SpanResult
CacheModel::flushSpan(Addr pa, std::uint64_t size)
{
    SpanResult r;
    walkLive(pa, size,
             [&](const SetHeader &h, std::size_t set, std::uint64_t tag) {
                 const unsigned way = findIn(h, set, tag);
                 if (way != kNoWay) {
                     if (wayDirty(wayAt(set, way)))
                         r.writebackBytes += cacheLineSize;
                     dropWay(set, way);
                 }
             });
    writebackBytesTally += r.writebackBytes;
    return r;
}

bool
CacheModel::probe(Addr pa) const
{
    return findWay(setIndex(pa), tagOf(pa)) != kNoWay;
}

void
CacheModel::invalidate(Addr pa)
{
    const std::size_t set = setIndex(pa);
    const unsigned way = findWay(set, tagOf(pa));
    if (way != kNoWay)
        dropWay(set, way);
}

void
CacheModel::invalidateAll()
{
    for (std::uint64_t &word : live)
        word = 0;
    liveSets = 0;
    validLines = 0;
    ownerLines.clear();
}

CacheModel::State
CacheModel::saveState() const
{
    State st;
    st.hitBytes = hitBytesTally;
    st.missBytes = missBytesTally;
    st.writebackBytes = writebackBytesTally;
    st.validLines.reserve(validLines);
    for (std::size_t word = 0; word < live.size(); ++word) {
        for (std::uint64_t b = live[word]; b; b &= b - 1) {
            const std::size_t set = word * 64 + static_cast<std::size_t>(
                                                    std::countr_zero(b));
            const SetHeader &h = heads[set];
            // A present way's rank is its LRU position counted over
            // the set's present ways only.
            std::uint64_t rank[16] = {};
            std::uint64_t next = 0;
            for (unsigned pos = 0; pos < 16; ++pos) {
                const unsigned way = h.order >> 4 * pos & 0xf;
                if (h.mask >> way & 1)
                    rank[way] = next++;
            }
            for (std::uint64_t m = h.mask; m; m &= m - 1) {
                const unsigned way =
                    static_cast<unsigned>(std::countr_zero(m));
                const Way &w = dir[set * config.ways + way];
                st.validLines.emplace_back(
                    set * config.ways + way,
                    Line{wayTag(w), rank[way], wayOwner(w), wayDirty(w)});
            }
        }
    }
    return st;
}

} // namespace dsasim
