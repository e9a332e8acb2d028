#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace dsasim
{

CacheModel::CacheModel(const Config &cfg) : config(cfg)
{
    fatal_if(cfg.ways == 0, "LLC must have at least one way");
    fatal_if(cfg.ways > 64,
             "LLC ways (%u) exceed the 64-bit set presence mask",
             cfg.ways);
    fatal_if(cfg.ddioWays > cfg.ways,
             "DDIO ways (%u) exceed total ways (%u)",
             cfg.ddioWays, cfg.ways);
    std::uint64_t line_count = cfg.sizeBytes / cacheLineSize;
    sets = static_cast<unsigned>(line_count / cfg.ways);
    fatal_if(sets == 0, "LLC too small for %u ways", cfg.ways);
    // Left unwritten: a way is read only while its mask bit is set.
    dir = std::make_unique_for_overwrite<Way[]>(
        static_cast<std::size_t>(sets) * cfg.ways);
    setMeta.resize(sets);
}

std::uint64_t
CacheModel::nextUse()
{
    panic_if(useClock + 1 >= kUseLimit,
             "LLC use clock exhausted its %u-bit way field",
             64 - kOwnerBits);
    return ++useClock;
}

unsigned
CacheModel::findWay(std::size_t set, std::uint64_t mask,
                    std::uint64_t tag) const
{
    const Way *s = &dir[set * config.ways];
    for (std::uint64_t m = mask; m; m &= m - 1) {
        const unsigned w = static_cast<unsigned>(std::countr_zero(m));
        if (wayTag(s[w]) == tag)
            return w;
    }
    return kNoWay;
}

/**
 * Prefer free ways from the top so CPU fills gravitate away from the
 * DDIO ways (0..ddioWays) while those are free — avoiding an
 * artificial placement pathology where demand lines keep landing in
 * the device-churned partition. With no free way, evict the LRU line
 * (use-clock values are unique, so the minimum is unambiguous).
 */
unsigned
CacheModel::victimInSet(std::size_t set, std::uint64_t mask,
                        unsigned way_lo, unsigned way_hi) const
{
    const std::uint64_t hi_mask =
        way_hi >= 64 ? ~0ull : (1ull << way_hi) - 1;
    const std::uint64_t range = hi_mask & ~((1ull << way_lo) - 1);
    if (std::uint64_t free = ~mask & range)
        return 63 - static_cast<unsigned>(std::countl_zero(free));
    const Way *s = &dir[set * config.ways];
    unsigned best = way_lo;
    for (unsigned i = way_lo + 1; i < way_hi; ++i) {
        if (s[i].useOwner < s[best].useOwner)
            best = i;
    }
    return best;
}

std::uint64_t &
CacheModel::ownerCount(int owner)
{
    panic_if(owner < 0 || static_cast<std::uint64_t>(owner) > kOwnerMask,
             "LLC owner %d outside the %u-bit way field", owner,
             kOwnerBits);
    const auto o = static_cast<std::size_t>(owner);
    if (o >= ownerLines.size())
        ownerLines.resize(o + 1);
    return ownerLines[o];
}

void
CacheModel::uncountOwner(int owner)
{
    std::uint64_t &n = ownerLines[static_cast<std::size_t>(owner)];
    panic_if(n == 0, "owner occupancy underflow (owner=%d)", owner);
    --n;
}

void
CacheModel::dropWay(std::size_t set, unsigned way)
{
    maskFor(set) &= ~(1ull << way);
    --validLines;
    uncountOwner(wayOwner(wayAt(set, way)));
}

void
CacheModel::installWay(std::size_t set, unsigned way, std::uint64_t tag,
                       int owner, bool dirty, AccessResult &result)
{
    Way &w = wayAt(set, way);
    if (maskOf(set) & (1ull << way)) {
        result.evictedDirty = wayDirty(w);
        result.evictedPa = wayTag(w) << 6;
        dropWay(set, way);
    }
    ++ownerCount(owner);
    w.tagDirty = tag | (dirty ? kDirtyBit : 0);
    w.useOwner = nextUse() << kOwnerBits |
                 static_cast<std::uint64_t>(owner);
    maskFor(set) |= 1ull << way;
    ++validLines;
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
        w.useOwner = (w.useOwner & ~kOwnerMask) |
                     static_cast<std::uint64_t>(owner);
    }
}

CacheModel::AccessResult
CacheModel::cpuAccess(Addr pa, int owner, bool is_write)
{
    AccessResult result;
    const std::size_t set = setIndex(pa);
    const std::uint64_t mask = maskOf(set);
    const unsigned way = findWay(set, mask, tagOf(pa));
    if (way != kNoWay) {
        result.hit = true;
        hitBytesTally += cacheLineSize;
        Way &w = wayAt(set, way);
        touchWay(w);
        if (is_write)
            w.tagDirty |= kDirtyBit;
        retagOwner(set, way, owner);
        return result;
    }
    missBytesTally += cacheLineSize;
    installWay(set, victimInSet(set, mask, 0, config.ways), tagOf(pa),
               owner, is_write, result);
    if (result.evictedDirty)
        writebackBytesTally += cacheLineSize;
    return result;
}

CacheModel::SpanResult
CacheModel::probeSpan(Addr pa, std::uint64_t size)
{
    SpanResult r;
    if (size == 0)
        return r;
    const std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    for (std::uint64_t i = 0; i < n; ++i, ++tag) {
        const unsigned way = findWay(set, maskOf(set), tag);
        if (way != kNoWay) {
            touchWay(wayAt(set, way));
            r.hitBytes += cacheLineSize;
        } else {
            r.missBytes += cacheLineSize;
        }
        if (++set == sets)
            set = 0;
    }
    hitBytesTally += r.hitBytes;
    missBytesTally += r.missBytes;
    return r;
}

CacheModel::SpanResult
CacheModel::fillSpan(Addr pa, std::uint64_t size, int owner)
{
    SpanResult r;
    if (size == 0)
        return r;
    const unsigned hi =
        config.ddioWays > 0 ? config.ddioWays : config.ways;
    const std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    for (std::uint64_t i = 0; i < n; ++i, ++tag) {
        const std::uint64_t mask = maskOf(set);
        const unsigned way = findWay(set, mask, tag);
        if (way != kNoWay) {
            r.hitBytes += cacheLineSize;
            Way &w = wayAt(set, way);
            touchWay(w);
            w.tagDirty |= kDirtyBit;
            retagOwner(set, way, owner);
        } else {
            r.missBytes += cacheLineSize;
            AccessResult res;
            installWay(set, victimInSet(set, mask, 0, hi), tag, owner,
                       true, res);
            if (res.evictedDirty) {
                r.writebackBytes += cacheLineSize;
                r.lastEvictedPa = res.evictedPa;
            }
        }
        if (++set == sets)
            set = 0;
    }
    hitBytesTally += r.hitBytes;
    missBytesTally += r.missBytes;
    writebackBytesTally += r.writebackBytes;
    return r;
}

CacheModel::SpanResult
CacheModel::evictSpan(Addr pa, std::uint64_t size)
{
    SpanResult r;
    if (size == 0)
        return r;
    const std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    for (std::uint64_t i = 0; i < n; ++i, ++tag) {
        const unsigned way = findWay(set, maskOf(set), tag);
        if (way != kNoWay)
            dropWay(set, way);
        if (++set == sets)
            set = 0;
    }
    return r;
}

CacheModel::SpanResult
CacheModel::flushSpan(Addr pa, std::uint64_t size)
{
    SpanResult r;
    if (size == 0)
        return r;
    const std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    for (std::uint64_t i = 0; i < n; ++i, ++tag) {
        const unsigned way = findWay(set, maskOf(set), tag);
        if (way != kNoWay) {
            if (wayDirty(wayAt(set, way)))
                r.writebackBytes += cacheLineSize;
            dropWay(set, way);
        }
        if (++set == sets)
            set = 0;
    }
    writebackBytesTally += r.writebackBytes;
    return r;
}

bool
CacheModel::probe(Addr pa) const
{
    const std::size_t set = setIndex(pa);
    return findWay(set, maskOf(set), tagOf(pa)) != kNoWay;
}

void
CacheModel::invalidate(Addr pa)
{
    const std::size_t set = setIndex(pa);
    const unsigned way = findWay(set, maskOf(set), tagOf(pa));
    if (way != kNoWay)
        dropWay(set, way);
}

void
CacheModel::invalidateAll()
{
    // Epoch bump: every set's presence mask goes stale in O(1).
    ++flushEpoch;
    validLines = 0;
    ownerLines.clear();
}

CacheModel::State
CacheModel::saveState() const
{
    State st;
    st.useClock = useClock;
    st.hitBytes = hitBytesTally;
    st.missBytes = missBytesTally;
    st.writebackBytes = writebackBytesTally;
    st.validLines.reserve(validLines);
    for (std::size_t set = 0; set < sets; ++set) {
        for (std::uint64_t m = maskOf(set); m; m &= m - 1) {
            const unsigned way =
                static_cast<unsigned>(std::countr_zero(m));
            const Way &w = dir[set * config.ways + way];
            st.validLines.emplace_back(
                set * config.ways + way,
                Line{wayTag(w), w.useOwner >> kOwnerBits, wayOwner(w),
                     wayDirty(w)});
        }
    }
    return st;
}

void
CacheModel::restoreState(const State &st)
{
    panic_if(st.useClock >= kUseLimit,
             "CacheModel::restoreState: use clock %llu exceeds the "
             "way field",
             static_cast<unsigned long long>(st.useClock));
    // A new epoch empties every set without touching it; each
    // restored way rewrites its set's mask under that epoch.
    ++flushEpoch;
    ownerLines.clear();
    useClock = st.useClock;
    hitBytesTally = st.hitBytes;
    missBytesTally = st.missBytes;
    writebackBytesTally = st.writebackBytes;
    validLines = st.validLines.size();
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(sets) * config.ways;
    for (const auto &[idx, saved] : st.validLines) {
        panic_if(idx >= capacity,
                 "CacheModel::restoreState: line index %llu out of "
                 "range — geometry mismatch with snapshot",
                 static_cast<unsigned long long>(idx));
        ++ownerCount(saved.owner);
        dir[idx] = Way{saved.tag | (saved.dirty ? kDirtyBit : 0),
                       saved.lastUse << kOwnerBits |
                           static_cast<std::uint64_t>(saved.owner)};
        maskFor(idx / config.ways) |= 1ull << (idx % config.ways);
    }
}

} // namespace dsasim
