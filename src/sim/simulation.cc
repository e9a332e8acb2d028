#include "sim/simulation.hh"

#include <bit>

#include "sim/logging.hh"

namespace dsasim
{

void
Simulation::pushEvent(Tick when, std::coroutine_handle<> coro,
                      Callback &&fn)
{
    panic_if(when < currentTick,
             "scheduling event in the past (when=%llu now=%llu)",
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(currentTick));
    ++pendingCount;
    const std::uint64_t seq = nextSeq++;
    const std::uint32_t idx = allocSlot(when, seq, coro, std::move(fn));
    if (when <= stageLast) {
        stageInKeys.push_back(Key{when, seq, idx});
        std::push_heap(stageInKeys.begin(), stageInKeys.end(),
                       laterFirst<Key>);
        return;
    }
    const std::uint64_t bn = when >> bucketShift;
    if (bn - curBucket < bucketCount) {
        const std::size_t slot =
            static_cast<std::size_t>(bn & bucketMask);
        nextIdx[idx] = bucketHead[slot];
        bucketHead[slot] = idx;
        occupied[slot >> 6] |= 1ull << (slot & 63);
        return;
    }
    overflowKeys.push_back(Key{when, seq, idx});
    std::push_heap(overflowKeys.begin(), overflowKeys.end(),
                   laterFirst<Key>);
}

std::size_t
Simulation::firstOccupiedOffset() const
{
    const std::size_t s0 =
        static_cast<std::size_t>(curBucket & bucketMask);
    const std::size_t w0 = s0 >> 6;
    const unsigned b0 = static_cast<unsigned>(s0 & 63);

    // Bits at or above s0 in its word.
    if (std::uint64_t w = occupied[w0] & (~0ull << b0))
        return static_cast<std::size_t>(std::countr_zero(w)) - b0;
    // Following words, wrapping around the calendar.
    for (std::size_t k = 1; k < wordCount; ++k) {
        const std::size_t wi = (w0 + k) & (wordCount - 1);
        if (std::uint64_t w = occupied[wi]) {
            const std::size_t s =
                wi * 64 +
                static_cast<std::size_t>(std::countr_zero(w));
            return (s - s0) & bucketMask;
        }
    }
    // Finally the bits below s0 in its own word (full wrap).
    if (std::uint64_t w = occupied[w0] & ~(~0ull << b0)) {
        const std::size_t s =
            w0 * 64 + static_cast<std::size_t>(std::countr_zero(w));
        return (s - s0) & bucketMask;
    }
    return bucketCount;
}

bool
Simulation::advanceStage()
{
    const std::size_t off = firstOccupiedOffset();
    bool from_calendar = off != bucketCount;
    std::uint64_t bn = curBucket + off;
    if (!overflowKeys.empty()) {
        const Tick to = overflowKeys.front().when;
        if (!from_calendar || to < (bn << bucketShift)) {
            // The earliest work lives in the overflow heap; its slot
            // cannot hold events of the same epoch (the calendar scan
            // would have found them first).
            bn = to >> bucketShift;
            from_calendar = false;
        }
    } else if (!from_calendar) {
        return false;
    }

    curBucket = bn;
    stageLast = bn >= maxBucket ? maxTick
                                : ((bn + 1) << bucketShift) - 1;
    if (from_calendar) {
        const std::size_t slot =
            static_cast<std::size_t>(bn & bucketMask);
        for (std::uint32_t i = bucketHead[slot]; i != npos;
             i = nextIdx[i])
            stageOrder.push_back(
                Key{arena[i].when, arena[i].seq, i});
        bucketHead[slot] = npos;
        occupied[slot >> 6] &= ~(1ull << (slot & 63));
        // At realistic (ns-scale) delays most buckets hold a single
        // event; the calendar has already radix-sorted those.
        if (stageOrder.size() > 1)
            std::sort(stageOrder.begin(), stageOrder.end(),
                      laterFirst<Key>);
    }
    // Pull overflow events that now fall inside the staged bucket.
    while (!overflowKeys.empty() &&
           overflowKeys.front().when <= stageLast) {
        std::pop_heap(overflowKeys.begin(), overflowKeys.end(),
                      laterFirst<Key>);
        stageInKeys.push_back(overflowKeys.back());
        overflowKeys.pop_back();
        std::push_heap(stageInKeys.begin(), stageInKeys.end(),
                       laterFirst<Key>);
    }
    return true;
}

bool
Simulation::step(Tick horizon)
{
    if (stageOrder.empty() && stageInKeys.empty() && !advanceStage())
        return false;
    // The earliest event is at the back of stageOrder or the front
    // of stageInKeys; everything else is beyond stageLast.
    bool from_sorted;
    if (stageInKeys.empty())
        from_sorted = true;
    else if (stageOrder.empty())
        from_sorted = false;
    else
        from_sorted =
            laterFirst(stageInKeys.front(), stageOrder.back());
    Key k;
    if (from_sorted) {
        k = stageOrder.back();
        if (k.when > horizon)
            return false;
        stageOrder.pop_back();
    } else {
        k = stageInKeys.front();
        if (k.when > horizon)
            return false;
        std::pop_heap(stageInKeys.begin(), stageInKeys.end(),
                      laterFirst<Key>);
        stageInKeys.pop_back();
    }
    currentTick = k.when;
    ++executedCount;
    --pendingCount;
    if (hashEnabled) [[unlikely]]
        mixStreamHash(k.when, k.seq);
    // Lift the payload out of the slot and recycle it before
    // dispatching: the callback may push new events, and the LIFO
    // freelist hands it this still-cache-warm slot first.
    Event &ev = arena[k.idx];
    if (ev.coro) {
        const std::coroutine_handle<> h = ev.coro;
        freeSlot(k.idx);
        h.resume();
    } else {
        Callback fn = std::move(ev.fn);
        freeSlot(k.idx);
        fn();
    }
    // Telemetry sampling piggybacks on event dispatch: no event is
    // scheduled, no sequence number is consumed, nothing is mixed
    // into the stream hash, so the fingerprint is identical at any
    // period — or with sampling off entirely.
    if (samplePeriod != 0 && currentTick >= nextSampleAt)
        [[unlikely]] {
        nextSampleAt =
            currentTick - currentTick % samplePeriod + samplePeriod;
        sampleHook();
    }
    return true;
}

Tick
Simulation::run()
{
    while (step(maxTick)) {
    }
    return currentTick;
}

Tick
Simulation::runUntil(Tick until)
{
    while (step(until)) {
    }
    if (currentTick < until)
        currentTick = until;
    return currentTick;
}

Tick
Simulation::runWithin(Tick horizon)
{
    while (step(horizon)) {
    }
    return currentTick;
}

Tick
Simulation::nextEventBound() const
{
    if (pendingCount == 0)
        return maxTick;
    Tick bound = maxTick;
    if (!stageOrder.empty())
        bound = std::min(bound, stageOrder.back().when);
    if (!stageInKeys.empty())
        bound = std::min(bound, stageInKeys.front().when);
    const std::size_t off = firstOccupiedOffset();
    if (off != bucketCount) {
        // Bucket starts can predate the clock once runUntil() has
        // advanced it past an empty stretch; queued events never do.
        const Tick start =
            static_cast<Tick>((curBucket + off) << bucketShift);
        bound = std::min(bound, std::max(start, currentTick));
    }
    if (!overflowKeys.empty())
        bound = std::min(bound, overflowKeys.front().when);
    return bound;
}

} // namespace dsasim
