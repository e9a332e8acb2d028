/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A Simulation owns the virtual clock and the event queue. All model
 * components (cores, DSA devices, memory links) schedule callbacks or
 * suspend C++20 coroutines on it. Events scheduled for the same tick
 * execute in FIFO order, which makes the simulation fully
 * deterministic.
 *
 * The queue is two-level, tuned for the delay distribution of this
 * simulator (sub-microsecond model latencies at picosecond tick
 * resolution):
 *
 *  - every pending event lives in one contiguous arena recycled
 *    through a LIFO freelist, so the slot just vacated by a dispatch
 *    (a cache-warm line) is the first one the next push reuses.
 *    Events are addressed by 32-bit arena index and are never moved
 *    by any ordering structure; only compact (when, seq, index) keys
 *    move;
 *  - a rotating calendar of bucketCount slots, each covering
 *    2^bucketShift ticks of the near future. A slot is just the head
 *    of an intrusive singly-linked list threaded through the arena,
 *    so scheduling into the window is O(1): write the event, link it,
 *    set an occupancy bit;
 *  - a key min-heap for events beyond the window (rare long timers
 *    such as interrupt latencies or watchdogs);
 *  - a stage for the bucket currently being drained: its keys are
 *    sorted once (descending, so draining pops from the back), and a
 *    second small key min-heap absorbs events scheduled into the
 *    active range mid-drain — the resumeAt(now) pattern of every
 *    sync primitive. Events inside one bucket therefore execute in
 *    exact (tick, sequence) order even though buckets span multiple
 *    ticks; at the simulator's ns-scale delays most buckets hold a
 *    single event and the calendar acts as a radix sort.
 *
 * Events carry a global sequence number; (when, seq) ordering is
 * identical to the original single-priority-queue kernel, so replays
 * are bit-for-bit reproducible across kernel implementations.
 *
 * Callbacks are InlineCallback (small-buffer optimized, no heap
 * allocation for small captures), and coroutine resumption stores the
 * coroutine_handle directly in the event rather than wrapping it in a
 * callback.
 */

#ifndef DSASIM_SIM_SIMULATION_HH
#define DSASIM_SIM_SIMULATION_HH

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace dsasim
{

class Simulation
{
  public:
    using Callback = InlineCallback;

    Simulation() : bucketHead(bucketCount, npos) {}
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    Tick now() const { return currentTick; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    void
    scheduleAt(Tick when, Callback fn)
    {
        pushEvent(when, nullptr, std::move(fn));
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    void
    scheduleIn(Tick delay_ticks, Callback fn)
    {
        pushEvent(currentTick + delay_ticks, nullptr, std::move(fn));
    }

    /** Resume a suspended coroutine at absolute time @p when. */
    void
    resumeAt(Tick when, std::coroutine_handle<> h)
    {
        pushEvent(when, h, Callback{});
    }

    /** Run until the event queue drains. Returns the final time. */
    Tick run();

    /**
     * Run all events with timestamp <= @p until, then set the clock
     * to @p until. Events beyond the horizon stay queued.
     */
    Tick runUntil(Tick until);

    /**
     * Run all events with timestamp <= @p horizon but leave the clock
     * at the last executed event (or untouched if none ran). The
     * conservative-lookahead partition runner (sim/partition.hh) uses
     * this to advance a domain through one epoch without inventing a
     * clock reading the serial execution would never have produced.
     */
    Tick runWithin(Tick horizon);

    /** Number of events executed so far (for tests/telemetry). */
    std::uint64_t eventsExecuted() const { return executedCount; }

    /** Number of events currently queued. */
    std::uint64_t pendingEvents() const { return pendingCount; }

    /**
     * A lower bound on the timestamp of the earliest pending event,
     * or maxTick if the queue is empty. Exact for staged events;
     * calendar events are bounded by their bucket's start tick (an
     * error of less than 2^bucketShift ticks, far below any link
     * latency a partition runner would use as lookahead). Never later
     * than the true earliest event, so it is always safe to use as a
     * conservative horizon.
     */
    Tick nextEventBound() const;

    /**
     * When enabled, every executed event folds its (when, seq) pair
     * into a running FNV-1a fingerprint of the event stream. Two runs
     * of the same scenario must produce identical fingerprints —
     * tools/determinism_check gates on this, end-to-end testing the
     * invariant simlint enforces statically (DESIGN.md §9). Off by
     * default: the hot dispatch loop pays only an untaken branch.
     */
    void enableStreamHash(bool on) { hashEnabled = on; }

    /** Current event-stream fingerprint (see enableStreamHash). */
    std::uint64_t streamHash() const { return hashState; } // simlint:observer

    /** True if no events are pending. */
    bool idle() const { return pendingCount == 0; }

    /**
     * The telemetry registry for this simulation (DESIGN.md §15).
     * Components register their metrics here at construction time;
     * samplers and exporters read it as pure observers.
     */
    stats::Registry &stats() { return statsRegistry; }
    const stats::Registry &stats() const // simlint:observer
    {
        return statsRegistry;
    }

    /**
     * Install the telemetry sample hook (stats::Sampler). The hook
     * fires on the first event dispatch at-or-after each @p period
     * boundary — after the event's effects, outside the event queue.
     * It consumes no sequence numbers and mixes nothing into the
     * stream hash, so any period (or none) leaves the event-stream
     * fingerprint bit-identical: sampling observes the schedule the
     * kernel was going to execute anyway.
     */
    void
    setSampleHook(Tick period, Callback hook)
    {
        samplePeriod = period;
        sampleHook = std::move(hook);
        nextSampleAt =
            period == 0 ? maxTick
                        : currentTick - currentTick % period + period;
    }

    /**
     * Retune the installed hook's cadence (the Sampler's bounded-
     * memory decimation). A pure observer knob: no event is
     * scheduled and nothing is hashed, so retuning mid-run leaves
     * the event-stream fingerprint bit-identical.
     */
    void
    setSamplePeriod(Tick period)
    {
        samplePeriod = period;
        nextSampleAt =
            period == 0 ? maxTick
                        : currentTick - currentTick % period + period;
    }

    /** Remove the telemetry sample hook. */
    void
    clearSampleHook()
    {
        samplePeriod = 0;
        nextSampleAt = maxTick;
        sampleHook = Callback{};
    }

    /** Is a telemetry sample hook installed? (One per calendar.) */
    bool hasSampleHook() const { return samplePeriod != 0; }

    /**
     * Awaitable: suspend the current coroutine for @p delay ticks.
     * Usage: `co_await sim.delay(fromNs(100));`
     */
    auto
    delay(Tick delay_ticks)
    {
        return DelayAwaiter{*this, currentTick + delay_ticks};
    }

    /** Awaitable: suspend the current coroutine until absolute @p when. */
    auto
    delayUntil(Tick when)
    {
        return DelayAwaiter{*this, when};
    }

  private:
    struct DelayAwaiter
    {
        Simulation &sim;
        Tick when;

        bool await_ready() const { return when <= sim.now(); }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            sim.resumeAt(when, h);
        }
        void await_resume() const {}
    };

    /** Calendar geometry: bucketCount buckets of 2^bucketShift ticks
     * each; with picosecond ticks the window spans ~8.4 us of
     * simulated future, comfortably past the longest common model
     * delay (the ~1.2 us interrupt cost). */
    static constexpr unsigned bucketShift = 11;
    static constexpr std::uint64_t bucketCount = 4096;
    static constexpr std::uint64_t bucketMask = bucketCount - 1;
    static constexpr std::size_t wordCount = bucketCount / 64;
    static constexpr std::uint64_t maxBucket = maxTick >> bucketShift;

    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::coroutine_handle<> coro; ///< direct resume if non-null
        Callback fn;                  ///< otherwise invoke this
    };

    /** Sort key into the arena: ordering without moving events. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    /** Min-heap comparator for std:: heap algorithms. */
    template <typename E>
    static bool
    laterFirst(const E &a, const E &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /** End-of-list / empty-slot marker for arena indexes. */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    void pushEvent(Tick when, std::coroutine_handle<> coro,
                   Callback &&fn);

    /**
     * Execute the earliest pending event. Returns false (and executes
     * nothing) if the queue is empty or the earliest event lies
     * beyond @p horizon.
     */
    bool step(Tick horizon);

    /**
     * Reload the stage from the earliest non-empty bucket and/or the
     * overflow heap. Returns false if no events are pending at all;
     * otherwise the stage is guaranteed non-empty.
     */
    bool advanceStage();

    /** Offset (in buckets, from curBucket) of the first occupied
     * calendar slot, or bucketCount if the calendar is empty. */
    std::size_t firstOccupiedOffset() const;

    /** Place an event in an arena slot (recycling the freelist) and
     * return its index. */
    std::uint32_t
    allocSlot(Tick when, std::uint64_t seq,
              std::coroutine_handle<> coro, Callback &&fn)
    {
        if (freeHead != npos) {
            const std::uint32_t idx = freeHead;
            freeHead = nextIdx[idx];
            Event &ev = arena[idx];
            ev.when = when;
            ev.seq = seq;
            ev.coro = coro;
            ev.fn = std::move(fn);
            return idx;
        }
        const std::uint32_t idx =
            static_cast<std::uint32_t>(arena.size());
        arena.emplace_back(when, seq, coro, std::move(fn));
        nextIdx.push_back(npos);
        return idx;
    }

    void
    freeSlot(std::uint32_t idx)
    {
        nextIdx[idx] = freeHead;
        freeHead = idx;
    }

    /**
     * Backing store for every pending event; grows to the high-water
     * mark of concurrent events and is recycled via the freelist.
     */
    std::vector<Event> arena;
    /** Per-arena-slot link: next event in the same calendar slot,
     * or next free slot when the event is on the freelist. */
    std::vector<std::uint32_t> nextIdx;
    /** Top of the LIFO free-slot list, npos if none. */
    std::uint32_t freeHead = npos;
    /** Keys of the staged bucket, sorted descending by (when, seq);
     * drained from the back. */
    std::vector<Key> stageOrder;
    /** Keys of mid-drain arrivals, a (when, seq) min-heap. */
    std::vector<Key> stageInKeys;
    /** Calendar: per-slot head of an intrusive event list for
     * (stageLast, window end); epoch-unique. */
    std::vector<std::uint32_t> bucketHead;
    /** One bit per calendar slot: does it hold any events? */
    std::array<std::uint64_t, wordCount> occupied{};
    /** Keys of events beyond the calendar window, (when, seq)
     * min-heap. */
    std::vector<Key> overflowKeys;

    /** Fold one executed event into the stream fingerprint. */
    void
    mixStreamHash(Tick when, std::uint64_t seq)
    {
        std::uint64_t h = hashState;
        h = (h ^ when) * 0x100000001b3ull;
        h = (h ^ seq) * 0x100000001b3ull;
        hashState = h;
    }

    bool hashEnabled = false;
    std::uint64_t hashState = 0xcbf29ce484222325ull;

    /** Telemetry registry; owned here so every component with a
     * Simulation reference can register without new plumbing. */
    stats::Registry statsRegistry;
    /** Telemetry sample hook (empty when no sampler installed). */
    Callback sampleHook;
    /** Sampling period in ticks; 0 disables the hook entirely. */
    Tick samplePeriod = 0;
    /** Next period boundary; the first dispatch at-or-after it
     * fires the hook. maxTick when sampling is off. */
    Tick nextSampleAt = maxTick;

    Tick currentTick = 0;
    /** Inclusive upper bound of the ticks covered by the stage. */
    Tick stageLast = 0;
    /** Absolute bucket number the calendar window starts at. */
    std::uint64_t curBucket = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executedCount = 0;
    std::uint64_t pendingCount = 0;
};

} // namespace dsasim

#endif // DSASIM_SIM_SIMULATION_HH
