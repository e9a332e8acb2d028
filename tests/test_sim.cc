/**
 * @file
 * Unit tests for the simulation substrate: event queue ordering,
 * coroutine tasks, sync primitives, bandwidth links and statistics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/link.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace dsasim
{
namespace
{

TEST(Simulation, EventsRunInTimeOrder)
{
    Simulation sim;
    std::vector<int> order;
    sim.scheduleAt(30, [&] { order.push_back(3); });
    sim.scheduleAt(10, [&] { order.push_back(1); });
    sim.scheduleAt(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulation, SameTickEventsAreFifo)
{
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.scheduleAt(5, [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, RunUntilStopsAtHorizon)
{
    Simulation sim;
    int fired = 0;
    sim.scheduleAt(10, [&] { ++fired; });
    sim.scheduleAt(100, [&] { ++fired; });
    sim.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 50u);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulation, NestedScheduling)
{
    Simulation sim;
    int depth = 0;
    sim.scheduleAt(1, [&] {
        sim.scheduleIn(1, [&] {
            sim.scheduleIn(1, [&] { depth = 3; });
        });
    });
    sim.run();
    EXPECT_EQ(depth, 3);
    EXPECT_EQ(sim.now(), 3u);
}

TEST(Ticks, Conversions)
{
    EXPECT_EQ(fromNs(1.0), 1000u);
    EXPECT_EQ(fromUs(1.0), 1000000u);
    EXPECT_DOUBLE_EQ(toNs(1500), 1.5);
    // 4096 bytes at 30 GB/s = 136.53 ns.
    Tick t = transferTime(4096, 30.0);
    EXPECT_NEAR(toNs(t), 136.53, 0.1);
    EXPECT_NEAR(achievedGBps(4096, t), 30.0, 0.1);
}

SimTask
delayTask(Simulation &sim, Tick d, bool &done)
{
    co_await sim.delay(d);
    done = true;
}

TEST(Coroutines, DelayResumesAtTheRightTime)
{
    Simulation sim;
    bool done = false;
    delayTask(sim, fromNs(100), done);
    EXPECT_FALSE(done);
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), fromNs(100));
}

SimTask
waitTrigger(Trigger &t, Simulation &sim, Tick &when)
{
    co_await t.wait();
    when = sim.now();
}

TEST(Coroutines, TriggerBroadcastsToAllWaiters)
{
    Simulation sim;
    Trigger t(sim);
    Tick w1 = 0, w2 = 0;
    waitTrigger(t, sim, w1);
    waitTrigger(t, sim, w2);
    sim.scheduleAt(fromNs(42), [&] { t.fire(); });
    sim.run();
    EXPECT_EQ(w1, fromNs(42));
    EXPECT_EQ(w2, fromNs(42));
}

TEST(Coroutines, FiredTriggerCompletesImmediately)
{
    Simulation sim;
    Trigger t(sim);
    t.fire();
    Tick when = 123;
    waitTrigger(t, sim, when);
    sim.run();
    EXPECT_EQ(when, 0u);
}

SimTask
latchWaiter(Latch &l, bool &done)
{
    co_await l.wait();
    done = true;
}

TEST(Coroutines, LatchCountsDown)
{
    Simulation sim;
    Latch l(sim, 3);
    bool done = false;
    latchWaiter(l, done);
    l.arrive();
    l.arrive();
    sim.run();
    EXPECT_FALSE(done);
    l.arrive();
    sim.run();
    EXPECT_TRUE(done);
}

TEST(Coroutines, ZeroLatchIsDone)
{
    Simulation sim;
    Latch l(sim, 0);
    EXPECT_TRUE(l.done());
}

SimTask
semUser(Simulation &sim, Semaphore &s, Tick hold, int id,
        std::vector<int> &order)
{
    co_await s.acquire();
    order.push_back(id);
    co_await sim.delay(hold);
    s.release();
}

TEST(Coroutines, SemaphoreIsFifoFair)
{
    Simulation sim;
    Semaphore s(sim, 1);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        semUser(sim, s, fromNs(10), i, order);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(s.available(), 1u);
}

TEST(Coroutines, SemaphoreTryAcquireRespectsWaiters)
{
    Simulation sim;
    Semaphore s(sim, 1);
    EXPECT_TRUE(s.tryAcquire());
    EXPECT_FALSE(s.tryAcquire());
    s.release();
    EXPECT_TRUE(s.tryAcquire());
    s.release();
}

SimTask
mailboxConsumer(Mailbox<int> &mb, std::vector<int> &got, int count)
{
    for (int i = 0; i < count; ++i) {
        int v = co_await mb.get();
        got.push_back(v);
    }
}

TEST(Coroutines, MailboxDeliversInOrder)
{
    Simulation sim;
    Mailbox<int> mb(sim);
    std::vector<int> got;
    mailboxConsumer(mb, got, 3);
    mb.put(1);
    mb.put(2);
    sim.run();
    mb.put(3);
    sim.run();
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Coroutines, MailboxTryGet)
{
    Simulation sim;
    Mailbox<int> mb(sim);
    EXPECT_FALSE(mb.tryGet().has_value());
    mb.put(7);
    auto v = mb.tryGet();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7);
}

TEST(Link, SerializesRequests)
{
    Simulation sim;
    LinkResource link(sim, 1.0, "test"); // 1 GB/s = 1 byte/ns
    Tick e1 = link.occupy(1000);
    Tick e2 = link.occupy(1000);
    EXPECT_EQ(e1, fromNs(1000));
    EXPECT_EQ(e2, fromNs(2000));
    EXPECT_EQ(link.bytesServed(), 2000u);
}

TEST(Link, IdleGapsDoNotAccumulate)
{
    Simulation sim;
    LinkResource link(sim, 1.0, "test");
    link.occupy(100);
    sim.scheduleAt(fromNs(500), [&] {
        Tick end = link.occupy(100);
        EXPECT_EQ(end, fromNs(600)); // starts at now, not at 100 ns
    });
    sim.run();
}

TEST(Link, BacklogReflectsQueueing)
{
    Simulation sim;
    LinkResource link(sim, 2.0, "test");
    EXPECT_EQ(link.backlog(), 0u);
    link.occupy(2000); // 1000 ns at 2 B/ns
    EXPECT_EQ(link.backlog(), fromNs(1000));
}


TEST(Link, SetRateAppliesToFutureRequests)
{
    Simulation sim;
    LinkResource link(sim, 1.0, "test");
    Tick e1 = link.occupy(1000); // 1000 ns at 1 B/ns
    link.setRate(10.0);
    Tick e2 = link.occupy(1000); // 100 ns at 10 B/ns
    EXPECT_EQ(e1, fromNs(1000));
    EXPECT_EQ(e2, fromNs(1100));
}

SimTask
pausedTask(Simulation &sim, std::vector<Tick> &wakes)
{
    for (int i = 0; i < 3; ++i) {
        co_await sim.delay(fromNs(100));
        wakes.push_back(sim.now());
    }
}

TEST(Coroutines, SurviveRunUntilBoundaries)
{
    Simulation sim;
    std::vector<Tick> wakes;
    pausedTask(sim, wakes);
    sim.runUntil(fromNs(150));
    EXPECT_EQ(wakes.size(), 1u);
    sim.runUntil(fromNs(250));
    EXPECT_EQ(wakes.size(), 2u);
    sim.run();
    ASSERT_EQ(wakes.size(), 3u);
    EXPECT_EQ(wakes[2], fromNs(300));
}

// ---------------------------------------------------------------------
// Determinism goldens: seeded workloads mixing callback events,
// coroutine delays, far-future timers and runUntil() staging must land
// on exactly the same final tick and event count on every kernel
// implementation. The constants below were recorded with the original
// std::function + std::priority_queue kernel; the calendar-queue
// rewrite reproduces them bit for bit, so a kernel change that is
// deterministic but orders events differently fails here.
// ---------------------------------------------------------------------

struct Bouncer
{
    Simulation &sim;
    Rng rng;
    int remaining;

    void
    step()
    {
        if (remaining-- <= 0)
            return;
        Tick d = rng.range(1, 5000);
        if (rng.below(100) < 3)
            d += 16u << 20; // occasional far-future event
        sim.scheduleIn(d, [this] { step(); });
    }
};

SimTask
coBouncer(Simulation &sim, Rng rng, int n)
{
    for (int i = 0; i < n; ++i)
        co_await sim.delay(rng.range(1, 10000));
}

std::pair<Tick, std::uint64_t>
seededWorkload()
{
    Simulation sim;
    std::vector<std::unique_ptr<Bouncer>> actors;
    for (std::uint64_t i = 0; i < 64; ++i)
        actors.push_back(std::make_unique<Bouncer>(
            Bouncer{sim, Rng(i * 7 + 1), 200}));
    for (auto &a : actors)
        a->step();
    for (std::uint64_t i = 0; i < 16; ++i)
        coBouncer(sim, Rng(1000 + i), 100);
    // Same-tick FIFO pressure: bursts at one tick.
    int sink = 0;
    for (int i = 0; i < 256; ++i)
        sim.scheduleAt(4096, [&sink] { ++sink; });
    // Stage part of the run through horizons.
    sim.runUntil(fromNs(500));
    sim.runUntil(fromNs(501));
    Tick end = sim.run();
    return {end, sim.eventsExecuted()};
}

TEST(Simulation, SeededWorkloadIsDeterministic)
{
    auto [tick, count] = seededWorkload();
    EXPECT_EQ(tick, 185049211u);
    EXPECT_EQ(count, 14656u);
}

/**
 * A self-rescheduling chain whose capture (this + two 64-bit values)
 * exceeds std::function's 16-byte small buffer: the original kernel
 * heap-allocated every such event, the current one stores it inline.
 */
struct WideBouncer
{
    Simulation &sim;
    Rng rng;
    int remaining;
    std::uint64_t acc = 0;

    void
    step()
    {
        if (remaining-- <= 0)
            return;
        const std::uint32_t r = rng.next32();
        Tick d = 1 + (r & 0x3fffff); // up to ~4.2 us
        if ((r >> 22) % 50 == 0)
            d += 1ull << 24; // rare long timer, beyond the calendar
        const std::uint64_t a = r;
        const std::uint64_t b = ~static_cast<std::uint64_t>(r);
        sim.scheduleIn(d, [this, a, b] {
            acc ^= a + b;
            step();
        });
    }
};

/** A coroutine repeatedly sleeping: the sync-primitive hot path. */
SimTask
pinger(Simulation &sim, Rng rng, int n)
{
    for (int i = 0; i < n; ++i)
        co_await sim.delay(1 + (rng.next32() & 0x7fffff));
}

TEST(Simulation, PlatformSizedMixMatchesSeedKernel)
{
    // ~1.5K events in flight, like a full platform: two thirds
    // callbacks, one third coroutine wake-ups.
    Simulation sim;
    std::vector<std::unique_ptr<WideBouncer>> bouncers;
    for (std::uint32_t i = 0; i < 1024; ++i) {
        bouncers.push_back(std::make_unique<WideBouncer>(
            WideBouncer{sim, Rng(7u * i + 1), 500}));
        bouncers.back()->step();
    }
    for (std::uint32_t i = 0; i < 512; ++i)
        pinger(sim, Rng(1000u + i), 500);
    const Tick end = sim.run();
    EXPECT_EQ(end, 2318541919u);
    EXPECT_EQ(sim.eventsExecuted(), 768000u);
}

TEST(Simulation, FarFutureEventsCrossTheCalendarWindow)
{
    // Events far beyond the calendar window (overflow-heap path) must
    // still interleave with near events in exact time order.
    Simulation sim;
    std::vector<Tick> order;
    const Tick far = fromNs(1'000'000); // ~1 ms, way past the window
    sim.scheduleAt(far + 3, [&] { order.push_back(sim.now()); });
    sim.scheduleAt(2, [&] { order.push_back(sim.now()); });
    sim.scheduleAt(far, [&] {
        order.push_back(sim.now());
        // Reschedule near-now from a formerly-far event.
        sim.scheduleIn(1, [&] { order.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 2u);
    EXPECT_EQ(order[1], far);
    EXPECT_EQ(order[2], far + 1);
    EXPECT_EQ(order[3], far + 3);
}

TEST(Simulation, IdleReflectsPendingEvents)
{
    Simulation sim;
    EXPECT_TRUE(sim.idle());
    sim.scheduleAt(10, [] {});
    EXPECT_FALSE(sim.idle());
    sim.run();
    EXPECT_TRUE(sim.idle());
}

TEST(InlineCallback, SmallCapturesStayInline)
{
    struct Capture
    {
        std::uint64_t a, b, c;
    };
    static_assert(InlineCallback::fitsInline<Capture>);
    Capture cap{1, 2, 3};
    std::uint64_t sum = 0;
    InlineCallback cb([cap, &sum] { sum = cap.a + cap.b + cap.c; });
    InlineCallback moved = std::move(cb);
    EXPECT_FALSE(static_cast<bool>(cb));
    ASSERT_TRUE(static_cast<bool>(moved));
    moved();
    EXPECT_EQ(sum, 6u);
}

TEST(InlineCallback, OversizedCapturesFallBackToHeap)
{
    struct Big
    {
        std::uint64_t words[16];
    };
    static_assert(!InlineCallback::fitsInline<decltype([b = Big{}] {
        (void)b;
    })>);
    Big big{};
    for (int i = 0; i < 16; ++i)
        big.words[i] = static_cast<std::uint64_t>(i);
    std::uint64_t sum = 0;
    InlineCallback cb([big, &sum] {
        for (auto w : big.words)
            sum += w;
    });
    // Move it around (exercises the heap-cell pointer relocation),
    // then run through a Simulation to cover the scheduling path.
    InlineCallback moved = std::move(cb);
    Simulation sim;
    sim.scheduleAt(5, std::move(moved));
    sim.run();
    EXPECT_EQ(sum, 120u);
}

TEST(InlineCallback, NonTrivialCapturesDestructOnce)
{
    auto counter = std::make_shared<int>(0);
    {
        InlineCallback cb([counter] { /* hold a ref */ });
        InlineCallback moved = std::move(cb);
        InlineCallback assigned;
        assigned = std::move(moved);
        EXPECT_EQ(counter.use_count(), 2);
    }
    EXPECT_EQ(counter.use_count(), 1);
}

TEST(Stats, HistogramPercentiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.add(i);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_NEAR(h.percentile(50), 50.5, 0.01);
    EXPECT_NEAR(h.percentile(99), 99.01, 0.1);
    EXPECT_DOUBLE_EQ(h.min(), 1);
    EXPECT_DOUBLE_EQ(h.max(), 100);
}

TEST(Stats, HistogramReservoirKeepsBounds)
{
    Histogram h(128);
    for (int i = 0; i < 10000; ++i)
        h.add(i);
    EXPECT_EQ(h.count(), 10000u);
    EXPECT_DOUBLE_EQ(h.max(), 9999);
    double p50 = h.percentile(50);
    EXPECT_GT(p50, 2000);
    EXPECT_LT(p50, 8000);
}


TEST(Stats, HistogramMergePreservesExactMoments)
{
    Histogram a, b;
    for (int i = 1; i <= 50; ++i)
        a.add(i);
    for (int i = 51; i <= 100; ++i)
        b.add(i);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_DOUBLE_EQ(a.mean(), 50.5);
    EXPECT_DOUBLE_EQ(a.min(), 1);
    EXPECT_DOUBLE_EQ(a.max(), 100);
    EXPECT_NEAR(a.percentile(50), 50.5, 0.01);
}

TEST(Stats, HistogramMergeAcrossReservoirCap)
{
    Histogram a(64), b(64);
    for (int i = 0; i < 1000; ++i)
        b.add(i);
    a.merge(b);
    EXPECT_EQ(a.count(), 1000u);
    EXPECT_DOUBLE_EQ(a.max(), 999);
    EXPECT_NEAR(a.mean(), 499.5, 0.01);
}

TEST(Stats, CycleAccountFractions)
{
    CycleAccount acc;
    acc.charge("busy", 300);
    acc.charge("umwait", 700);
    EXPECT_EQ(acc.totalTicks(), 1000u);
    EXPECT_DOUBLE_EQ(acc.fraction("umwait"), 0.7);
    EXPECT_DOUBLE_EQ(acc.fraction("missing"), 0.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next32(), b.next32());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(13), 13u);
}

TEST(Rng, UniformCoversRange)
{
    Rng r(9);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

} // namespace
} // namespace dsasim
