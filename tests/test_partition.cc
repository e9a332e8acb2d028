/**
 * @file
 * Conservative-lookahead partition runner tests (DESIGN.md §11):
 *
 *  - cross-channel messages arrive at exact, wire-latency-derived
 *    ticks (a two-domain ping-pong with hand-computed timestamps);
 *  - the determinism contract: per-domain and combined stream hashes
 *    are bit-identical for 1, 2 and 4 worker threads, including when
 *    same-tick messages from several source domains collide at one
 *    destination (canonical delivery order);
 *  - contract violations die loudly: posting inside the lookahead
 *    window, overflowing a bounded channel, asking for a port
 *    between unlinked sockets;
 *  - SocketCluster end-to-end: cross-socket pushes/pulls charge the
 *    remote node's real DRAM links.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "driver/cluster.hh"
#include "sim/partition.hh"
#include "sim/random.hh"
#include "sim/task.hh"

namespace dsasim
{
namespace
{

constexpr Tick kWire = fromNs(60);

TEST(Simulation, NextEventBoundTracksEarliestEvent)
{
    Simulation sim;
    EXPECT_EQ(sim.nextEventBound(), maxTick);
    sim.scheduleAt(fromUs(3), [] {});
    sim.scheduleAt(fromNs(100), [] {});
    // The bound may round down to a bucket start but never past the
    // clock, and never overshoots the true earliest event.
    EXPECT_LE(sim.nextEventBound(), fromNs(100));
    EXPECT_GE(sim.nextEventBound(), sim.now());
    sim.runWithin(fromNs(100));
    EXPECT_EQ(sim.now(), fromNs(100));
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.nextEventBound(), fromUs(3));
    sim.run();
    EXPECT_EQ(sim.nextEventBound(), maxTick);
}

TEST(Simulation, RunWithinLeavesClockAtLastEvent)
{
    Simulation sim;
    sim.scheduleAt(fromNs(10), [] {});
    sim.scheduleAt(fromNs(500), [] {});
    sim.runWithin(fromNs(100));
    EXPECT_EQ(sim.now(), fromNs(10));
    sim.run();
    EXPECT_EQ(sim.now(), fromNs(500));
}

TEST(Partition, PingPongArrivesAtExactWireLatency)
{
    Simulation a, b;
    PartitionSet set;
    unsigned da = set.addDomain(a, "a");
    unsigned db = set.addDomain(b, "b");
    PartitionChannel &ab = set.connect(da, db, kWire);
    PartitionChannel &ba = set.connect(db, da, kWire);

    std::vector<Tick> arrivals;
    constexpr int kRounds = 5;
    // Mutually recursive hops: a->b at now+wire, b->a back, etc.
    struct Hop
    {
        Simulation &sim;
        PartitionChannel &out;
        std::vector<Tick> &log;
        int left;
        Hop *back = nullptr;

        void
        bounce()
        {
            log.push_back(sim.now());
            if (left-- <= 0)
                return;
            out.post(sim.now() + kWire,
                     [this] { back->bounce(); });
        }
    };
    Hop ha{a, ab, arrivals, kRounds};
    Hop hb{b, ba, arrivals, kRounds};
    ha.back = &hb;
    hb.back = &ha;
    a.scheduleAt(0, [&ha] { ha.bounce(); });

    set.run(1);
    ASSERT_EQ(arrivals.size(),
              static_cast<std::size_t>(2 * kRounds + 1));
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i], static_cast<Tick>(i) * kWire) << i;
    EXPECT_TRUE(set.idle());
    EXPECT_EQ(ab.messagesSent(), static_cast<std::uint64_t>(kRounds));
    EXPECT_GE(set.epochsRun(), static_cast<std::uint64_t>(kRounds));
}

/**
 * A deterministic chatterbox domain: local events at pseudo-random
 * spacings, a message to the next domain every few steps. Message
 * handlers bump the destination's counter, so delivery reaches the
 * destination calendar (and its stream hash).
 */
struct Chatter
{
    Simulation &sim;
    PartitionChannel &out;
    std::uint64_t *peerCount;
    Rng rng;
    int left;

    void
    step()
    {
        if (left-- <= 0)
            return;
        if (rng.chance(0.3)) {
            std::uint64_t *pc = peerCount;
            out.post(sim.now() + out.minLatency() +
                         fromNs(rng.range(0, 100)),
                     [pc] { ++*pc; });
        }
        sim.scheduleIn(fromNs(rng.range(1, 50)),
                       [this] { step(); });
    }
};

struct RingRun
{
    std::uint64_t combined = 0;
    std::vector<std::uint64_t> hashes, counts, events;
    std::vector<Tick> ends;
};

RingRun
runRing(unsigned threads, int steps = 400)
{
    constexpr unsigned n = 4;
    std::vector<std::unique_ptr<Simulation>> sims;
    PartitionSet set;
    for (unsigned d = 0; d < n; ++d) {
        sims.push_back(std::make_unique<Simulation>());
        sims.back()->enableStreamHash(true);
        set.addDomain(*sims.back());
    }
    std::vector<PartitionChannel *> out;
    for (unsigned d = 0; d < n; ++d)
        out.push_back(&set.connect(d, (d + 1) % n, kWire));

    std::vector<std::uint64_t> counts(n, 0);
    std::vector<std::unique_ptr<Chatter>> chat;
    for (unsigned d = 0; d < n; ++d) {
        chat.push_back(std::make_unique<Chatter>(Chatter{
            *sims[d], *out[d], &counts[(d + 1) % n],
            Rng(1234 + d), steps}));
        sims[d]->scheduleAt(0, [c = chat.back().get()] {
            c->step();
        });
    }
    set.run(threads);
    EXPECT_TRUE(set.idle());

    RingRun r;
    r.combined = set.combinedStreamHash();
    r.counts = counts;
    for (unsigned d = 0; d < n; ++d) {
        r.hashes.push_back(sims[d]->streamHash());
        r.events.push_back(sims[d]->eventsExecuted());
        r.ends.push_back(sims[d]->now());
    }
    return r;
}

TEST(Partition, StreamHashIdenticalFor1And2And4Threads)
{
    RingRun t1 = runRing(1);
    RingRun t2 = runRing(2);
    RingRun t4 = runRing(4);
    EXPECT_EQ(t1.combined, t2.combined);
    EXPECT_EQ(t1.combined, t4.combined);
    EXPECT_EQ(t1.hashes, t2.hashes);
    EXPECT_EQ(t1.hashes, t4.hashes);
    EXPECT_EQ(t1.events, t4.events);
    EXPECT_EQ(t1.ends, t4.ends);
    EXPECT_EQ(t1.counts, t4.counts);
    // The scenario actually crossed domains.
    std::uint64_t delivered = 0;
    for (std::uint64_t c : t1.counts)
        delivered += c;
    EXPECT_GT(delivered, 100u);
}

TEST(Partition, SameTickCollisionsDeliverInCanonicalOrder)
{
    // Domains 0 and 1 both message domain 2 at identical ticks; the
    // execution order at domain 2 must be (tick, source domain,
    // FIFO) regardless of thread count or drain order.
    auto run = [](unsigned threads) {
        Simulation s0, s1, s2;
        PartitionSet set;
        set.addDomain(s0);
        set.addDomain(s1);
        set.addDomain(s2);
        PartitionChannel &c02 = set.connect(0, 2, kWire);
        PartitionChannel &c12 = set.connect(1, 2, kWire);
        std::vector<int> order;
        for (int i = 0; i < 8; ++i) {
            const Tick when = static_cast<Tick>(i + 1) * kWire;
            // Post from 1 first: the canonical sort, not post order,
            // must put domain 0's message ahead at the same tick.
            s1.scheduleAt(0, [&c12, &order, when, i] {
                c12.post(when, [&order, i] {
                    order.push_back(1000 + i);
                });
            });
            s0.scheduleAt(0, [&c02, &order, when, i] {
                c02.post(when, [&order, i] {
                    order.push_back(i);
                });
            });
        }
        set.run(threads);
        return order;
    };
    std::vector<int> want;
    for (int i = 0; i < 8; ++i) {
        want.push_back(i);
        want.push_back(1000 + i);
    }
    EXPECT_EQ(run(1), want);
    EXPECT_EQ(run(3), want);
}

TEST(PartitionDeath, PostingInsideLookaheadWindowPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulation a, b;
    PartitionSet set;
    set.addDomain(a);
    set.addDomain(b);
    PartitionChannel &ab = set.connect(0, 1, kWire);
    EXPECT_DEATH(ab.post(kWire / 2, [] {}), "violates lookahead");
}

TEST(PartitionDeath, ChannelOverflowIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulation a, b;
    PartitionSet set;
    set.addDomain(a);
    set.addDomain(b);
    PartitionChannel &ab = set.connect(0, 1, kWire, 4);
    auto fill = [&ab] {
        for (int i = 0; i < 5; ++i)
            ab.post(kWire + i, [] {});
    };
    EXPECT_DEATH(fill(), "overflow");
}

TEST(PartitionDeath, ZeroLatencyLinkIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Simulation a, b;
    PartitionSet set;
    set.addDomain(a);
    set.addDomain(b);
    EXPECT_DEATH(set.connect(0, 1, 0), "no lookahead");
}

ClusterConfig
smallCluster(unsigned sockets)
{
    ClusterConfig cc;
    cc.sockets = sockets;
    cc.socket = PlatformConfig::spr();
    cc.socket.numCores = 1;
    cc.socket.numDsaDevices = 1;
    for (auto &node : cc.socket.mem.nodes)
        node.capacityBytes = 1ull << 28;
    return cc;
}

TEST(SocketCluster, PushChargesRemoteWriteLink)
{
    SocketCluster cl(smallCluster(2));
    const std::uint64_t before =
        cl.plat(1).mem().node(0).writeLink.bytesServed();

    auto job = [](SocketCluster &c) -> SimTask {
        co_await c.port(0, 1).push(1 << 20);
        co_await c.port(0, 1).pull(1 << 16);
    };
    job(cl);
    cl.run(1);

    // Both calendars drained and no message left on a channel.
    EXPECT_TRUE(cl.domainSim(0).idle());
    EXPECT_TRUE(cl.domainSim(1).idle());
    EXPECT_TRUE(cl.partitions().idle());
    EXPECT_EQ(cl.port(0, 1).bytesPushed(), 1u << 20);
    EXPECT_EQ(cl.port(0, 1).bytesPulled(), 1u << 16);
    EXPECT_EQ(cl.plat(1).mem().node(0).writeLink.bytesServed(),
              before + (1 << 20));
    EXPECT_GT(cl.plat(1).mem().node(0).readLink.bytesServed(), 0u);
    // One push + one pull, each a full round trip over the wire.
    EXPECT_GT(cl.endTick(), 4 * kWire);
}

std::uint64_t
runClusterTraffic(SocketCluster &cl, unsigned threads, int rounds)
{
    cl.enableStreamHash(true);
    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        auto job = [](SocketCluster &c, unsigned from,
                      int n) -> SimTask {
            RemotePort &p =
                c.port(from, (from + 1) % c.socketCount());
            Rng rng(99 + from);
            for (int i = 0; i < n; ++i) {
                if (rng.chance(0.25))
                    co_await p.pull(rng.range(1 << 10, 1 << 14));
                else
                    co_await p.push(rng.range(1 << 10, 1 << 16));
            }
        };
        job(cl, s, rounds);
    }
    cl.run(threads);
    return cl.streamHash();
}

TEST(SocketCluster, StreamHashIndependentOfThreads)
{
    SocketCluster c1(smallCluster(4));
    SocketCluster c4(smallCluster(4));
    const std::uint64_t h1 = runClusterTraffic(c1, 1, 60);
    const std::uint64_t h4 = runClusterTraffic(c4, 4, 60);
    EXPECT_EQ(h1, h4);
    EXPECT_EQ(c1.eventsExecuted(), c4.eventsExecuted());
    EXPECT_EQ(c1.endTick(), c4.endTick());
}

TEST(SocketClusterDeath, UnlinkedPortIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SocketCluster cl(smallCluster(4));
    EXPECT_DEATH(cl.port(0, 2), "not linked");
}

} // namespace
} // namespace dsasim
