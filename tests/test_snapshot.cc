/**
 * @file
 * Snapshot/fork contract tests (DESIGN.md §10):
 *
 *  - a forked continuation executes the exact same event stream as
 *    simply continuing the source platform, with and without fault
 *    injection;
 *  - two forks of one snapshot are fully independent (copy-on-write
 *    memory, no shared mutable state);
 *  - capturing a platform with in-flight work is rejected loudly;
 *  - fuzz rounds snapshotted at random quiesce points stay
 *    bit-identical between the cold and forked arms.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "driver/snapshot.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

/** A Bench with the event-stream hash on and a hardware Executor. */
struct SnapBench : Bench
{
    SnapBench()
    {
        sim.enableStreamHash(true);
        DsaTopology::basic(32, 2).apply(plat.dsa(0));
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        ec.watchdogTimeout = fromUs(500);
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
    }

    std::unique_ptr<dml::Executor> exec;
};

/** A fork with its own hardware Executor, state carried over. */
struct Fork
{
    Fork(const Snapshot &snap, const dml::Executor::State &est)
        : forked(snap.fork())
    {
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        ec.watchdogTimeout = fromUs(500);
        exec = std::make_unique<dml::Executor>(
            forked->sim, forked->plat().mem(),
            forked->plat().kernels(),
            std::vector<DsaDevice *>{&forked->plat().dsa(0)}, ec);
        exec->restoreState(est);
    }

    Simulation &sim() { return forked->sim; }
    Platform &plat() { return forked->plat(); }
    AddressSpace &as() { return forked->plat().mem().space(1); }

    std::unique_ptr<Snapshot::Forked> forked;
    std::unique_ptr<dml::Executor> exec;
};

/** A seeded burst of mixed offloaded ops, driven to completion. */
SimTask
burst(Platform &plat, dml::Executor &exec, AddressSpace &as,
      Addr src, Addr dst, std::uint64_t span, std::uint64_t seed,
      int count, std::uint64_t &completion_hash)
{
    Rng rng(seed);
    Core &core = plat.core(0);
    for (int i = 0; i < count; ++i) {
        if (!plat.dsa(0).enabled())
            plat.dsa(0).enable();
        std::uint64_t n = rng.range(64, 32 << 10);
        std::uint64_t so = rng.range(0, span - n);
        std::uint64_t dof = rng.range(0, span - n);
        WorkDescriptor d;
        switch (rng.below(3)) {
          case 0:
            d = dml::Executor::memMove(as, dst + dof, src + so, n);
            break;
          case 1:
            d = dml::Executor::fill(as, dst + dof, rng.next64(), n);
            break;
          default:
            d = dml::Executor::crc32(as, src + so, n);
            break;
        }
        d.flags &= ~descflags::blockOnFault;
        dml::OpResult r;
        co_await exec.executeRecover(core, d, r);
        completion_hash ^= (static_cast<std::uint64_t>(r.status) +
                            r.bytesCompleted * 31 + r.crc) *
                           0x9e3779b97f4a7c15ull;
        completion_hash =
            (completion_hash << 7) | (completion_hash >> 57);
    }
}

struct Fingerprint
{
    std::uint64_t streamHash;
    std::uint64_t completions;
    std::uint64_t events;
    Tick end;
    std::vector<std::uint8_t> dstImage;

    bool
    operator==(const Fingerprint &o) const
    {
        return streamHash == o.streamHash &&
               completions == o.completions && events == o.events &&
               end == o.end && dstImage == o.dstImage;
    }
};

Fingerprint
playPhase(Simulation &sim, Platform &plat, dml::Executor &exec,
          AddressSpace &as, Addr src, Addr dst, std::uint64_t span,
          std::uint64_t seed, int count)
{
    Fingerprint fp{};
    burst(plat, exec, as, src, dst, span, seed, count,
          fp.completions);
    sim.run();
    fp.streamHash = sim.streamHash();
    fp.events = sim.eventsExecuted();
    fp.end = sim.now();
    fp.dstImage.resize(span);
    as.read(dst, fp.dstImage.data(), span);
    return fp;
}

/** Cold-continue vs fork: every fingerprint component must match. */
void
coldVsForked(const char *faults)
{
    SnapBench b;
    if (faults[0] != '\0') {
        auto fi = FaultInjector::fromSpec(faults, 0x5eed);
        b.plat.setFaultInjector(std::move(fi));
    }
    const std::uint64_t span = 1 << 20;
    Addr src = b.as->alloc(span);
    Addr dst = b.as->alloc(span);
    b.randomize(src, span, 7);

    // Warm phase, then checkpoint the drained platform.
    std::uint64_t warm_hash = 0;
    burst(b.plat, *b.exec, *b.as, src, dst, span, 11, 30,
          warm_hash);
    b.sim.run();
    Snapshot snap = Snapshot::capture(b.plat);
    dml::Executor::State est = b.exec->saveState();

    Fork fork(snap, est);
    Fingerprint forked = playPhase(fork.sim(), fork.plat(),
                                   *fork.exec, fork.as(), src, dst,
                                   span, 23, 40);
    Fingerprint cold = playPhase(b.sim, b.plat, *b.exec, *b.as, src,
                                 dst, span, 23, 40);
    EXPECT_EQ(cold.streamHash, forked.streamHash);
    EXPECT_EQ(cold.completions, forked.completions);
    EXPECT_EQ(cold.events, forked.events);
    EXPECT_EQ(cold.end, forked.end);
    EXPECT_EQ(cold.dstImage, forked.dstImage);
}

TEST(Snapshot, ForkedStreamMatchesColdContinuation)
{
    coldVsForked("");
}

TEST(Snapshot, ForkedStreamMatchesColdContinuationUnderFaults)
{
    coldVsForked("page-fault:p=0.02;hw-error:p=0.03,error=read");
}

TEST(Snapshot, DoubleForkIsolatesWrites)
{
    SnapBench b;
    const std::uint64_t span = 256 << 10;
    Addr src = b.as->alloc(span);
    Addr dst = b.as->alloc(span);
    b.randomize(src, span, 3);
    Snapshot snap = Snapshot::capture(b.plat);
    dml::Executor::State est = b.exec->saveState();

    // Divergent fills: each fork writes its own pattern over dst.
    Fork f1(snap, est);
    Fork f2(snap, est);
    Fingerprint a = playPhase(f1.sim(), f1.plat(), *f1.exec,
                              f1.as(), src, dst, span, 101, 25);
    Fingerprint c = playPhase(f2.sim(), f2.plat(), *f2.exec,
                              f2.as(), src, dst, span, 202, 25);
    EXPECT_NE(a.dstImage, c.dstImage);
    EXPECT_NE(a.streamHash, c.streamHash);

    // Replaying fork 1's seed on a third fork reproduces fork 1
    // exactly — fork 2's writes did not leak through the shared
    // copy-on-write chunks.
    Fork f3(snap, est);
    Fingerprint a2 = playPhase(f3.sim(), f3.plat(), *f3.exec,
                               f3.as(), src, dst, span, 101, 25);
    EXPECT_TRUE(a == a2);

    // The source platform never saw any of it.
    std::vector<std::uint8_t> base(span);
    b.as->read(dst, base.data(), span);
    EXPECT_NE(base, a.dstImage);
}

using SnapshotDeath = ::testing::Test;

TEST(SnapshotDeath, CaptureUnderLoadIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SnapBench b;
    const std::uint64_t n = 1 << 20;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    dml::OpResult out;
    bool fin = false;
    test::driveOp(b, *b.exec,
                  dml::Executor::memMove(*b.as, dst, src, n), out,
                  fin);
    // A few ticks in: the descriptor is in flight, the calendar is
    // not idle, and capture must refuse.
    b.sim.runUntil(b.sim.now() + fromNs(200));
    ASSERT_FALSE(fin);
    EXPECT_DEATH(Snapshot::capture(b.plat), "still pending");
}

TEST(Snapshot, FuzzRoundsAtRandomQuiescePoints)
{
    SnapBench b;
    Rng rng(0xf0f0);
    const std::uint64_t span = 512 << 10;
    Addr src = b.as->alloc(span);
    Addr dst = b.as->alloc(span);
    b.randomize(src, span, 5);

    std::uint64_t seed = 1000;
    for (int round = 0; round < 8; ++round) {
        // Advance the base platform by a random amount of work.
        std::uint64_t h = 0;
        burst(b.plat, *b.exec, *b.as, src, dst, span, seed++,
              1 + static_cast<int>(rng.below(12)), h);
        b.sim.run();
        if (!rng.chance(0.5))
            continue;

        // Random quiesce point: checkpoint, then play the next
        // burst on a fork and on the base; they must agree bit for
        // bit.
        Snapshot snap = Snapshot::capture(b.plat);
        dml::Executor::State est = b.exec->saveState();
        std::uint64_t burst_seed = seed++;
        int count = 1 + static_cast<int>(rng.below(10));
        Fork fork(snap, est);
        Fingerprint forked =
            playPhase(fork.sim(), fork.plat(), *fork.exec,
                      fork.as(), src, dst, span, burst_seed, count);
        Fingerprint cold =
            playPhase(b.sim, b.plat, *b.exec, *b.as, src, dst, span,
                      burst_seed, count);
        ASSERT_TRUE(cold == forked) << "round " << round;
    }
}

} // namespace
} // namespace dsasim
