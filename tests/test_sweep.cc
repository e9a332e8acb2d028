/**
 * @file
 * Tests for the parallel benchmark sweep harness: worker-count
 * selection from DSASIM_JOBS and — the property the figure benches
 * rely on — byte-identical results whether a sweep runs serially or
 * on a thread pool.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>

#include "apps/fabric.hh"
#include "apps/minicache.hh"
#include "apps/nvmetcp.hh"
#include "apps/xmem.hh"
#include "bench/common.hh"
#include "dto/dto.hh"

namespace dsasim::bench
{
namespace
{

/**
 * One small real bench config (async memcpy over a few transfer
 * sizes), each point with its own Rig, formatted exactly like a
 * table row.
 */
std::vector<std::string>
measureSweep(unsigned jobs)
{
    const std::vector<std::uint64_t> sizes = {1 << 10, 4 << 10,
                                              16 << 10, 64 << 10};
    SweepRunner sweep(jobs);
    return sweep.run(sizes.size(), [&](std::size_t i) {
        Rig rig{Rig::Options{}};
        auto ring = memMoveRing(rig, sizes[i], 4);
        Measure m = asyncHw(rig, ring, /*total=*/32, /*depth=*/8);
        return fmtSize(sizes[i]) + "," + fmt(m.gbps) + "," +
               std::to_string(m.iterations);
    });
}

TEST(SweepRunner, ParallelMatchesSerialByteForByte)
{
    auto serial = measureSweep(1);
    auto threaded = measureSweep(4);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], threaded[i]) << "row " << i;
}

/** A core streaming 4 KB memcpy()s until @p until (fig13's copier). */
SimTask
softwareCopier(Rig &rig, int core_id, Tick until)
{
    Core &core = rig.plat.core(static_cast<std::size_t>(core_id));
    const std::uint64_t ts = 4096;
    const std::uint64_t span = 2ull << 20;
    Addr src = rig.as->alloc(span);
    Addr dst = rig.as->alloc(span);
    for (std::uint64_t off = 0; rig.sim.now() < until;
         off = (off + ts) % span) {
        auto r = rig.plat.kernels().memcpyOp(core, *rig.as, dst + off,
                                             src + off, ts);
        co_await core.busyFor(r.duration, "memcpy-bg");
    }
}

/**
 * One small point per app the figure benches run concurrently, on
 * its own rig: X-Mem probes behind a memcpy warm-up (fig13), a
 * MiniCache over DTO (fig19), a ring AllReduce (fig17/18) and an
 * NVMe/TCP target (fig21). Points 0-3 take the CPU path, 4-7 DSA.
 */
std::string
appPoint(std::size_t i)
{
    const bool dsa = i >= 4;
    Rig::Options o;
    o.devices = 2;
    Rig rig(o);
    switch (i % 4) {
    case 0: {
        std::vector<std::unique_ptr<apps::XMemProbe>> probes;
        for (int c = 0; c < 2; ++c) {
            probes.push_back(std::make_unique<apps::XMemProbe>(
                rig.plat, *rig.as,
                rig.plat.core(static_cast<std::size_t>(c)),
                dsa ? 2ull << 20 : 1ull << 20,
                7 + static_cast<std::uint64_t>(c)));
            probes.back()->warmAll();
        }
        softwareCopier(rig, 2, fromUs(60));
        rig.sim.runUntil(fromUs(20));
        std::vector<Histogram> hists(probes.size());
        for (std::size_t p = 0; p < probes.size(); ++p)
            probes[p]->run(fromUs(60), hists[p]);
        rig.sim.runUntil(fromUs(60));
        return "xmem," + fmt(hists[0].mean(), 4) + "," +
               fmt(hists[1].mean(), 4) + "," +
               std::to_string(hists[0].count() + hists[1].count());
    }
    case 1: {
        Dto::Config dc;
        dc.threshold = dsa ? 8192 : ~std::uint64_t(0);
        Dto dto(*rig.exec, dc);
        apps::MiniCache::Config cc;
        cc.capacityBytes = 2ull << 20;
        apps::MiniCache cache(rig.plat, *rig.as, dto, cc);
        struct Drv
        {
            static SimTask
            go(Rig &r, apps::MiniCache &c, Addr buf)
            {
                Core &core = r.plat.core(0);
                for (std::uint64_t k = 0; k < 48; ++k) {
                    bool hit = false;
                    std::uint64_t len = 0;
                    co_await c.get(core, k % 16, buf, len, hit);
                    if (!hit)
                        co_await c.set(core, k % 16, buf,
                                       (k % 3 + 1) * (12 << 10));
                }
            }
        };
        Drv::go(rig, cache, rig.as->alloc(64 << 10));
        rig.sim.run();
        return "minicache," + std::to_string(rig.sim.now()) + "," +
               std::to_string(cache.itemCount()) + "," +
               std::to_string(dto.bytesOffloaded) + "," +
               std::to_string(dto.bytesOnCpu);
    }
    case 2: {
        apps::RingAllReduce::Config cfg;
        cfg.channel.useDsa = dsa;
        apps::RingAllReduce ar(rig.plat, *rig.as, rig.exec.get(), 4,
                               cfg);
        struct Drv
        {
            static SimTask
            go(apps::RingAllReduce &a)
            {
                co_await a.run(256 << 10);
            }
        };
        Drv::go(ar);
        rig.sim.run();
        return "allreduce," + std::to_string(rig.sim.now());
    }
    default: {
        apps::NvmeTcpTarget::Config cfg;
        cfg.digest = dsa ? apps::NvmeTcpTarget::Digest::Dsa
                         : apps::NvmeTcpTarget::Digest::IsaL;
        cfg.targetCores = 2;
        cfg.ioBytes = 16 << 10;
        apps::NvmeTcpTarget target(rig.plat, *rig.as, rig.exec.get(),
                                   cfg);
        target.run(fromUs(200));
        rig.sim.run();
        return "nvmetcp," + std::to_string(target.completedIos()) +
               "," + fmt(target.meanLatencyUs()) + "," +
               std::to_string(target.crcMismatches());
    }
    }
}

TEST(SweepRunner, AppPointsMatchSerialByteForByte)
{
    auto serial = SweepRunner(1).run(8, appPoint);
    auto threaded = SweepRunner(4).run(8, appPoint);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], threaded[i]) << "point " << i;
}

TEST(SweepRunner, ResultsComeBackInIndexOrder)
{
    SweepRunner sweep(8);
    auto out = sweep.run(100, [](std::size_t i) {
        return static_cast<int>(i) * 3;
    });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(SweepRunner, EmptyAndSingleItemRuns)
{
    SweepRunner sweep(4);
    EXPECT_TRUE(sweep.run(0, [](std::size_t) { return 1; }).empty());
    auto one = sweep.run(1, [](std::size_t) { return 42; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 42);
}

TEST(SweepRunner, JobsEnvOverride)
{
    setenv("DSASIM_JOBS", "3", 1);
    EXPECT_EQ(sweepJobs(), 3u);
    EXPECT_EQ(SweepRunner{}.jobs(), 3u);
    // Garbage or non-positive values fall back to the hardware count.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    setenv("DSASIM_JOBS", "0", 1);
    EXPECT_EQ(sweepJobs(), hw);
    setenv("DSASIM_JOBS", "abc", 1);
    EXPECT_EQ(sweepJobs(), hw);
    setenv("DSASIM_JOBS", "", 1);
    EXPECT_EQ(sweepJobs(), hw);
    unsetenv("DSASIM_JOBS");
    EXPECT_EQ(sweepJobs(), hw);
}

TEST(SweepRunner, JobsComposeWithPartitions)
{
    // jobs x partitions must never oversubscribe the host: explicit
    // DSASIM_JOBS is clamped when DSASIM_PARTITIONS > 1, and the
    // default hands the partition workers their share of the budget.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    setenv("DSASIM_PARTITIONS", "2", 1);
    setenv("DSASIM_JOBS", "1000000", 1);
    EXPECT_EQ(sweepJobs(), std::max(1u, hw / 2));
    EXPECT_LE(sweepJobs() * 2, std::max(2u, hw));
    setenv("DSASIM_JOBS", "1", 1);
    EXPECT_EQ(sweepJobs(), 1u); // explicit small value is untouched
    unsetenv("DSASIM_JOBS");
    EXPECT_EQ(sweepJobs(), std::max(1u, hw / 2));
    // partitions=1 restores today's behavior exactly.
    setenv("DSASIM_PARTITIONS", "1", 1);
    setenv("DSASIM_JOBS", "3", 1);
    EXPECT_EQ(sweepJobs(), 3u);
    unsetenv("DSASIM_JOBS");
    unsetenv("DSASIM_PARTITIONS");
    EXPECT_EQ(sweepJobs(), hw);
}

} // namespace
} // namespace dsasim::bench
