/**
 * @file
 * Tests for the dml::Executor public API: path selection, sync and
 * async jobs, batches, load balancing, and result harvesting.
 */

#include <gtest/gtest.h>

#include "ops/crc32.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

struct DmlBench : Bench
{
    explicit DmlBench(dml::ExecutorConfig ec = {},
                      unsigned devices = 1)
        : Bench(test::smallSpr(devices))
    {
        std::vector<DsaDevice *> devs;
        for (unsigned i = 0; i < devices; ++i) {
            DsaTopology::basic().apply(plat.dsa(i));
            devs.push_back(&plat.dsa(i));
        }
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(), devs, ec);
    }

    dml::OpResult
    run(const WorkDescriptor &d)
    {
        dml::OpResult out;
        bool fin = false;
        test::driveOp(*this, *exec, d, out, fin);
        sim.run();
        EXPECT_TRUE(fin);
        return out;
    }

    std::unique_ptr<dml::Executor> exec;
};

TEST(Dml, AutoPathSplitsBySize)
{
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Auto;
    DmlBench b(ec);
    Addr src = b.as->alloc(64 << 10);
    Addr dst = b.as->alloc(64 << 10);

    auto small = b.run(dml::Executor::memMove(*b.as, dst, src, 512));
    EXPECT_FALSE(small.usedHardware);
    auto large =
        b.run(dml::Executor::memMove(*b.as, dst, src, 16 << 10));
    EXPECT_TRUE(large.usedHardware);
    EXPECT_EQ(b.exec->swJobs, 1u);
    EXPECT_EQ(b.exec->hwJobs, 1u);
}

TEST(Dml, SoftwarePathNeverTouchesDevice)
{
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Software;
    DmlBench b(ec);
    Addr src = b.as->alloc(1 << 20);
    Addr dst = b.as->alloc(1 << 20);
    b.randomize(src, 1 << 20);
    auto r = b.run(dml::Executor::memMove(*b.as, dst, src, 1 << 20));
    EXPECT_FALSE(r.usedHardware);
    EXPECT_TRUE(b.as->equal(src, dst, 1 << 20));
    EXPECT_EQ(b.plat.dsa(0).descriptorsProcessed(), 0u);
}

TEST(Dml, HardwareAndSoftwareAgreeOnResults)
{
    DmlBench b;
    const std::uint64_t n = 48 << 10;
    Addr src = b.as->alloc(n);
    b.randomize(src, n, 3);

    dml::OpResult hw, sw;
    bool f1 = false, f2 = false;
    struct Drv
    {
        static SimTask
        go(DmlBench &db, WorkDescriptor d, bool hw_path,
           dml::OpResult &o, bool &fin)
        {
            if (hw_path)
                co_await db.exec->executeHardware(db.plat.core(0), d,
                                                  o);
            else
                co_await db.exec->executeSoftware(db.plat.core(0), d,
                                                  o);
            fin = true;
        }
    };
    Drv::go(b, dml::Executor::crc32(*b.as, src, n), true, hw, f1);
    b.sim.run();
    Drv::go(b, dml::Executor::crc32(*b.as, src, n), false, sw, f2);
    b.sim.run();
    ASSERT_TRUE(f1 && f2);
    EXPECT_EQ(hw.crc, sw.crc);
    EXPECT_TRUE(hw.usedHardware);
    EXPECT_FALSE(sw.usedHardware);
}

TEST(Dml, RoundRobinLoadBalancing)
{
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    DmlBench b(ec, /*devices=*/2);
    Addr src = b.as->alloc(256 << 10);
    Addr dst = b.as->alloc(256 << 10);
    for (int i = 0; i < 8; ++i)
        b.run(dml::Executor::memMove(*b.as, dst, src, 4096));
    EXPECT_EQ(b.plat.dsa(0).descriptorsProcessed(), 4u);
    EXPECT_EQ(b.plat.dsa(1).descriptorsProcessed(), 4u);
}

TEST(Dml, DwqCreditsBackpressure)
{
    // WQ of 4 entries: more than 4 concurrent jobs must still all
    // complete (submits block on credits instead of overflowing).
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    DmlBench b(ec);
    // Reconfigure: device 0 already configured with wq 32 by ctor;
    // use a second bench instead.
    Bench b2(test::smallSpr());
    DsaTopology::basic(/*wq_size=*/4).apply(b2.plat.dsa(0));
    dml::Executor exec(b2.sim, b2.plat.mem(), b2.plat.kernels(),
                       {&b2.plat.dsa(0)}, ec);
    const int jobs = 16;
    const std::uint64_t n = 64 << 10;
    Addr src = b2.as->alloc(n * jobs);
    Addr dst = b2.as->alloc(n * jobs);
    int completed = 0;

    struct Drv
    {
        static SimTask
        go(Bench &bb, dml::Executor &ex, Addr s, Addr d,
           std::uint64_t len, int count, int &done)
        {
            std::vector<std::unique_ptr<dml::Job>> jobs_v;
            for (int i = 0; i < count; ++i) {
                auto job = ex.prepare(dml::Executor::memMove(
                    *bb.as, d + static_cast<Addr>(i) * len,
                    s + static_cast<Addr>(i) * len, len));
                co_await ex.submit(bb.plat.core(0), *job);
                jobs_v.push_back(std::move(job));
            }
            dml::OpResult r;
            for (auto &j : jobs_v) {
                co_await ex.wait(bb.plat.core(0), *j, r);
                if (r.ok)
                    ++done;
            }
        }
    };
    Drv::go(b2, exec, src, dst, n, jobs, completed);
    b2.sim.run();
    EXPECT_EQ(completed, jobs);
}

TEST(Dml, BatchAggregatesSubResults)
{
    DmlBench b;
    const std::uint64_t n = 4096;
    std::vector<WorkDescriptor> subs;
    Addr src = b.as->alloc(n * 4);
    Addr dst = b.as->alloc(n * 4);
    for (int i = 0; i < 4; ++i) {
        subs.push_back(dml::Executor::memMove(
            *b.as, dst + static_cast<Addr>(i) * n,
            src + static_cast<Addr>(i) * n, n));
    }
    // Poison one sub-descriptor so the batch reports an error.
    subs[2].size = b.plat.dsa(0).params().maxTransferSize + 1;

    dml::OpResult out;
    bool fin = false;
    struct Drv
    {
        static SimTask
        go(DmlBench &db, std::vector<WorkDescriptor> s,
           dml::OpResult &o, bool &f)
        {
            co_await db.exec->executeBatch(db.plat.core(0), s, o);
            f = true;
        }
    };
    Drv::go(b, subs, out, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(out.status, CompletionRecord::Status::BatchError);
}

TEST(Dml, LatencyIsPopulated)
{
    DmlBench b;
    Addr src = b.as->alloc(1 << 20);
    Addr dst = b.as->alloc(1 << 20);
    auto r = b.run(dml::Executor::memMove(*b.as, dst, src, 1 << 20));
    // 1MB at 30 GB/s is ~33 us; latency must be in that ballpark.
    EXPECT_GT(r.latency, fromUs(30));
    EXPECT_LT(r.latency, fromUs(60));
}

TEST(DmlDeathTest, HardwarePathWithoutDevices)
{
    Bench b(test::smallSpr(0));
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    EXPECT_DEATH(dml::Executor(b.sim, b.plat.mem(), b.plat.kernels(),
                               {}, ec),
                 "no WQs");
}

} // namespace
} // namespace dsasim
