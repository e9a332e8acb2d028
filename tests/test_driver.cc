/**
 * @file
 * Tests for the driver layer: platform presets (Table 2), the
 * idxd-style configuration API, the submission instructions, and
 * UMWAIT/poll accounting.
 */

#include <gtest/gtest.h>

#include "driver/idxd.hh"
#include "driver/submitter.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

TEST(Platform, SprPresetMatchesTable2)
{
    PlatformConfig cfg = PlatformConfig::spr();
    EXPECT_EQ(cfg.numCores, 56);
    EXPECT_EQ(cfg.numDsaDevices, 4u);
    EXPECT_EQ(cfg.mem.llc.sizeBytes, 105ull << 20);
    EXPECT_EQ(cfg.dsa.maxWqs, 8u);
    EXPECT_EQ(cfg.dsa.maxEngines, 4u);
    // SPR has a CXL node; ICX does not.
    bool has_cxl = false;
    for (const auto &n : cfg.mem.nodes)
        has_cxl |= n.kind == MemKind::Cxl;
    EXPECT_TRUE(has_cxl);
}

TEST(Platform, IcxPresetMatchesTable2)
{
    PlatformConfig cfg = PlatformConfig::icx();
    EXPECT_EQ(cfg.numCores, 40);
    EXPECT_EQ(cfg.numDsaDevices, 0u);
    EXPECT_EQ(cfg.numCbdmaDevices, 1u);
    EXPECT_EQ(cfg.mem.llc.sizeBytes, 57ull << 20);
    EXPECT_EQ(cfg.cbdma.channels, 16u);
    for (const auto &n : cfg.mem.nodes)
        EXPECT_NE(n.kind, MemKind::Cxl);
}

TEST(Platform, ConfigureFullBuildsTable2Topology)
{
    Bench b;
    DsaTopology::full().apply(b.plat.dsa(0));
    DsaDevice &dev = b.plat.dsa(0);
    EXPECT_TRUE(dev.enabled());
    EXPECT_EQ(dev.groupCount(), 4u);
    EXPECT_EQ(dev.wqCount(), 8u);
    EXPECT_EQ(dev.engineCount(), 4u);
}

TEST(Idxd, ListReportsTopology)
{
    Bench b;
    idxd::Driver drv(b.plat);
    ASSERT_EQ(drv.deviceCount(), 1u);
    DsaDevice &dev = drv.device(0);
    Group &g = drv.configGroup(dev);
    drv.configWq(dev, g, {WorkQueue::Mode::Shared, 24, 3, 0, "swq"});
    drv.configEngine(dev, g);
    drv.enableDevice(dev);
    auto lines = drv.list();
    ASSERT_GE(lines.size(), 2u);
    EXPECT_NE(lines[0].find("enabled"), std::string::npos);
    EXPECT_NE(lines[1].find("shared"), std::string::npos);
    EXPECT_NE(lines[1].find("size=24"), std::string::npos);
    EXPECT_NE(lines[1].find("priority=3"), std::string::npos);
}


TEST(Idxd, SwqThresholdLimitsAdmission)
{
    Bench b;
    idxd::Driver drv(b.plat);
    DsaDevice &dev = drv.device(0);
    Group &g = drv.configGroup(dev);
    WorkQueue &wq = drv.configWq(
        dev, g, {WorkQueue::Mode::Shared, 16, 0, /*threshold=*/2,
                 "swq"});
    drv.configEngine(dev, g);
    drv.enableDevice(dev);

    // Three back-to-back ENQCMDs before any dispatch can drain the
    // queue: the third must see Retry at the threshold of 2.
    Addr buf = b.as->alloc(3 << 20);
    struct Drv
    {
        static SimTask
        go(Bench &bb, WorkQueue &q, Addr a, int &retries,
           std::array<CompletionRecord, 3> &crs)
        {
            Submitter sub(bb.plat.core(0), bb.plat.dsa(0).params());
            for (int i = 0; i < 3; ++i) {
                WorkDescriptor d = dml::Executor::memMove(
                    *bb.as, a + (1 << 20) + i * 4096,
                    a + i * 4096, 4096);
                d.completion = &crs[i];
                bool accepted = false;
                // Submit without yielding to the dispatch event.
                auto st = bb.plat.dsa(0).submit(q, d);
                accepted = st == DsaDevice::SubmitStatus::Accepted;
                if (!accepted)
                    ++retries;
                (void)sub;
            }
            co_return;
        }
    };
    int retries = 0;
    // The records must outlive the run: accepted descriptors write
    // their completions long after go()'s frame is gone.
    std::array<CompletionRecord, 3> crs{
        CompletionRecord(b.sim), CompletionRecord(b.sim),
        CompletionRecord(b.sim)};
    Drv::go(b, wq, buf, retries, crs);
    b.sim.run();
    EXPECT_EQ(retries, 1);
    EXPECT_EQ(wq.threshold, 2u);
}

TEST(Idxd, ReadBufferAllocationValidated)
{
    Bench b;
    idxd::Driver drv(b.plat);
    DsaDevice &dev = drv.device(0);
    Group &g = drv.configGroup(dev);
    drv.configWq(dev, g, {});
    drv.configEngine(dev, g);
    drv.configGroupReadBuffers(dev, g, 64);
    drv.enableDevice(dev);
    EXPECT_EQ(dev.group(0).readBuffers, 64u);
}

TEST(Submitter, MovdirIsPostedEnqcmdIsNot)
{
    Bench b;
    DsaTopology::basic(32, 1, WorkQueue::Mode::Dedicated).apply(b.plat.dsa(0));
    Core &core = b.plat.core(0);
    Submitter sub(core, b.plat.dsa(0).params());

    Addr buf = b.as->alloc(4096);
    CompletionRecord cr(b.sim);
    WorkDescriptor d = dml::Executor::memMove(*b.as, buf, buf, 64);
    d.completion = &cr;

    struct Drv
    {
        static SimTask
        go(Bench &bb, Submitter &s, WorkDescriptor wd, Tick &cost)
        {
            Tick t0 = bb.sim.now();
            co_await s.movdir64b(bb.plat.dsa(0),
                                 bb.plat.dsa(0).wq(0), wd);
            cost = bb.sim.now() - t0;
        }
    };
    Tick movdir_cost = 0;
    Drv::go(b, sub, d, movdir_cost);
    b.sim.run();
    // MOVDIR64B resumes after the core-side store only.
    EXPECT_EQ(movdir_cost, b.plat.dsa(0).params().submitMovdirCost);
    EXPECT_TRUE(cr.isDone());
}

TEST(Submitter, EnqcmdBlocksForRoundTrip)
{
    Bench b;
    DsaTopology::basic(32, 1, WorkQueue::Mode::Shared).apply(b.plat.dsa(0));
    Core &core = b.plat.core(0);
    Submitter sub(core, b.plat.dsa(0).params());
    Addr buf = b.as->alloc(4096);
    CompletionRecord cr(b.sim);
    WorkDescriptor d = dml::Executor::memMove(*b.as, buf, buf, 64);
    d.completion = &cr;

    struct Drv
    {
        static SimTask
        go(Bench &bb, Submitter &s, WorkDescriptor wd, Tick &cost,
           bool &acc)
        {
            Tick t0 = bb.sim.now();
            co_await s.enqcmd(bb.plat.dsa(0), bb.plat.dsa(0).wq(0),
                              wd, acc);
            cost = bb.sim.now() - t0;
        }
    };
    Tick cost = 0;
    bool accepted = false;
    Drv::go(b, sub, d, cost, accepted);
    b.sim.run();
    EXPECT_TRUE(accepted);
    EXPECT_EQ(cost, b.plat.dsa(0).params().enqcmdRoundTrip);
}

TEST(Submitter, UmwaitAccountsWaitTime)
{
    Bench b;
    DsaTopology::basic().apply(b.plat.dsa(0));
    Core &core = b.plat.core(0);
    Submitter sub(core, b.plat.dsa(0).params());
    const std::uint64_t n = 1 << 20;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    CompletionRecord cr(b.sim);
    WorkDescriptor d = dml::Executor::memMove(*b.as, dst, src, n);
    d.completion = &cr;

    struct Drv
    {
        static SimTask
        go(Bench &bb, Submitter &s, WorkDescriptor wd,
           CompletionRecord &rec)
        {
            co_await s.movdir64b(bb.plat.dsa(0),
                                 bb.plat.dsa(0).wq(0), wd);
            co_await s.umwait(rec);
        }
    };
    Drv::go(b, sub, d, cr);
    b.sim.run();
    // A 1MB copy takes ~35us; nearly all of it is UMWAIT time.
    EXPECT_GT(core.umwaitTicks(), fromUs(30));
    EXPECT_GT(core.cycleAccount().fraction("umwait"), 0.9);
}

} // namespace
} // namespace dsasim
