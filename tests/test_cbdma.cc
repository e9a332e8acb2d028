/**
 * @file
 * Tests for the CBDMA baseline: functional copies/fills, the
 * pinned-physical-memory contract, ring backpressure, and the
 * throughput relationship to DSA that underpins the paper's 2.1x
 * generational claim.
 */

#include <gtest/gtest.h>

#include "cbdma/cbdma.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

PlatformConfig
icxSmall()
{
    PlatformConfig cfg = PlatformConfig::icx();
    cfg.numCores = 4;
    cfg.mem.llc.sizeBytes = 8 << 20;
    cfg.mem.llc.ways = 8;
    for (auto &n : cfg.mem.nodes)
        n.capacityBytes = 2ull << 30;
    return cfg;
}

SimTask
copyOnce(Bench &b, CbdmaDevice &dev, Addr src, Addr dst,
         std::uint64_t n, bool &fin)
{
    auto ssegs = CbdmaDevice::pinRange(*b.as, src, n);
    auto dsegs = CbdmaDevice::pinRange(*b.as, dst, n);
    CompletionRecord cr(b.sim);
    CbdmaDescriptor d;
    d.srcPa = ssegs.front().first;
    d.dstPa = dsegs.front().first;
    d.size = n;
    d.completion = &cr;
    EXPECT_TRUE(dev.post(0, d));
    co_await cr.done.wait();
    fin = true;
}

TEST(Cbdma, CopyMovesBytes)
{
    Bench b(icxSmall());
    CbdmaDevice &dev = b.plat.cbdma(0);
    const std::uint64_t n = 64 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n);
    bool fin = false;
    copyOnce(b, dev, src, dst, n, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_TRUE(b.as->equal(src, dst, n));
    EXPECT_EQ(dev.descriptorsProcessed, 1u);
    EXPECT_EQ(dev.bytesCopied, n);
}

TEST(Cbdma, FillWritesPattern)
{
    Bench b(icxSmall());
    CbdmaDevice &dev = b.plat.cbdma(0);
    Addr dst = b.as->alloc(4096);
    auto segs = CbdmaDevice::pinRange(*b.as, dst, 4096);
    CompletionRecord cr(b.sim);
    CbdmaDescriptor d;
    d.op = CbdmaDescriptor::Op::Fill;
    d.dstPa = segs.front().first;
    d.size = 4096;
    d.pattern = 0x1122334455667788ull;
    d.completion = &cr;
    ASSERT_TRUE(dev.post(3, d));
    b.sim.run();
    EXPECT_TRUE(cr.isDone());
    EXPECT_EQ(b.as->byteAt(dst), 0x88);
    EXPECT_EQ(b.as->byteAt(dst + 7), 0x11);
}

TEST(Cbdma, PinRangeCoalescesContiguousPages)
{
    Bench b(icxSmall());
    Addr va = b.as->alloc(64 << 10); // 16 contiguous 4K frames
    auto segs = CbdmaDevice::pinRange(*b.as, va, 64 << 10);
    EXPECT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs.front().second, 64u << 10);
}

TEST(CbdmaDeathTest, PinRejectsPagedOutMemory)
{
    Bench b(icxSmall());
    Addr va = b.as->alloc(16 << 10);
    b.as->evictPage(va + 4096);
    EXPECT_DEATH(CbdmaDevice::pinRange(*b.as, va, 16 << 10),
                 "pinned");
}

TEST(Cbdma, RingBackpressure)
{
    Bench b(icxSmall());
    CbdmaDevice &dev = b.plat.cbdma(0);
    const unsigned ring = dev.params().ringEntries;
    Addr src = b.as->alloc(1 << 20);
    Addr dst = b.as->alloc(1 << 20);
    CbdmaDescriptor d;
    d.srcPa = b.as->translate(src);
    d.dstPa = b.as->translate(dst);
    d.size = 1 << 20;
    // Fill the ring without running the simulation.
    unsigned accepted = 0;
    for (unsigned i = 0; i < ring + 8; ++i) {
        if (dev.post(0, d))
            ++accepted;
    }
    EXPECT_EQ(accepted, ring);
    b.sim.run(); // drains without deadlock
    EXPECT_EQ(dev.descriptorsProcessed, ring);
}

TEST(Cbdma, SlowerThanDsaOnSameWork)
{
    // One CBDMA channel vs one DSA PE, same 1MB copy, both async
    // pipelines of depth 8.
    const std::uint64_t n = 1 << 20;

    // CBDMA side.
    Tick cbdma_elapsed = 0;
    {
        Bench b(icxSmall());
        CbdmaDevice &dev = b.plat.cbdma(0);
        Addr src = b.as->alloc(8 * n);
        Addr dst = b.as->alloc(8 * n);
        struct Drv
        {
            static SimTask
            go(Bench &bb, CbdmaDevice &cb, Addr s, Addr d,
               std::uint64_t len, Tick &el)
            {
                Tick t0 = bb.sim.now();
                std::vector<std::unique_ptr<CompletionRecord>> crs;
                for (int i = 0; i < 8; ++i) {
                    crs.push_back(
                        std::make_unique<CompletionRecord>(bb.sim));
                    CbdmaDescriptor cd;
                    cd.srcPa = bb.as->translate(
                        s + static_cast<Addr>(i) * len);
                    cd.dstPa = bb.as->translate(
                        d + static_cast<Addr>(i) * len);
                    cd.size = len;
                    cd.completion = crs.back().get();
                    cb.post(0, cd);
                }
                for (auto &cr : crs)
                    if (!cr->isDone())
                        co_await cr->done.wait();
                el = bb.sim.now() - t0;
            }
        };
        Drv::go(b, dev, src, dst, n, cbdma_elapsed);
        b.sim.run();
    }

    // DSA side.
    Tick dsa_elapsed = 0;
    {
        Bench b;
        DsaTopology::basic().apply(b.plat.dsa(0));
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        dml::Executor exec(b.sim, b.plat.mem(), b.plat.kernels(),
                           {&b.plat.dsa(0)}, ec);
        Addr src = b.as->alloc(8 * n);
        Addr dst = b.as->alloc(8 * n);
        struct Drv
        {
            static SimTask
            go(Bench &bb, dml::Executor &ex, Addr s, Addr d,
               std::uint64_t len, Tick &el)
            {
                Tick t0 = bb.sim.now();
                std::vector<std::unique_ptr<dml::Job>> jobs;
                for (int i = 0; i < 8; ++i) {
                    auto job = ex.prepare(dml::Executor::memMove(
                        *bb.as, d + static_cast<Addr>(i) * len,
                        s + static_cast<Addr>(i) * len, len));
                    co_await ex.submit(bb.plat.core(0), *job);
                    jobs.push_back(std::move(job));
                }
                dml::OpResult r;
                for (auto &j : jobs)
                    co_await ex.wait(bb.plat.core(0), *j, r);
                el = bb.sim.now() - t0;
            }
        };
        Drv::go(b, exec, src, dst, n, dsa_elapsed);
        b.sim.run();
    }

    double ratio = static_cast<double>(cbdma_elapsed) /
                   static_cast<double>(dsa_elapsed);
    EXPECT_GT(ratio, 1.8); // ~2.1x per the paper
    EXPECT_LT(ratio, 2.5);
}

} // namespace
} // namespace dsasim
