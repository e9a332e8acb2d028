/**
 * @file
 * Device-feature tests beyond the basic opcode coverage: interrupt
 * completions, zero-length descriptors, nested-batch rejection, the
 * group arbiter's priority + anti-starvation behavior, read-buffer
 * bandwidth limits, PCM telemetry, and the DIF Update opcode through
 * the public API.
 */

#include <gtest/gtest.h>

#include "ops/crc32.hh"
#include "driver/submitter.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;
using test::engineCounterSum;

struct FBench : Bench
{
    explicit FBench(unsigned wq_size = 32, unsigned engines = 1)
    {
        DsaTopology::basic(wq_size, engines).apply(plat.dsa(0));
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
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

TEST(DsaFeatures, InterruptCompletionAddsLatency)
{
    FBench b;
    Addr src = b.as->alloc(4096);
    Addr dst = b.as->alloc(4096);
    WorkDescriptor polled = dml::Executor::memMove(*b.as, dst, src,
                                                   4096);
    WorkDescriptor irq = polled;
    irq.flags |= descflags::requestInterrupt;
    auto r_poll = b.run(polled);
    auto r_irq = b.run(irq);
    EXPECT_TRUE(r_irq.ok);
    EXPECT_GT(r_irq.latency,
              r_poll.latency +
                  b.plat.dsa(0).params().interruptLatency / 2);
}

TEST(DsaFeatures, ZeroLengthDescriptorCompletes)
{
    FBench b;
    Addr buf = b.as->alloc(4096);
    auto r = b.run(dml::Executor::memMove(*b.as, buf, buf, 0));
    EXPECT_EQ(r.status, CompletionRecord::Status::Success);
    EXPECT_EQ(r.bytesCompleted, 0u);
}

TEST(DsaFeatures, NopCompletes)
{
    FBench b;
    WorkDescriptor d;
    d.op = Opcode::Nop;
    d.pasid = b.as->pasid();
    auto r = b.run(d);
    EXPECT_EQ(r.status, CompletionRecord::Status::Success);
}

TEST(DsaFeatures, NestedBatchRejected)
{
    FBench b;
    Addr buf = b.as->alloc(8192);
    auto inner = b.exec->prepareBatch(
        b.as->pasid(),
        {dml::Executor::memMove(*b.as, buf, buf + 4096, 4096)});

    // Hand-roll an outer batch containing the inner batch desc.
    auto outer = std::make_unique<dml::Job>(b.sim);
    outer->desc.op = Opcode::Batch;
    outer->desc.pasid = b.as->pasid();
    outer->desc.completion = &outer->cr;
    outer->desc.batch =
        std::make_shared<std::vector<WorkDescriptor>>();
    outer->desc.batch->push_back(inner->desc);

    struct Drv
    {
        static SimTask
        go(FBench &fb, dml::Job &job, bool &fin)
        {
            co_await fb.exec->submit(fb.plat.core(0), job);
            dml::OpResult r;
            co_await fb.exec->wait(fb.plat.core(0), job, r);
            fin = true;
        }
    };
    bool fin = false;
    Drv::go(b, *outer, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(outer->cr.status,
              CompletionRecord::Status::Unsupported);
}

TEST(DsaFeatures, DifUpdateThroughApi)
{
    FBench b;
    const std::uint32_t block = 512;
    const std::uint64_t data = 8 * block;
    Addr raw = b.as->alloc(data);
    Addr prot = b.as->alloc(2 * data);
    Addr updated = b.as->alloc(2 * data);
    b.randomize(raw, data, 3);
    b.run(dml::Executor::difInsert(*b.as, raw, prot, block, data, 5,
                                   100));
    auto r = b.run(dml::Executor::difUpdate(*b.as, prot, updated,
                                            block, data, 5, 100, 9,
                                            900));
    EXPECT_TRUE(r.ok);
    auto ok_new = b.run(dml::Executor::difCheck(*b.as, updated,
                                                block, data, 9, 900));
    EXPECT_TRUE(ok_new.ok);
    auto bad_old = b.run(dml::Executor::difCheck(*b.as, updated,
                                                 block, data, 5,
                                                 100));
    EXPECT_FALSE(bad_old.ok);
}

TEST(DsaFeatures, PriorityShiftsThroughputWithoutStarvation)
{
    // Two DWQs on one single-PE group, both saturated with 16KB
    // copies; the higher-priority queue should get most but not all
    // of the engine.
    Simulation sim;
    PlatformConfig pc = test::smallSpr();
    Platform plat(sim, pc);
    AddressSpace &as = plat.mem().createSpace();
    DsaDevice &dev = plat.dsa(0);
    Group &g = dev.addGroup();
    WorkQueue &hi = dev.addWorkQueue(g, WorkQueue::Mode::Dedicated,
                                     16, /*priority=*/6);
    WorkQueue &lo = dev.addWorkQueue(g, WorkQueue::Mode::Dedicated,
                                     16, /*priority=*/0);
    dev.addEngine(g);
    dev.enable();

    const std::uint64_t n = 16 << 10;
    const Tick horizon = fromUs(300);
    std::uint64_t done_hi = 0, done_lo = 0;

    struct Pump
    {
        static SimTask
        go(Simulation &s, Platform &p, AddressSpace &sp,
           DsaDevice &d, WorkQueue &wq, int core_id,
           std::uint64_t len, Tick until, std::uint64_t &done)
        {
            Core &core = p.core(static_cast<std::size_t>(core_id));
            Submitter sub(core, d.params());
            Addr src = sp.alloc(len * 4);
            Addr dst = sp.alloc(len * 4);
            Semaphore window(s, 4);
            std::vector<std::unique_ptr<CompletionRecord>> crs;
            struct W
            {
                static SimTask
                drain(CompletionRecord &cr, Semaphore &win,
                      std::uint64_t &nd)
                {
                    if (!cr.isDone())
                        co_await cr.done.wait();
                    win.release();
                    ++nd;
                }
            };
            for (int i = 0; s.now() < until; ++i) {
                co_await window.acquire();
                crs.push_back(
                    std::make_unique<CompletionRecord>(s));
                WorkDescriptor wd = dml::Executor::memMove(
                    sp, dst + static_cast<Addr>(i % 4) * len,
                    src + static_cast<Addr>(i % 4) * len, len);
                wd.completion = crs.back().get();
                co_await sub.movdir64b(d, wq, wd);
                W::drain(*crs.back(), window, done);
            }
            for (int k = 0; k < 4; ++k)
                co_await window.acquire();
        }
    };
    Pump::go(sim, plat, as, dev, hi, 0, n, horizon, done_hi);
    Pump::go(sim, plat, as, dev, lo, 1, n, horizon, done_lo);
    sim.run();

    EXPECT_GT(done_hi, 2 * done_lo); // priority biases the arbiter
    EXPECT_GT(done_lo, 5u);          // ...but never starves (§3.2)
}

TEST(DsaFeatures, ReadBuffersLimitBandwidth)
{
    double gbps[2] = {0, 0};
    int idx = 0;
    for (unsigned bufs : {8u, 96u}) {
        Bench b;
        DsaDevice &dev = b.plat.dsa(0);
        Group &g = dev.addGroup();
        dev.addWorkQueue(g, WorkQueue::Mode::Dedicated, 32);
        dev.addEngine(g);
        dev.setGroupReadBuffers(g, bufs);
        dev.enable();
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        dml::Executor exec(b.sim, b.plat.mem(), b.plat.kernels(),
                           {&dev}, ec);
        const std::uint64_t n = 256 << 10;
        Addr src = b.as->alloc(8 * n);
        Addr dst = b.as->alloc(8 * n);
        Tick elapsed = 0;
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
        Drv::go(b, exec, src, dst, n, elapsed);
        b.sim.run();
        gbps[idx++] = achievedGBps(8 * n, elapsed);
    }
    // 8 buffers cover only ~5.4 GB/s of the 95ns-latency path.
    EXPECT_LT(gbps[0], 7.0);
    EXPECT_GT(gbps[1], 25.0);
}

TEST(DsaFeatures, PcmCountersTrackTraffic)
{
    FBench b;
    const std::uint64_t processed0 = b.plat.dsa(0).descriptorsProcessed();
    const std::uint64_t read0 = engineCounterSum(b.plat, 0, "bytes_read");
    const std::uint64_t written0 =
        engineCounterSum(b.plat, 0, "bytes_written");
    const std::uint64_t n = 64 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.run(dml::Executor::memMove(*b.as, dst, src, n));
    EXPECT_EQ(b.plat.dsa(0).descriptorsProcessed() - processed0, 1u);
    EXPECT_EQ(engineCounterSum(b.plat, 0, "bytes_read") - read0, n);
    EXPECT_EQ(engineCounterSum(b.plat, 0, "bytes_written") - written0,
              n);
}

TEST(DsaFeatures, EngineStatsAccumulate)
{
    FBench b;
    const std::uint64_t n = 32 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.run(dml::Executor::memMove(*b.as, dst, src, n));
    Engine &eng = b.plat.dsa(0).engine(0);
    EXPECT_EQ(eng.descriptorsProcessed, 1u);
    EXPECT_EQ(eng.bytesRead(), n);
    EXPECT_EQ(eng.bytesWritten(), n);
    EXPECT_GT(eng.busyTicks, 0u);
    b.run(dml::Executor::crc32(*b.as, src, n));
    EXPECT_EQ(eng.bytesRead(), 2 * n);
    EXPECT_EQ(eng.bytesWritten(), n); // crc writes nothing
}

TEST(DsaFeatures, CompletionRecordRearm)
{
    FBench b;
    Addr src = b.as->alloc(4096);
    Addr dst = b.as->alloc(4096);
    auto job = b.exec->prepare(
        dml::Executor::memMove(*b.as, dst, src, 4096));
    struct Drv
    {
        static SimTask
        go(FBench &fb, dml::Job &j, int &count)
        {
            for (int i = 0; i < 3; ++i) {
                if (i > 0)
                    j.cr.rearm();
                co_await fb.exec->submit(fb.plat.core(0), j);
                dml::OpResult r;
                co_await fb.exec->wait(fb.plat.core(0), j, r);
                if (r.ok)
                    ++count;
            }
        }
    };
    int completed = 0;
    Drv::go(b, *job, completed);
    b.sim.run();
    EXPECT_EQ(completed, 3);
}



TEST(DsaFeatures, InterruptWaitReleasesTheCore)
{
    FBench b;
    const std::uint64_t n = 1 << 20;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    Core &core = b.plat.core(0);

    struct Drv
    {
        static SimTask
        go(FBench &fb, Core &c, Addr s, Addr d, std::uint64_t len)
        {
            Submitter sub(c, fb.plat.dsa(0).params());
            CompletionRecord cr(fb.sim);
            WorkDescriptor wd =
                dml::Executor::memMove(*fb.as, d, s, len);
            wd.flags |= descflags::requestInterrupt;
            wd.completion = &cr;
            co_await sub.movdir64b(fb.plat.dsa(0),
                                   fb.plat.dsa(0).wq(0), wd);
            co_await sub.waitInterrupt(cr);
        }
    };
    Drv::go(b, core, src, dst, n);
    b.sim.run();
    // The wait time is idle (reusable), only the handler is busy.
    EXPECT_GT(core.cycleAccount().bucket("idle-other-work"),
              fromUs(30));
    EXPECT_EQ(core.cycleAccount().bucket("irq-handler"),
              Submitter::interruptHandlerCost);
    EXPECT_EQ(core.umwaitTicks(), 0u);
}

class DeviceDifBlocks : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(DeviceDifBlocks, InsertCheckOnDevice)
{
    const std::uint32_t block = GetParam();
    FBench b;
    const std::uint64_t data = 4ull * block;
    Addr src = b.as->alloc(data);
    Addr prot = b.as->alloc(2 * data);
    b.randomize(src, data, block);
    auto ins = b.run(dml::Executor::difInsert(*b.as, src, prot,
                                              block, data, 1, 2));
    EXPECT_TRUE(ins.ok);
    auto chk = b.run(dml::Executor::difCheck(*b.as, prot, block,
                                             data, 1, 2));
    EXPECT_TRUE(chk.ok);
    // Invalid block size is rejected as Unsupported.
    WorkDescriptor bad = dml::Executor::difCheck(*b.as, prot, 1024,
                                                 4096, 1, 2);
    auto r = b.run(bad);
    EXPECT_EQ(r.status, CompletionRecord::Status::Unsupported);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeviceDifBlocks,
                         ::testing::Values(512, 520, 4096, 4104));


TEST(DsaFeatures, SixteenByteFillPattern)
{
    FBench b;
    Addr dst = b.as->alloc(4096 + 8);
    auto r = b.run(dml::Executor::fill16(
        *b.as, dst, 0x1111111111111111ull, 0x2222222222222222ull,
        4096));
    EXPECT_TRUE(r.ok);
    auto data = b.bytes(dst, 32);
    EXPECT_EQ(data[0], 0x11);
    EXPECT_EQ(data[8], 0x22);
    EXPECT_EQ(data[16], 0x11);
    EXPECT_EQ(data[24], 0x22);

    // HW and SW paths agree.
    Addr sw_dst = b.as->alloc(4096 + 8);
    dml::OpResult sw;
    bool fin = false;
    struct Drv
    {
        static SimTask
        go(FBench &fb, Addr d, dml::OpResult &o, bool &f)
        {
            co_await fb.exec->executeSoftware(
                fb.plat.core(0),
                dml::Executor::fill16(*fb.as, d,
                                      0x1111111111111111ull,
                                      0x2222222222222222ull, 4096),
                o);
            f = true;
        }
    };
    Drv::go(b, sw_dst, sw, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_TRUE(b.as->equal(dst, sw_dst, 4096));

    // An invalid pattern size is rejected.
    WorkDescriptor bad = dml::Executor::fill(*b.as, dst, 1, 4096);
    bad.patternBytes = 12;
    auto rb = b.run(bad);
    EXPECT_EQ(rb.status, CompletionRecord::Status::Unsupported);
}


TEST(DsaFeatures, HeterogeneousBatchCarriesPerOpResults)
{
    FBench b;
    const std::uint64_t n = 8 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    Addr fillbuf = b.as->alloc(n);
    b.randomize(src, n, 7);
    auto golden = b.bytes(src, n);

    std::vector<WorkDescriptor> subs = {
        dml::Executor::memMove(*b.as, dst, src, n),
        dml::Executor::fill(*b.as, fillbuf, 0x4242424242424242ull,
                            n),
        dml::Executor::crc32(*b.as, src, n),
        dml::Executor::comparePattern(*b.as, fillbuf,
                                      0x4242424242424242ull, n),
    };
    auto job = b.exec->prepareBatch(b.as->pasid(), subs);

    struct Drv
    {
        static SimTask
        go(FBench &fb, dml::Job &j, bool &fin)
        {
            co_await fb.exec->submit(fb.plat.core(0), j);
            dml::OpResult r;
            co_await fb.exec->wait(fb.plat.core(0), j, r);
            fin = true;
        }
    };
    bool fin = false;
    Drv::go(b, *job, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(job->cr.status, CompletionRecord::Status::Success);

    // Every sub-descriptor has its own completion record with the
    // operation-specific result.
    ASSERT_EQ(job->subCrs.size(), 4u);
    EXPECT_EQ(job->subCrs[0]->status,
              CompletionRecord::Status::Success);
    EXPECT_TRUE(b.as->equal(src, dst, n));
    EXPECT_EQ(b.as->byteAt(fillbuf + 1234), 0x42);
    EXPECT_EQ(job->subCrs[2]->crc,
              crc32cFull(golden.data(), golden.size()));
    // Pattern compare matched... unless the fill had not yet run
    // when it executed — but batch sub-descriptors on a single PE
    // run in order, so it did.
    EXPECT_EQ(job->subCrs[3]->result, 0u);
}

TEST(DsaFeatures, DrainWaitsForPriorWork)
{
    FBench b;
    const std::uint64_t n = 1 << 20;
    Addr src = b.as->alloc(4 * n);
    Addr dst = b.as->alloc(4 * n);

    struct Drv
    {
        static SimTask
        go(FBench &fb, Addr s, Addr d, std::uint64_t len,
           Tick &drain_done, int &copies_done_at_drain)
        {
            Core &core = fb.plat.core(0);
            std::vector<std::unique_ptr<dml::Job>> jobs;
            for (int i = 0; i < 4; ++i) {
                jobs.push_back(fb.exec->prepare(
                    dml::Executor::memMove(
                        *fb.as, d + static_cast<Addr>(i) * len,
                        s + static_cast<Addr>(i) * len, len)));
                co_await fb.exec->submit(core, *jobs.back());
            }
            auto drain =
                fb.exec->prepare(dml::Executor::drain(*fb.as));
            co_await fb.exec->submit(core, *drain);
            dml::OpResult r;
            co_await fb.exec->wait(core, *drain, r);
            drain_done = fb.sim.now();
            copies_done_at_drain = 0;
            for (auto &j : jobs)
                copies_done_at_drain += j->cr.isDone() ? 1 : 0;
        }
    };
    Tick when = 0;
    int done = -1;
    Drv::go(b, src, dst, n, when, done);
    b.sim.run();
    // All four copies were complete when the drain completed, and
    // the drain took at least as long as the copies themselves.
    EXPECT_EQ(done, 4);
    EXPECT_GT(when, fromUs(100));
}

} // namespace
} // namespace dsasim
