/**
 * @file
 * Fault injection and recovery:
 *
 *  - golden partial-completion tests: with block-on-fault = 0 every
 *    opcode stops exactly at the page boundary, reports the faulting
 *    VA, and leaves a consistent prefix;
 *  - partial-completion resume: executeRecover touches the page and
 *    re-issues the remainder (CRC seed continuation included);
 *  - watchdog timeout aborting a hung engine;
 *  - bounded ENQCMD backoff giving up on a persistently full SWQ;
 *  - DTO degrading to the CPU on injected hardware errors;
 *  - device disable/reset sequencing: queued + in-flight work
 *    completes with Aborted and the device serves again after
 *    re-enable.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dto/dto.hh"
#include "ops/crc32.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;
using St = CompletionRecord::Status;

constexpr std::uint64_t kPage = 4096;

struct FaultBench : Bench
{
    explicit FaultBench(WorkQueue::Mode mode = WorkQueue::Mode::Dedicated,
                        unsigned wq_size = 32, unsigned engines = 2)
    {
        DsaTopology::basic(wq_size, engines, mode).apply(plat.dsa(0));
    }

    void
    makeExecutor(dml::ExecutorConfig ec)
    {
        ec.path = dml::Path::Hardware;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
    }

    /** Install an injector owned by the platform, wired everywhere. */
    FaultInjector &
    inject(const FaultRule &r, std::uint64_t seed = 1)
    {
        auto fi = std::make_unique<FaultInjector>(seed);
        fi->attachClock(sim);
        fi->addRule(r);
        plat.setFaultInjector(std::move(fi));
        return *plat.injector();
    }

    dml::OpResult
    runHw(const WorkDescriptor &d)
    {
        dml::OpResult out;
        bool fin = false;
        test::driveOp(*this, *exec, d, out, fin);
        sim.run();
        EXPECT_TRUE(fin);
        return out;
    }

    dml::OpResult
    runRecover(const WorkDescriptor &d)
    {
        dml::OpResult out;
        bool fin = false;
        drive(d, out, fin);
        sim.run();
        EXPECT_TRUE(fin);
        return out;
    }

    SimTask
    drive(WorkDescriptor d, dml::OpResult &out, bool &fin)
    {
        co_await exec->executeRecover(plat.core(0), d, out);
        fin = true;
    }

    std::unique_ptr<dml::Executor> exec;
};

// ---------------------------------------------------------------------
// Golden partial completions: page-exact stop for every opcode.
// ---------------------------------------------------------------------

struct BoundaryCase
{
    const char *name;
    Opcode op;
};

// Print a case by name. gtest's default byte dump would include the
// string pointer, which ASLR moves on every run, so the test names
// ctest discovers would differ from one build to the next.
void
PrintTo(const BoundaryCase &c, std::ostream *os)
{
    *os << c.name;
}

class PageBoundary : public ::testing::TestWithParam<BoundaryCase>
{
};

TEST_P(PageBoundary, StopsExactlyAtPageBoundary)
{
    const Opcode op = GetParam().op;
    FaultBench b;
    b.makeExecutor({});

    const std::uint64_t n = 64 << 10;
    const std::uint64_t faultOff = 16 << 10; // page-aligned, mid-buffer
    Addr src = b.as->alloc(2 * n);
    Addr src2 = b.as->alloc(2 * n);
    Addr dst = b.as->alloc(2 * n);
    Addr dst2 = b.as->alloc(2 * n);
    b.randomize(src, n, 11);
    b.as->write(src2, b.bytes(src, n).data(), n); // equal for compare
    b.as->fill(dst, 0xee, n);
    b.as->fill(dst2, 0xee, n);

    // Golden "before" images so untouched suffixes can be checked.
    auto dst_before = b.bytes(dst, n);
    auto src_img = b.bytes(src, n);

    WorkDescriptor d;
    Addr faultVa = src + faultOff;
    switch (op) {
      case Opcode::Memmove:
        d = dml::Executor::memMove(*b.as, dst, src, n);
        break;
      case Opcode::Fill:
        d = dml::Executor::fill(*b.as, dst, 0x1122334455667788ull, n);
        faultVa = dst + faultOff;
        break;
      case Opcode::Compare:
        d = dml::Executor::compare(*b.as, src, src2, n);
        break;
      case Opcode::ComparePattern: {
        d = dml::Executor::comparePattern(*b.as, dst, 0xeeeeeeeeeeeeeeeeull,
                                          n);
        faultVa = dst + faultOff;
        break;
      }
      case Opcode::CrcGen:
        d = dml::Executor::crc32(*b.as, src, n);
        break;
      case Opcode::CopyCrc:
        d = dml::Executor::copyCrc(*b.as, dst, src, n);
        break;
      case Opcode::Dualcast:
        d = dml::Executor::dualcast(*b.as, dst, dst2, src, n);
        break;
      case Opcode::CacheFlush:
        d = dml::Executor::cacheFlush(*b.as, src, n);
        break;
      case Opcode::CreateDelta:
        d = dml::Executor::createDelta(*b.as, src, src2, n, dst, n);
        break;
      case Opcode::ApplyDelta: {
        // A record rewriting every word so prefix progress is visible.
        std::vector<std::uint8_t> rec;
        for (std::uint64_t w = 0; w < n / 8; ++w) {
            std::uint8_t e[10] = {};
            e[0] = static_cast<std::uint8_t>(w & 0xff);
            e[1] = static_cast<std::uint8_t>(w >> 8);
            std::uint64_t v = 0xa0a0a0a0a0a0a0a0ull + w;
            std::memcpy(e + 2, &v, 8);
            rec.insert(rec.end(), e, e + 10);
        }
        b.as->write(src2, rec.data(), rec.size());
        d = dml::Executor::applyDelta(*b.as, dst, src2, rec.size(), n);
        faultVa = dst + faultOff;
        break;
      }
      case Opcode::DifInsert:
        d = dml::Executor::difInsert(*b.as, src, dst, 512, n, 7, 100);
        break;
      case Opcode::DifCheck: {
        // Build a valid DIF stream first, then check it.
        auto ins = dml::Executor::difInsert(*b.as, src, dst, 512, n, 7,
                                            100);
        auto ri = b.runHw(ins);
        ASSERT_TRUE(ri.ok);
        d = dml::Executor::difCheck(*b.as, dst, 512, n, 7, 100);
        faultVa = dst + faultOff;
        break;
      }
      case Opcode::DifStrip: {
        auto ins = dml::Executor::difInsert(*b.as, src, dst, 512, n, 7,
                                            100);
        auto ri = b.runHw(ins);
        ASSERT_TRUE(ri.ok);
        d = dml::Executor::difStrip(*b.as, dst, dst2, 512, n);
        faultVa = dst + faultOff;
        break;
      }
      case Opcode::DifUpdate: {
        auto ins = dml::Executor::difInsert(*b.as, src, dst, 512, n, 7,
                                            100);
        auto ri = b.runHw(ins);
        ASSERT_TRUE(ri.ok);
        d = dml::Executor::difUpdate(*b.as, dst, dst2, 512, n, 7, 100,
                                     9, 500);
        faultVa = dst + faultOff;
        break;
      }
      default:
        FAIL() << "unhandled opcode in boundary test";
    }

    d.flags &= ~descflags::blockOnFault;
    b.as->evictPage(faultVa);
    auto r = b.runHw(d);
    b.as->restorePage(faultVa);

    ASSERT_EQ(r.status, St::PageFault)
        << CompletionRecord::statusName(r.status);
    EXPECT_EQ(r.faultAddr, faultVa);
    EXPECT_LT(r.bytesCompleted, n);
    EXPECT_EQ(r.bytesCompleted % kPage, 0u)
        << "partial completion not page-aligned";

    // The simple one-stream-per-direction ops stop exactly at the
    // faulting page; multi-rate streams (delta records, DIF tuples)
    // stop at the last page boundary their slowest stream reached.
    switch (op) {
      case Opcode::Memmove:
      case Opcode::Fill:
      case Opcode::Compare:
      case Opcode::ComparePattern:
      case Opcode::CrcGen:
      case Opcode::CopyCrc:
      case Opcode::Dualcast:
      case Opcode::CacheFlush:
        EXPECT_EQ(r.bytesCompleted, faultOff);
        break;
      default:
        break;
    }

    // Functional prefix/suffix integrity.
    const std::uint64_t done = r.bytesCompleted;
    switch (op) {
      case Opcode::Memmove:
      case Opcode::CopyCrc: {
        auto got = b.bytes(dst, n);
        EXPECT_EQ(0, std::memcmp(got.data(), src_img.data(), done));
        EXPECT_EQ(0, std::memcmp(got.data() + done,
                                 dst_before.data() + done, n - done));
        if (op == Opcode::CopyCrc) {
            EXPECT_EQ(r.crc, crc32cFull(src_img.data(), done));
        }
        break;
      }
      case Opcode::CrcGen:
        EXPECT_EQ(r.crc, crc32cFull(src_img.data(), done));
        break;
      case Opcode::Dualcast: {
        auto g1 = b.bytes(dst, n);
        auto g2 = b.bytes(dst2, n);
        EXPECT_EQ(0, std::memcmp(g1.data(), src_img.data(), done));
        EXPECT_EQ(0, std::memcmp(g2.data(), src_img.data(), done));
        break;
      }
      case Opcode::Compare:
      case Opcode::ComparePattern:
        EXPECT_EQ(r.result, 0u); // the readable prefix matched
        break;
      case Opcode::ApplyDelta: {
        auto got = b.bytes(dst, n);
        for (std::uint64_t w = 0; w < done / 8; ++w) {
            std::uint64_t v;
            std::memcpy(&v, got.data() + w * 8, 8);
            ASSERT_EQ(v, 0xa0a0a0a0a0a0a0a0ull + w) << "word " << w;
        }
        EXPECT_EQ(0, std::memcmp(got.data() + done,
                                 dst_before.data() + done, n - done));
        break;
      }
      default:
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, PageBoundary,
    ::testing::Values(BoundaryCase{"memmove", Opcode::Memmove},
                      BoundaryCase{"fill", Opcode::Fill},
                      BoundaryCase{"compare", Opcode::Compare},
                      BoundaryCase{"compare_pattern",
                                   Opcode::ComparePattern},
                      BoundaryCase{"crc", Opcode::CrcGen},
                      BoundaryCase{"copy_crc", Opcode::CopyCrc},
                      BoundaryCase{"dualcast", Opcode::Dualcast},
                      BoundaryCase{"cache_flush", Opcode::CacheFlush},
                      BoundaryCase{"create_delta", Opcode::CreateDelta},
                      BoundaryCase{"apply_delta", Opcode::ApplyDelta},
                      BoundaryCase{"dif_insert", Opcode::DifInsert},
                      BoundaryCase{"dif_check", Opcode::DifCheck},
                      BoundaryCase{"dif_strip", Opcode::DifStrip},
                      BoundaryCase{"dif_update", Opcode::DifUpdate}),
    [](const ::testing::TestParamInfo<BoundaryCase> &param) {
        return std::string(param.param.name);
    });

// ---------------------------------------------------------------------
// Recovery: partial-completion resume.
// ---------------------------------------------------------------------

TEST(Recovery, ResumesMemmoveAfterPageFault)
{
    FaultBench b;
    b.makeExecutor({});
    const std::uint64_t n = 64 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 3);
    auto golden = b.bytes(src, n);

    WorkDescriptor d = dml::Executor::memMove(*b.as, dst, src, n);
    d.flags &= ~descflags::blockOnFault;
    b.as->evictPage(src + 8 * kPage);

    auto r = b.runRecover(d);
    ASSERT_TRUE(r.ok) << CompletionRecord::statusName(r.status);
    EXPECT_EQ(r.bytesCompleted, n);
    EXPECT_EQ(b.exec->pageFaultResumes, 1u);
    EXPECT_EQ(b.exec->recoveryFallbacks, 0u);
    auto got = b.bytes(dst, n);
    EXPECT_EQ(0, std::memcmp(got.data(), golden.data(), n));
}

TEST(Recovery, ResumedCrcMatchesFullComputation)
{
    FaultBench b;
    b.makeExecutor({});
    const std::uint64_t n = 64 << 10;
    Addr src = b.as->alloc(n);
    b.randomize(src, n, 5);
    auto golden = b.bytes(src, n);

    WorkDescriptor d = dml::Executor::crc32(*b.as, src, n);
    d.flags &= ~descflags::blockOnFault;
    b.as->evictPage(src + 8 * kPage);

    auto r = b.runRecover(d);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.bytesCompleted, n);
    EXPECT_GE(b.exec->pageFaultResumes, 1u);
    // The seed-continued CRC must equal a one-shot CRC of the buffer.
    EXPECT_EQ(r.crc, crc32cFull(golden.data(), n));
}

TEST(Recovery, InjectedIommuFaultsStillComplete)
{
    FaultBench b;
    {
        FaultRule r;
        r.site = FaultSite::PageFault;
        r.everyNth = 7;
        b.inject(r, 42);
    }
    b.makeExecutor({});
    const std::uint64_t n = 256 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 8);
    auto golden = b.bytes(src, n);

    WorkDescriptor d = dml::Executor::memMove(*b.as, dst, src, n);
    d.flags &= ~descflags::blockOnFault;
    auto r = b.runRecover(d);
    ASSERT_TRUE(r.ok) << CompletionRecord::statusName(r.status);
    auto got = b.bytes(dst, n);
    EXPECT_EQ(0, std::memcmp(got.data(), golden.data(), n));
    EXPECT_GT(b.plat.mem().iommu().injectedFaults, 0u);
}

// ---------------------------------------------------------------------
// Recovery: watchdog abort of a hung engine.
// ---------------------------------------------------------------------

TEST(Recovery, WatchdogAbortsHungDescriptor)
{
    FaultBench b;
    {
        FaultRule r;
        r.site = FaultSite::EngineHang;
        r.everyNth = 1;
        r.maxFires = 1;
        b.inject(r);
    }
    dml::ExecutorConfig ec;
    ec.watchdogTimeout = fromUs(50);
    b.makeExecutor(ec);

    const std::uint64_t n = 16 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 4);

    auto r = b.runHw(dml::Executor::memMove(*b.as, dst, src, n));
    EXPECT_EQ(r.status, St::Aborted);
    EXPECT_EQ(b.exec->watchdogFires, 1u);
    EXPECT_EQ(b.plat.dsa(0).engine(0).hangs +
                  b.plat.dsa(0).engine(1).hangs,
              1u);

    // The engine is released, not wedged: the next job succeeds.
    auto r2 = b.runHw(dml::Executor::memMove(*b.as, dst, src, n));
    EXPECT_TRUE(r2.ok);
    EXPECT_TRUE(b.as->equal(src, dst, n));
}

TEST(Recovery, RecoverRetriesThroughHangAndSucceeds)
{
    FaultBench b;
    {
        FaultRule r;
        r.site = FaultSite::EngineHang;
        r.everyNth = 1;
        r.maxFires = 1;
        b.inject(r);
    }
    dml::ExecutorConfig ec;
    ec.watchdogTimeout = fromUs(50);
    b.makeExecutor(ec);

    const std::uint64_t n = 16 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 4);

    auto r = b.runRecover(dml::Executor::memMove(*b.as, dst, src, n));
    ASSERT_TRUE(r.ok) << CompletionRecord::statusName(r.status);
    EXPECT_TRUE(b.as->equal(src, dst, n));
    EXPECT_EQ(b.exec->watchdogFires, 1u);
}

// ---------------------------------------------------------------------
// Recovery: bounded ENQCMD backoff under sustained SWQ pressure.
// ---------------------------------------------------------------------

TEST(Recovery, EnqcmdBackoffGivesUpOnPersistentlyFullSwq)
{
    FaultBench b(WorkQueue::Mode::Shared, /*wq_size=*/8);
    {
        // The portal reports Retry on every submission attempt.
        FaultRule r;
        r.site = FaultSite::WqReject;
        r.everyNth = 1;
        b.inject(r);
    }
    dml::ExecutorConfig ec;
    ec.enqcmdMaxRetries = 4;
    b.makeExecutor(ec);

    const std::uint64_t n = 8 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    Tick t0 = b.sim.now();
    auto r = b.runHw(dml::Executor::memMove(*b.as, dst, src, n));
    EXPECT_EQ(r.status, St::QueueFull);
    EXPECT_EQ(b.exec->submitGiveUps, 1u);
    EXPECT_EQ(b.plat.dsa(0).injectedRejects, 5u); // 1 try + 4 retries
    // Exponential pauses actually elapsed: 256 + 512 + 1024 + 2048 ns
    // (dml::enqcmdBackoffBase doubling, under dml::enqcmdBackoffCap),
    // each charged to the core as backoff, not busy, time.
    EXPECT_GE(b.sim.now() - t0, fromNs(3840));
    EXPECT_EQ(b.plat.core(0).cycleAccount().bucket("enqcmd-backoff"),
              fromNs(3840));
}

TEST(Recovery, RecoverFallsBackToCpuWhenSwqNeverAdmits)
{
    FaultBench b(WorkQueue::Mode::Shared, /*wq_size=*/8);
    {
        FaultRule r;
        r.site = FaultSite::WqReject;
        r.everyNth = 1;
        b.inject(r);
    }
    dml::ExecutorConfig ec;
    ec.enqcmdMaxRetries = 2;
    b.makeExecutor(ec);

    const std::uint64_t n = 8 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 6);
    auto r = b.runRecover(dml::Executor::memMove(*b.as, dst, src, n));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(b.exec->recoveryFallbacks, 1u);
    EXPECT_TRUE(b.as->equal(src, dst, n));
}

// ---------------------------------------------------------------------
// DWQ overflow: detected drop instead of undefined behavior.
// ---------------------------------------------------------------------

TEST(Recovery, DwqOverflowIsDetectedAndReported)
{
    FaultBench b;
    b.makeExecutor({});
    DsaDevice &dev = b.plat.dsa(0);

    // Bypass the executor's credit tracking and hammer the portal
    // directly: a client that broke the occupancy contract.
    const unsigned wq_size = dev.wq(0).size;
    std::vector<std::unique_ptr<CompletionRecord>> crs;
    Addr src = b.as->alloc(kPage);
    Addr dst = b.as->alloc(kPage);
    unsigned rejected = 0;
    for (unsigned i = 0; i < wq_size + 8; ++i) {
        WorkDescriptor d =
            dml::Executor::memMove(*b.as, dst, src, 64);
        crs.push_back(std::make_unique<CompletionRecord>(b.sim));
        d.completion = crs.back().get();
        if (dev.submit(dev.wq(0), d) ==
            DsaDevice::SubmitStatus::Rejected)
            ++rejected;
    }
    EXPECT_EQ(rejected, 8u);
    EXPECT_EQ(dev.dwqOverflows, 8u);
    b.sim.run();
    // Every record is terminal: accepted ones succeed, dropped ones
    // carry the overflow cause.
    unsigned overflows = 0;
    for (auto &cr : crs) {
        ASSERT_TRUE(cr->isDone());
        if (cr->status == St::WqOverflow)
            ++overflows;
        else
            EXPECT_EQ(cr->status, St::Success);
    }
    EXPECT_EQ(overflows, 8u);
}

// ---------------------------------------------------------------------
// DTO: CPU degradation with per-cause accounting.
// ---------------------------------------------------------------------

TEST(Recovery, DtoFallsBackToCpuOnHardwareError)
{
    FaultBench b;
    {
        FaultRule r;
        r.site = FaultSite::CompletionError;
        r.error = HwErrorKind::Write;
        r.everyNth = 1;
        r.maxFires = 1;
        b.inject(r);
    }
    b.makeExecutor({});
    Dto dto(*b.exec, {.threshold = 4096});

    const std::uint64_t n = 32 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 7);

    struct Drv
    {
        static SimTask
        go(FaultBench &fb, Dto &d, Addr dst, Addr src,
           std::uint64_t n, bool &fin)
        {
            co_await d.memcpyCall(fb.plat.core(0), *fb.as, dst, src, n);
            fin = true;
        }
    };
    bool fin = false;
    Drv::go(b, dto, dst, src, n, fin);
    b.sim.run();
    ASSERT_TRUE(fin);

    // The call still produced correct data, on the CPU.
    EXPECT_TRUE(b.as->equal(src, dst, n));
    EXPECT_EQ(dto.cpuFallbacks, 1u);
    EXPECT_EQ(dto.fallbackHwError(), 1u);
    EXPECT_EQ(dto.offloaded, 0u);

    // The error was transient (maxFires = 1): the next call offloads.
    b.as->fill(dst, 0, n);
    fin = false;
    Drv::go(b, dto, dst, src, n, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_TRUE(b.as->equal(src, dst, n));
    EXPECT_EQ(dto.offloaded, 1u);
}

// ---------------------------------------------------------------------
// Device disable / reset sequencing.
// ---------------------------------------------------------------------

TEST(Recovery, DisableFlushesQueuedWorkAndAbortsInflight)
{
    FaultBench b(WorkQueue::Mode::Dedicated, /*wq_size=*/32,
                 /*engines=*/1);
    b.makeExecutor({});
    DsaDevice &dev = b.plat.dsa(0);

    const std::uint64_t n = 256 << 10;
    Addr src = b.as->alloc(8 * n);
    Addr dst = b.as->alloc(8 * n);

    // Queue several long transfers, then yank the device mid-flight.
    std::vector<std::unique_ptr<CompletionRecord>> crs;
    for (int i = 0; i < 8; ++i) {
        WorkDescriptor d = dml::Executor::memMove(
            *b.as, dst + i * n, src + i * n, n);
        crs.push_back(std::make_unique<CompletionRecord>(b.sim));
        d.completion = crs.back().get();
        ASSERT_EQ(dev.submit(dev.wq(0), d),
                  DsaDevice::SubmitStatus::Accepted);
    }
    DsaDevice *devp = &dev;
    b.sim.scheduleIn(fromUs(10), [devp] { devp->disable(); });
    b.sim.run();

    unsigned aborted = 0;
    for (auto &cr : crs) {
        ASSERT_TRUE(cr->isDone()) << "descriptor hung after disable";
        if (cr->status == St::Aborted)
            ++aborted;
    }
    EXPECT_GT(aborted, 0u);
    EXPECT_FALSE(dev.enabled());
    EXPECT_EQ(dev.resets, 1u);

    // Submissions to the disabled device are rejected with a cause.
    {
        WorkDescriptor d = dml::Executor::memMove(*b.as, dst, src, 64);
        CompletionRecord cr(b.sim);
        d.completion = &cr;
        EXPECT_EQ(dev.submit(dev.wq(0), d),
                  DsaDevice::SubmitStatus::Rejected);
        EXPECT_EQ(cr.status, St::Aborted);
        EXPECT_EQ(dev.submitsWhileDisabled, 1u);
    }

    // Re-enable: the same topology serves again.
    dev.enable();
    b.randomize(src, n, 12);
    auto r = b.runHw(dml::Executor::memMove(*b.as, dst, src, n));
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(b.as->equal(src, dst, n));
}

TEST(Recovery, RecoverSurvivesInjectedMidFlightDisable)
{
    FaultBench b;
    {
        FaultRule r;
        r.site = FaultSite::DeviceDisable;
        r.everyNth = 1;
        r.maxFires = 1;
        b.inject(r);
    }
    b.makeExecutor({});

    const std::uint64_t n = 32 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 13);

    auto r = b.runRecover(dml::Executor::memMove(*b.as, dst, src, n));
    ASSERT_TRUE(r.ok) << CompletionRecord::statusName(r.status);
    EXPECT_TRUE(b.as->equal(src, dst, n));
    EXPECT_EQ(b.exec->deviceResets, 1u);
    EXPECT_TRUE(b.plat.dsa(0).enabled());
}

TEST(Recovery, BatchChildrenAbortOnDisableAndParentTerminates)
{
    FaultBench b(WorkQueue::Mode::Dedicated, 32, 1);
    b.makeExecutor({});
    DsaDevice &dev = b.plat.dsa(0);

    const std::uint64_t n = 256 << 10;
    Addr src = b.as->alloc(16 * n);
    Addr dst = b.as->alloc(16 * n);
    std::vector<WorkDescriptor> subs;
    for (int i = 0; i < 16; ++i) {
        subs.push_back(dml::Executor::memMove(*b.as, dst + i * n,
                                              src + i * n, n));
    }
    auto job = b.exec->prepareBatch(b.as->pasid(), subs);

    struct Drv
    {
        static SimTask
        go(FaultBench &fb, dml::Job &j, dml::OpResult &o, bool &f)
        {
            co_await fb.exec->submit(fb.plat.core(0), j);
            co_await fb.exec->wait(fb.plat.core(0), j, o);
            f = true;
        }
    };
    dml::OpResult out;
    bool fin = false;
    Drv::go(b, *job, out, fin);
    DsaDevice *devp = &dev;
    b.sim.scheduleIn(fromUs(20), [devp] { devp->disable(); });
    b.sim.run();

    ASSERT_TRUE(fin) << "batch parent hung after disable";
    EXPECT_TRUE(out.status == St::BatchError ||
                out.status == St::Aborted)
        << CompletionRecord::statusName(out.status);
    for (auto &sub : job->subCrs)
        ASSERT_TRUE(sub->isDone());
}

// ---------------------------------------------------------------------
// Injector plumbing.
// ---------------------------------------------------------------------

TEST(Injector, SpecParsingRoundTrips)
{
    auto fi = FaultInjector::fromSpec(
        "hw-error:p=0.25,op=memmove,error=decode;"
        "hang:every=100,engine=2;"
        "disable:at=5000;"
        "wq-reject:every=3,device=1,wq=0;"
        "page-fault:p=0.001,max=7",
        99);
    ASSERT_NE(fi, nullptr);
    ASSERT_EQ(fi->ruleCount(), 5u);
    EXPECT_EQ(fi->rule(0).site, FaultSite::CompletionError);
    EXPECT_EQ(fi->rule(0).error, HwErrorKind::Decode);
    EXPECT_DOUBLE_EQ(fi->rule(0).probability, 0.25);
    EXPECT_EQ(fi->rule(1).everyNth, 100u);
    EXPECT_EQ(fi->rule(1).engine, 2);
    EXPECT_TRUE(fi->rule(2).hasAtTick);
    EXPECT_EQ(fi->rule(2).maxFires, 1u); // at= defaults to one-shot
    EXPECT_EQ(fi->rule(3).device, 1);
    EXPECT_EQ(fi->rule(3).wq, 0);
    EXPECT_EQ(fi->rule(4).maxFires, 7u);
    EXPECT_EQ(FaultInjector::fromSpec("", 1), nullptr);
}

TEST(Injector, ScopeFiltersAndDeterminism)
{
    FaultInjector a(7), c(7);
    FaultRule r;
    r.site = FaultSite::CompletionError;
    r.probability = 0.5;
    r.opcode = static_cast<int>(Opcode::Fill);
    a.addRule(r);
    c.addRule(r);

    FaultQuery fillQ{0, 0, 0, static_cast<int>(Opcode::Fill)};
    FaultQuery moveQ{0, 0, 0, static_cast<int>(Opcode::Memmove)};
    // Out-of-scope queries never fire and never consume randomness.
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.query(FaultSite::CompletionError, moveQ), nullptr);
    // Same seed, same query sequence => identical decisions.
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.fire(FaultSite::CompletionError, fillQ),
                  c.fire(FaultSite::CompletionError, fillQ));
    }
    EXPECT_GT(a.totalFires, 0u);
    EXPECT_LT(a.totalFires, 200u);
}

} // namespace
} // namespace dsasim
