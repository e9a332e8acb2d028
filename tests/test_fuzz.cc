/**
 * @file
 * Randomized (seeded, reproducible) stress tests:
 *
 *  - overlapping memmove in both directions on both paths;
 *  - a random-operation fuzz loop comparing the DSA path against a
 *    host-side golden model byte-for-byte;
 *  - random page-fault injection during offload streams;
 *  - random injected completion statuses: every descriptor still
 *    reaches a terminal, internally consistent record.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "ops/crc32.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

struct FuzzBench : Bench
{
    FuzzBench()
    {
        DsaTopology::basic(32, 2).apply(plat.dsa(0));
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

class OverlapMove
    : public ::testing::TestWithParam<std::tuple<bool, std::int64_t>>
{
};

TEST_P(OverlapMove, MatchesStdMemmove)
{
    const bool hw = std::get<0>(GetParam());
    const std::int64_t shift = std::get<1>(GetParam());
    FuzzBench b;
    const std::uint64_t n = 700 * 1000; // spans several chunks
    Addr region = b.as->alloc(2 * n + (1 << 20));
    Addr src = region + (1 << 19);
    Addr dst = static_cast<Addr>(static_cast<std::int64_t>(src) +
                                 shift);
    b.randomize(src, n, static_cast<std::uint64_t>(shift + 99999));

    // Golden model on host memory.
    std::vector<std::uint8_t> image(2 * n + (1 << 20));
    b.as->read(region, image.data(), image.size());
    std::memmove(image.data() + (dst - region),
                 image.data() + (src - region), n);

    if (hw) {
        auto r = b.run(dml::Executor::memMove(*b.as, dst, src, n));
        ASSERT_TRUE(r.ok);
    } else {
        auto r = b.plat.kernels().memcpyOp(b.plat.core(0), *b.as,
                                           dst, src, n);
        ASSERT_GT(r.duration, 0u);
    }
    auto got = b.bytes(dst, n);
    EXPECT_EQ(0, std::memcmp(got.data(),
                             image.data() + (dst - region), n));
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, OverlapMove,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values<std::int64_t>(
                           -300000, -64, 64, 4096, 300000)),
    [](const ::testing::TestParamInfo<
        std::tuple<bool, std::int64_t>> &param_info) {
        std::int64_t sh = std::get<1>(param_info.param);
        return std::string(std::get<0>(param_info.param) ? "hw"
                                                         : "sw") +
               (sh < 0 ? "_down" : "_up") +
               std::to_string(sh < 0 ? -sh : sh);
    });

TEST(Fuzz, RandomOpsMatchGoldenModel)
{
    FuzzBench b;
    Rng rng(0xfeed);
    const std::uint64_t span = 1 << 20;
    Addr src = b.as->alloc(span);
    Addr dst = b.as->alloc(span);
    b.randomize(src, span, 1);
    b.randomize(dst, span, 2);

    // Host-side golden image of both regions.
    std::vector<std::uint8_t> g_src(span), g_dst(span);
    b.as->read(src, g_src.data(), span);
    b.as->read(dst, g_dst.data(), span);

    for (int iter = 0; iter < 120; ++iter) {
        std::uint64_t n = rng.range(1, 48 << 10);
        std::uint64_t so = rng.range(0, span - n);
        std::uint64_t dof = rng.range(0, span - n);
        switch (rng.below(4)) {
          case 0: { // copy
            auto r = b.run(dml::Executor::memMove(
                *b.as, dst + dof, src + so, n));
            ASSERT_TRUE(r.ok);
            std::memcpy(g_dst.data() + dof, g_src.data() + so, n);
            break;
          }
          case 1: { // fill
            std::uint64_t pat = rng.next64();
            auto r = b.run(
                dml::Executor::fill(*b.as, dst + dof, pat, n));
            ASSERT_TRUE(r.ok);
            for (std::uint64_t i = 0; i < n; ++i) {
                g_dst[dof + i] = static_cast<std::uint8_t>(
                    pat >> (8 * (i % 8)));
            }
            break;
          }
          case 2: { // crc over the source
            auto r = b.run(
                dml::Executor::crc32(*b.as, src + so, n));
            ASSERT_EQ(r.crc, crc32cFull(g_src.data() + so, n));
            break;
          }
          default: { // compare device vs golden expectation
            auto r = b.run(dml::Executor::compare(
                *b.as, src + so, dst + dof, n));
            bool equal = std::memcmp(g_src.data() + so,
                                     g_dst.data() + dof, n) == 0;
            ASSERT_EQ(r.result == 0, equal) << "iter " << iter;
            break;
          }
        }
    }
    // Final sweep: the whole destination matches the golden image.
    auto final_dst = b.bytes(dst, span);
    EXPECT_EQ(0,
              std::memcmp(final_dst.data(), g_dst.data(), span));
}

TEST(Fuzz, SpanPathMatchesGoldenImage)
{
    // Pure functional fuzz of the zero-copy span path: random
    // write/fill/copy (including overlapping copies) and reads
    // against a host golden image, mixing a 4 KiB-page and a
    // 2 MiB-page region so lookups keep alternating mappings.
    FuzzBench b;
    Rng rng(0x5ba9);
    const std::uint64_t span = 1 << 20;
    Addr base[2] = {b.as->alloc(span),
                    b.as->alloc(span, MemKind::DramLocal,
                                PageSize::Size2M)};
    std::vector<std::uint8_t> gold[2] = {
        std::vector<std::uint8_t>(span, 0),
        std::vector<std::uint8_t>(span, 0)};
    std::vector<std::uint8_t> tmp(64 << 10);

    for (int iter = 0; iter < 300; ++iter) {
        const std::uint64_t n = rng.range(1, tmp.size());
        const int rd = static_cast<int>(rng.below(2));
        const int rs = static_cast<int>(rng.below(2));
        const std::uint64_t d_off = rng.range(0, span - n);
        const std::uint64_t s_off = rng.range(0, span - n);
        switch (rng.below(4)) {
          case 0: { // random write
            for (std::uint64_t i = 0; i < n; ++i)
                tmp[i] = static_cast<std::uint8_t>(rng.next32());
            b.as->write(base[rd] + d_off, tmp.data(), n);
            std::memcpy(gold[rd].data() + d_off, tmp.data(), n);
            break;
          }
          case 1: { // fill
            const auto v =
                static_cast<std::uint8_t>(rng.next32());
            b.as->fill(base[rd] + d_off, v, n);
            std::memset(gold[rd].data() + d_off, v, n);
            break;
          }
          case 2: { // copy, overlap-capable when same region
            b.as->copy(base[rd] + d_off, base[rs] + s_off, n);
            if (rd == rs) {
                std::memmove(gold[rd].data() + d_off,
                             gold[rs].data() + s_off, n);
            } else {
                std::memcpy(gold[rd].data() + d_off,
                            gold[rs].data() + s_off, n);
            }
            break;
          }
          default: { // read back and spot-check equal()
            b.as->read(base[rs] + s_off, tmp.data(), n);
            ASSERT_EQ(0, std::memcmp(tmp.data(),
                                     gold[rs].data() + s_off, n))
                << "iter " << iter;
            break;
          }
        }
    }
    for (int r = 0; r < 2; ++r) {
        auto image = b.bytes(base[r], span);
        ASSERT_EQ(0,
                  std::memcmp(image.data(), gold[r].data(), span));
    }
}

TEST(Fuzz, RandomFaultInjectionAlwaysRecovers)
{
    FuzzBench b;
    Rng rng(0xabc);
    const std::uint64_t n = 64 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 4);

    for (int iter = 0; iter < 40; ++iter) {
        // Randomly page out a couple of source/destination pages.
        for (int k = 0; k < 2; ++k) {
            if (rng.chance(0.7))
                b.as->evictPage(src + rng.below(16) * 4096ull);
            if (rng.chance(0.3))
                b.as->evictPage(dst + rng.below(16) * 4096ull);
        }
        WorkDescriptor d =
            dml::Executor::memMove(*b.as, dst, src, n);
        bool block = rng.chance(0.5);
        if (!block)
            d.flags &= ~descflags::blockOnFault;
        auto r = b.run(d);
        if (block) {
            // Block-on-fault always finishes the full transfer.
            ASSERT_TRUE(r.ok) << "iter " << iter;
            ASSERT_TRUE(b.as->equal(src, dst, n));
        } else {
            // Either clean success or an honest partial completion.
            if (r.status == CompletionRecord::Status::PageFault) {
                ASSERT_LT(r.bytesCompleted, n);
                ASSERT_EQ(r.bytesCompleted % 4096, 0u);
                if (r.bytesCompleted) {
                    ASSERT_TRUE(b.as->equal(src, dst,
                                            r.bytesCompleted));
                }
                // Restore for the next iteration.
                for (Addr a = src; a < src + n; a += 4096)
                    b.as->restorePage(a);
                for (Addr a = dst; a < dst + n; a += 4096)
                    b.as->restorePage(a);
            } else {
                ASSERT_TRUE(r.ok);
                ASSERT_TRUE(b.as->equal(src, dst, n));
            }
        }
    }
}

TEST(Fuzz, RandomInjectedStatusesAreAlwaysTerminalAndConsistent)
{
    FuzzBench b;
    {
        // Every status source at once, with aggressive rates.
        auto fi = FaultInjector::fromSpec(
            "hw-error:p=0.10,error=read;"
            "hw-error:p=0.05,error=write;"
            "hw-error:p=0.05,error=decode;"
            "page-fault:p=0.01;"
            "disable:every=97;"
            "hang:every=61",
            0xdead);
        fi->attachClock(b.sim);
        b.plat.setFaultInjector(std::move(fi));
    }
    // Watchdog so injected hangs cannot stall the run.
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    ec.watchdogTimeout = fromUs(200);
    b.exec = std::make_unique<dml::Executor>(
        b.sim, b.plat.mem(), b.plat.kernels(),
        std::vector<DsaDevice *>{&b.plat.dsa(0)}, ec);

    Rng rng(0x5151);
    const std::uint64_t span = 1 << 20;
    Addr src = b.as->alloc(span);
    Addr dst = b.as->alloc(span);
    b.randomize(src, span, 21);

    using St = CompletionRecord::Status;
    std::uint64_t failures = 0;
    for (int iter = 0; iter < 300; ++iter) {
        if (!b.plat.dsa(0).enabled())
            b.plat.dsa(0).enable();
        std::uint64_t n = rng.range(1, 32 << 10);
        std::uint64_t so = rng.range(0, span - n);
        std::uint64_t dof = rng.range(0, span - n);
        WorkDescriptor d = dml::Executor::memMove(
            *b.as, dst + dof, src + so, n);
        d.flags &= ~descflags::blockOnFault;
        auto r = b.run(d);
        switch (r.status) {
          case St::Success:
            ASSERT_EQ(r.bytesCompleted, n) << "iter " << iter;
            ASSERT_TRUE(b.as->equal(src + so, dst + dof, n));
            break;
          case St::PageFault:
            ASSERT_LT(r.bytesCompleted, n) << "iter " << iter;
            ASSERT_NE(r.faultAddr, 0u);
            ++failures;
            break;
          case St::ReadError:
          case St::WriteError:
          case St::DecodeError:
          case St::Aborted:
            // Error'd descriptors report no spurious progress.
            ASSERT_EQ(r.bytesCompleted, 0u) << "iter " << iter;
            ++failures;
            break;
          default:
            FAIL() << "unexpected status "
                   << CompletionRecord::statusName(r.status)
                   << " at iter " << iter;
        }
    }
    // The rates above make both outcomes statistically certain.
    EXPECT_GT(failures, 0u);
    EXPECT_GT(b.exec->hwJobs, failures);
    const FaultInjector &fi = *b.plat.injector();
    EXPECT_GT(fi.firesAt(FaultSite::CompletionError), 0u);
    EXPECT_GT(fi.firesAt(FaultSite::EngineHang), 0u);
    EXPECT_GT(fi.firesAt(FaultSite::DeviceDisable), 0u);
}

TEST(Fuzz, BatchesOfRandomSizes)
{
    FuzzBench b;
    Rng rng(0x77);
    const std::uint64_t span = 2 << 20;
    Addr src = b.as->alloc(span);
    Addr dst = b.as->alloc(span);
    b.randomize(src, span, 9);

    for (int round = 0; round < 10; ++round) {
        std::vector<WorkDescriptor> subs;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
        std::uint64_t cursor = 0;
        int count = 1 + static_cast<int>(rng.below(24));
        for (int i = 0; i < count && cursor < span; ++i) {
            std::uint64_t n =
                std::min<std::uint64_t>(rng.range(64, 32 << 10),
                                        span - cursor);
            subs.push_back(dml::Executor::memMove(
                *b.as, dst + cursor, src + cursor, n));
            spans.emplace_back(cursor, n);
            cursor += n;
        }
        dml::OpResult out;
        bool fin = false;
        struct Drv
        {
            static SimTask
            go(FuzzBench &fb, std::vector<WorkDescriptor> s,
               dml::OpResult &o, bool &f)
            {
                co_await fb.exec->executeBatch(fb.plat.core(0), s,
                                               o);
                f = true;
            }
        };
        Drv::go(b, subs, out, fin);
        b.sim.run();
        ASSERT_TRUE(fin);
        ASSERT_EQ(out.status, CompletionRecord::Status::Success);
        for (auto [off, len] : spans)
            ASSERT_TRUE(b.as->equal(src + off, dst + off, len));
    }
}

} // namespace
} // namespace dsasim
