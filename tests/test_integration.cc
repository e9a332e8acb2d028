/**
 * @file
 * Cross-module integration tests:
 *
 *  - determinism: identical runs produce identical simulated time,
 *    event counts and results (the DES contract);
 *  - multi-process SVM (F1): two address spaces share one SWQ and
 *    each sees only its own data;
 *  - statistics conservation: engine/PCM byte counters match the
 *    work submitted;
 *  - the full Table-2 topology (4 groups x 2 WQs x 4 engines) under
 *    a mixed-operation load;
 *  - guard pages catch out-of-region functional accesses.
 */

#include <gtest/gtest.h>

#include "ops/crc32.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;
using test::engineCounterSum;

struct RunResult
{
    Tick finalTime = 0;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
    std::uint32_t crc = 0;
};

RunResult
scenario(std::uint64_t seed)
{
    Bench b;
    DsaTopology::basic(32, 2).apply(b.plat.dsa(0));
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(b.sim, b.plat.mem(), b.plat.kernels(),
                       {&b.plat.dsa(0)}, ec);
    const std::uint64_t n = 32 << 10;
    Addr src = b.as->alloc(8 * n);
    Addr dst = b.as->alloc(8 * n);
    b.randomize(src, 8 * n, seed);

    RunResult rr;
    struct Drv
    {
        static SimTask
        go(Bench &bb, dml::Executor &ex, Addr s, Addr d,
           std::uint64_t len, RunResult &out)
        {
            Core &core = bb.plat.core(0);
            for (int i = 0; i < 8; ++i) {
                dml::OpResult r;
                co_await ex.executeHardware(
                    core,
                    dml::Executor::memMove(
                        *bb.as, d + static_cast<Addr>(i) * len,
                        s + static_cast<Addr>(i) * len, len),
                    r);
                out.bytes += r.bytesCompleted;
            }
            dml::OpResult crc_r;
            co_await ex.executeHardware(
                core, dml::Executor::crc32(*bb.as, d, 8 * len),
                crc_r);
            out.crc = crc_r.crc;
        }
    };
    Drv::go(b, exec, src, dst, n, rr);
    b.sim.run();
    rr.finalTime = b.sim.now();
    rr.events = b.sim.eventsExecuted();
    return rr;
}

TEST(Integration, RunsAreDeterministic)
{
    RunResult a = scenario(42);
    RunResult b = scenario(42);
    EXPECT_EQ(a.finalTime, b.finalTime);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.crc, b.crc);

    // A different payload changes the CRC but not the timing (the
    // timing model is data-independent).
    RunResult c = scenario(43);
    EXPECT_EQ(a.finalTime, c.finalTime);
    EXPECT_NE(a.crc, c.crc);
}

TEST(Integration, TwoProcessesShareOneSwq)
{
    Bench b;
    DsaTopology::basic(32, 2, WorkQueue::Mode::Shared).apply(b.plat.dsa(0));
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(b.sim, b.plat.mem(), b.plat.kernels(),
                       {&b.plat.dsa(0)}, ec);

    AddressSpace &p1 = *b.as;
    AddressSpace &p2 = b.plat.mem().createSpace();
    ASSERT_NE(p1.pasid(), p2.pasid());

    const std::uint64_t n = 16 << 10;
    Addr s1 = p1.alloc(n), d1 = p1.alloc(n);
    Addr s2 = p2.alloc(n), d2 = p2.alloc(n);
    // Same VA pattern, different physical pages.
    EXPECT_NE(p1.translate(s1), p2.translate(s2));

    std::vector<std::uint8_t> pay1(n, 0x11), pay2(n, 0x22);
    p1.write(s1, pay1.data(), n);
    p2.write(s2, pay2.data(), n);

    struct Proc
    {
        static SimTask
        go(Bench &bb, dml::Executor &ex, AddressSpace &as, Addr s,
           Addr d, std::uint64_t len, int core_id, Latch &done)
        {
            Core &core =
                bb.plat.core(static_cast<std::size_t>(core_id));
            for (int i = 0; i < 6; ++i) {
                dml::OpResult r;
                co_await ex.executeHardware(
                    core, dml::Executor::memMove(as, d, s, len), r);
                EXPECT_TRUE(r.ok);
            }
            done.arrive();
        }
    };
    Latch done(b.sim, 2);
    Proc::go(b, exec, p1, s1, d1, n, 0, done);
    Proc::go(b, exec, p2, s2, d2, n, 1, done);
    b.sim.run();
    ASSERT_TRUE(done.done());

    // Each process sees exactly its own payload.
    EXPECT_EQ(p1.byteAt(d1), 0x11);
    EXPECT_EQ(p2.byteAt(d2), 0x22);
    EXPECT_TRUE(p1.equal(s1, d1, n));
    EXPECT_TRUE(p2.equal(s2, d2, n));
}

TEST(Integration, PcmBytesMatchSubmittedWork)
{
    Bench b;
    DsaTopology::basic().apply(b.plat.dsa(0));
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(b.sim, b.plat.mem(), b.plat.kernels(),
                       {&b.plat.dsa(0)}, ec);

    const std::uint64_t sizes[] = {4096, 16384, 65536};
    std::uint64_t expect_read = 0, expect_written = 0;
    struct Drv
    {
        static SimTask
        go(Bench &bb, dml::Executor &ex, const std::uint64_t *sz,
           std::uint64_t &rd, std::uint64_t &wr)
        {
            Core &core = bb.plat.core(0);
            for (int i = 0; i < 3; ++i) {
                std::uint64_t n = sz[i];
                Addr s = bb.as->alloc(n);
                Addr d = bb.as->alloc(n);
                dml::OpResult r;
                // copy: reads n, writes n
                co_await ex.executeHardware(
                    core, dml::Executor::memMove(*bb.as, d, s, n),
                    r);
                rd += n;
                wr += n;
                // fill: writes n
                co_await ex.executeHardware(
                    core, dml::Executor::fill(*bb.as, d, 7, n), r);
                wr += n;
                // crc: reads n
                co_await ex.executeHardware(
                    core, dml::Executor::crc32(*bb.as, s, n), r);
                rd += n;
            }
        }
    };
    Drv::go(b, exec, sizes, expect_read, expect_written);
    b.sim.run();

    EXPECT_EQ(engineCounterSum(b.plat, 0, "bytes_read"), expect_read);
    EXPECT_EQ(engineCounterSum(b.plat, 0, "bytes_written"),
              expect_written);
    EXPECT_EQ(b.plat.dsa(0).descriptorsProcessed(), 9u);
    EXPECT_EQ(b.sim.stats().counterValue("dsa0.descriptors_submitted"),
              9u);
}

TEST(Integration, FullTable2TopologyMixedLoad)
{
    Bench b;
    DsaTopology::full().apply(b.plat.dsa(0)); // 4 groups, 8 WQs, 4 PEs
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(b.sim, b.plat.mem(), b.plat.kernels(),
                       {&b.plat.dsa(0)}, ec);

    const std::uint64_t n = 8 << 10;
    Addr src = b.as->alloc(n * 64);
    Addr dst = b.as->alloc(n * 64);
    b.randomize(src, n * 64, 7);

    struct Drv
    {
        static SimTask
        go(Bench &bb, dml::Executor &ex, Addr s, Addr d,
           std::uint64_t len, int &oks)
        {
            Core &core = bb.plat.core(0);
            Rng rng(9);
            for (int i = 0; i < 64; ++i) {
                Addr so = s + static_cast<Addr>(i) * len;
                Addr dk = d + static_cast<Addr>(i) * len;
                dml::OpResult r;
                switch (rng.below(4)) {
                  case 0:
                    co_await ex.executeHardware(
                        core,
                        dml::Executor::memMove(*bb.as, dk, so, len),
                        r);
                    break;
                  case 1:
                    co_await ex.executeHardware(
                        core,
                        dml::Executor::fill(*bb.as, dk, 0xab, len),
                        r);
                    break;
                  case 2:
                    co_await ex.executeHardware(
                        core, dml::Executor::crc32(*bb.as, so, len),
                        r);
                    break;
                  default:
                    co_await ex.executeHardware(
                        core,
                        dml::Executor::compare(*bb.as, so, so, len),
                        r);
                    break;
                }
                oks += r.status ==
                               CompletionRecord::Status::Success
                           ? 1
                           : 0;
            }
        }
    };
    int oks = 0;
    Drv::go(b, exec, src, dst, n, oks);
    b.sim.run();
    EXPECT_EQ(oks, 64);
    // Work was spread across the round-robin targets: every engine
    // of the device saw descriptors.
    int engines_used = 0;
    for (std::size_t e = 0; e < b.plat.dsa(0).engineCount(); ++e)
        engines_used +=
            b.plat.dsa(0).engine(e).descriptorsProcessed > 0 ? 1 : 0;
    EXPECT_EQ(engines_used, 4);
}

TEST(IntegrationDeathTest, GuardPagesCatchOverruns)
{
    Bench b;
    Addr a = b.as->alloc(4096);
    std::uint8_t byte = 0;
    EXPECT_DEATH(b.as->read(a + 4096, &byte, 1), "unmapped");
}

TEST(Integration, DeviceBytesNeverExceedLinkCapacityTimesTime)
{
    // Link conservation: the device's fabric links can never have
    // served more bytes than capacity x elapsed time.
    Bench b;
    DsaTopology::basic(32, 4).apply(b.plat.dsa(0));
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(b.sim, b.plat.mem(), b.plat.kernels(),
                       {&b.plat.dsa(0)}, ec);
    auto ring_src = b.as->alloc(1 << 20);
    auto ring_dst = b.as->alloc(1 << 20);
    struct Drv
    {
        static SimTask
        go(Bench &bb, dml::Executor &ex, Addr s, Addr d)
        {
            Core &core = bb.plat.core(0);
            for (int i = 0; i < 16; ++i) {
                dml::OpResult r;
                co_await ex.executeHardware(
                    core,
                    dml::Executor::memMove(*bb.as, d, s, 1 << 20),
                    r);
            }
        }
    };
    Drv::go(b, exec, ring_src, ring_dst);
    b.sim.run();
    double max_bytes =
        b.plat.dsa(0).fabricRead().rate() * toNs(b.sim.now());
    EXPECT_LE(static_cast<double>(
                  b.plat.dsa(0).fabricRead().bytesServed()),
              max_bytes * 1.001);
}

} // namespace
} // namespace dsasim
