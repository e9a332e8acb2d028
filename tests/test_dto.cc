/**
 * @file
 * Tests for DTO, the transparent-offload interposer: threshold
 * routing, functional equivalence of all intercepted entry points,
 * and the page-fault CPU-fallback path the CacheLib deployment uses.
 */

#include <gtest/gtest.h>

#include "dto/dto.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

struct DtoBench : Bench
{
    explicit DtoBench(std::uint64_t threshold = 8192)
    {
        DsaTopology::basic().apply(plat.dsa(0));
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
        Dto::Config dc;
        dc.threshold = threshold;
        dto = std::make_unique<Dto>(*exec, dc);
    }

    std::unique_ptr<dml::Executor> exec;
    std::unique_ptr<Dto> dto;
};

SimTask
callMemcpy(DtoBench &b, Addr dst, Addr src, std::uint64_t n,
           bool &fin)
{
    co_await b.dto->memcpyCall(b.plat.core(0), *b.as, dst, src, n);
    fin = true;
}

TEST(Dto, ThresholdRouting)
{
    DtoBench b(8192);
    Addr src = b.as->alloc(64 << 10);
    Addr dst = b.as->alloc(64 << 10);
    b.randomize(src, 64 << 10);

    bool fin = false;
    callMemcpy(b, dst, src, 4096, fin); // below threshold
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(b.dto->offloaded, 0u);
    EXPECT_EQ(b.dto->calls, 1u);

    fin = false;
    callMemcpy(b, dst, src, 16 << 10, fin); // above threshold
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(b.dto->offloaded, 1u);
    EXPECT_EQ(b.dto->bytesOffloaded, 16u << 10);
    EXPECT_TRUE(b.as->equal(src, dst, 16 << 10));
}

TEST(Dto, MemsetAndMemcmp)
{
    DtoBench b(8192);
    Addr a = b.as->alloc(32 << 10);
    Addr c = b.as->alloc(32 << 10);

    struct Drv
    {
        static SimTask
        go(DtoBench &db, Addr x, Addr y, bool &fin, int &cmp)
        {
            co_await db.dto->memsetCall(db.plat.core(0), *db.as, x,
                                        0x7e, 32 << 10);
            co_await db.dto->memsetCall(db.plat.core(0), *db.as, y,
                                        0x7e, 32 << 10);
            co_await db.dto->memcmpCall(db.plat.core(0), *db.as, x,
                                        y, 32 << 10, cmp);
            fin = true;
        }
    };
    bool fin = false;
    int cmp = -1;
    Drv::go(b, a, c, fin, cmp);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(cmp, 0);
    EXPECT_EQ(b.as->byteAt(a + 100), 0x7e);
    EXPECT_GE(b.dto->offloaded, 3u);
}

TEST(Dto, FaultingOffloadFallsBackToCpu)
{
    DtoBench b(8192);
    const std::uint64_t n = 32 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n);
    // Page out part of the source: DTO submits with block-on-fault
    // off, sees the partial completion, and redoes the op on the CPU
    // (which touches the page back in).
    b.as->evictPage(src + 8192);

    bool fin = false;
    callMemcpy(b, dst, src, n, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(b.dto->cpuFallbacks, 1u);
    EXPECT_TRUE(b.as->equal(src, dst, n));
}

TEST(Dto, StatsAccumulate)
{
    DtoBench b(8192);
    Addr src = b.as->alloc(256 << 10);
    Addr dst = b.as->alloc(256 << 10);
    struct Drv
    {
        static SimTask
        go(DtoBench &db, Addr s, Addr d, bool &fin)
        {
            for (int i = 0; i < 10; ++i) {
                std::uint64_t n = i % 2 ? 2048 : 16384;
                co_await db.dto->memcpyCall(db.plat.core(0), *db.as,
                                            d, s, n);
            }
            fin = true;
        }
    };
    bool fin = false;
    Drv::go(b, src, dst, fin);
    b.sim.run();
    ASSERT_TRUE(fin);
    EXPECT_EQ(b.dto->calls, 10u);
    EXPECT_EQ(b.dto->offloaded, 5u);
    EXPECT_EQ(b.dto->bytesOffloaded, 5u * 16384);
    EXPECT_EQ(b.dto->bytesOnCpu, 5u * 2048);
}

} // namespace
} // namespace dsasim
