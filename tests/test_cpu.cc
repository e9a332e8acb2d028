/**
 * @file
 * Tests for the CPU core model and software kernels: functional
 * correctness of every operation and first-order timing properties
 * (cold vs warm, local vs remote vs CXL, size monotonicity).
 */

#include <gtest/gtest.h>

#include "ops/crc32.hh"
#include "ops/delta.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;
using E = dml::Executor;

TEST(CpuKernels, MemcpyMovesBytes)
{
    Bench b;
    Addr src = b.as->alloc(64 << 10);
    Addr dst = b.as->alloc(64 << 10);
    b.randomize(src, 64 << 10);
    auto r = b.plat.kernels().memcpyOp(b.plat.core(0), *b.as, dst, src,
                                       64 << 10);
    EXPECT_GT(r.duration, 0u);
    EXPECT_TRUE(b.as->equal(src, dst, 64 << 10));
}

TEST(CpuKernels, MemcpyPollutesLlc)
{
    Bench b;
    const std::uint64_t n = 1 << 20;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n);
    EXPECT_EQ(b.plat.mem().cache().occupancyBytes(0), 0u);
    b.plat.kernels().memcpyOp(b.plat.core(0), *b.as, dst, src, n);
    // Copying through the core allocates both streams in the LLC.
    EXPECT_GT(b.plat.mem().cache().occupancyBytes(0), n);
}

TEST(CpuKernels, WarmCopyIsFasterThanCold)
{
    Bench b;
    const std::uint64_t n = 256 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n);
    auto cold =
        b.plat.kernels().memcpyOp(b.plat.core(0), *b.as, dst, src, n);
    auto warm =
        b.plat.kernels().memcpyOp(b.plat.core(0), *b.as, dst, src, n);
    EXPECT_LT(warm.duration, cold.duration);
}

TEST(CpuKernels, RemoteAndCxlCopiesAreSlower)
{
    Bench b;
    const std::uint64_t n = 1 << 20;
    Addr src_l = b.as->alloc(n, MemKind::DramLocal);
    Addr src_r = b.as->alloc(n, MemKind::DramRemote);
    Addr src_c = b.as->alloc(n, MemKind::Cxl);
    Addr dst = b.as->alloc(n, MemKind::DramLocal);
    auto &k = b.plat.kernels();
    auto &core = b.plat.core(0);
    auto local = k.memcpyOp(core, *b.as, dst, src_l, n);
    b.plat.mem().cache().invalidateAll();
    auto remote = k.memcpyOp(core, *b.as, dst, src_r, n);
    b.plat.mem().cache().invalidateAll();
    auto cxl = k.memcpyOp(core, *b.as, dst, src_c, n);
    EXPECT_LT(local.duration, remote.duration);
    EXPECT_LT(remote.duration, cxl.duration);
}

TEST(CpuKernels, DurationScalesWithSize)
{
    Bench b;
    auto &k = b.plat.kernels();
    auto &core = b.plat.core(0);
    Tick prev = 0;
    for (std::uint64_t n = 4096; n <= (1 << 20); n <<= 2) {
        Addr src = b.as->alloc(n);
        Addr dst = b.as->alloc(n);
        auto r = k.memcpyOp(core, *b.as, dst, src, n);
        EXPECT_GT(r.duration, prev);
        prev = r.duration;
    }
}

TEST(CpuKernels, MemsetFillsPattern)
{
    Bench b;
    Addr dst = b.as->alloc(4096);
    b.plat.kernels().run(b.plat.core(0), *b.as,
                         E::fill(*b.as, dst, 0x1122334455667788ull, 4096),
                         false);
    auto data = b.bytes(dst, 16);
    EXPECT_EQ(data[0], 0x88);
    EXPECT_EQ(data[7], 0x11);
    EXPECT_EQ(data[8], 0x88);
}

TEST(CpuKernels, NtFillAvoidsCachePollution)
{
    Bench b;
    const std::uint64_t n = 1 << 20;
    Addr d1 = b.as->alloc(n);
    Addr d2 = b.as->alloc(n);
    auto &k = b.plat.kernels();
    k.run(b.plat.core(0), *b.as, E::fill(*b.as, d1, 0, n),
          /*nontemporal=*/false);
    std::uint64_t after_reg =
        b.plat.mem().cache().occupancyBytes(0);
    b.plat.mem().cache().invalidateAll();
    k.run(b.plat.core(0), *b.as, E::fill(*b.as, d2, 0, n),
          /*nontemporal=*/true);
    std::uint64_t after_nt = b.plat.mem().cache().occupancyBytes(0);
    EXPECT_GT(after_reg, n / 2);
    EXPECT_EQ(after_nt, 0u);
}

TEST(CpuKernels, MemcmpFindsFirstDifference)
{
    Bench b;
    Addr a = b.as->alloc(8192);
    Addr c = b.as->alloc(8192);
    b.randomize(a, 8192, 1);
    std::vector<std::uint8_t> buf(8192);
    b.as->read(a, buf.data(), buf.size());
    b.as->write(c, buf.data(), buf.size());
    auto eq = b.plat.kernels().run(b.plat.core(0), *b.as,
                                   E::compare(*b.as, a, c, 8192), false);
    EXPECT_EQ(eq.result, 0u);
    buf[5000] ^= 1;
    b.as->write(c, buf.data(), buf.size());
    auto ne = b.plat.kernels().run(b.plat.core(0), *b.as,
                                   E::compare(*b.as, a, c, 8192), false);
    EXPECT_EQ(ne.result, 1u);
    EXPECT_EQ(ne.bytesCompleted, 5000u);
}


TEST(CpuKernels, MemcmpEarlyExitIsCheaper)
{
    Bench b;
    const std::uint64_t n = 1 << 20;
    Addr x = b.as->alloc(n);
    Addr y = b.as->alloc(n);
    b.randomize(x, n, 31);
    auto buf = b.bytes(x, n);
    b.as->write(y, buf.data(), n);
    auto &k = b.plat.kernels();
    auto &core = b.plat.core(0);

    b.plat.mem().cache().invalidateAll();
    auto full = k.run(core, *b.as, E::compare(*b.as, x, y, n), false);
    ASSERT_EQ(full.result, 0u);

    buf[100] ^= 1; // difference near the start
    b.as->write(y, buf.data(), n);
    b.plat.mem().cache().invalidateAll();
    auto early = k.run(core, *b.as, E::compare(*b.as, x, y, n), false);
    ASSERT_EQ(early.result, 1u);
    EXPECT_EQ(early.bytesCompleted, 100u);
    EXPECT_LT(early.duration, full.duration / 10);
}

TEST(CpuKernels, ComparePattern)
{
    Bench b;
    Addr a = b.as->alloc(4096);
    auto &k = b.plat.kernels();
    auto &core = b.plat.core(0);
    k.run(core, *b.as, E::fill(*b.as, a, 0xabcdabcdabcdabcdull, 4096),
          false);
    auto ok = k.run(core, *b.as,
                    E::comparePattern(*b.as, a, 0xabcdabcdabcdabcdull,
                                      4096),
                    false);
    EXPECT_EQ(ok.result, 0u);
    auto bad = k.run(core, *b.as,
                     E::comparePattern(*b.as, a, 0xabcdabcdabcdabceull,
                                       4096),
                     false);
    EXPECT_EQ(bad.result, 1u);
    EXPECT_EQ(bad.bytesCompleted, 0u);
}

TEST(CpuKernels, Crc32MatchesReference)
{
    Bench b;
    const std::uint64_t n = 10000;
    Addr a = b.as->alloc(n);
    b.randomize(a, n, 7);
    auto buf = b.bytes(a, n);
    auto r = b.plat.kernels().run(b.plat.core(0), *b.as,
                                  E::crc32(*b.as, a, n), false);
    EXPECT_EQ(r.crc, crc32cFull(buf.data(), buf.size()));
}

TEST(CpuKernels, CopyCrcMovesAndChecksums)
{
    Bench b;
    const std::uint64_t n = 32 << 10;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n, 9);
    auto r = b.plat.kernels().run(b.plat.core(0), *b.as,
                                  E::copyCrc(*b.as, dst, src, n), false);
    EXPECT_TRUE(b.as->equal(src, dst, n));
    auto buf = b.bytes(src, n);
    EXPECT_EQ(r.crc, crc32cFull(buf.data(), buf.size()));
}

TEST(CpuKernels, DualcastWritesBoth)
{
    Bench b;
    const std::uint64_t n = 16 << 10;
    Addr src = b.as->alloc(n);
    Addr d1 = b.as->alloc(n);
    Addr d2 = b.as->alloc(n);
    b.randomize(src, n, 11);
    b.plat.kernels().run(b.plat.core(0), *b.as,
                         E::dualcast(*b.as, d1, d2, src, n), false);
    EXPECT_TRUE(b.as->equal(src, d1, n));
    EXPECT_TRUE(b.as->equal(src, d2, n));
}

TEST(CpuKernels, DeltaCreateApplyRoundTrip)
{
    Bench b;
    const std::uint64_t n = 64 << 10;
    Addr orig = b.as->alloc(n);
    Addr mod = b.as->alloc(n);
    Addr rec = b.as->alloc(n * 2);
    b.randomize(orig, n, 13);
    auto buf = b.bytes(orig, n);
    buf[100] ^= 0xff;
    buf[50000] ^= 0x0f;
    b.as->write(mod, buf.data(), buf.size());

    auto cr = b.plat.kernels().run(
        b.plat.core(0), *b.as,
        E::createDelta(*b.as, orig, mod, n, rec, n * 2), false);
    EXPECT_EQ(cr.result, 1u); // differences exist
    EXPECT_TRUE(cr.recordFits);
    EXPECT_EQ(cr.recordBytes, 2 * deltaEntryBytes);

    // Apply onto a copy of the original.
    Addr target = b.as->alloc(n);
    auto obuf = b.bytes(orig, n);
    b.as->write(target, obuf.data(), obuf.size());
    auto ar = b.plat.kernels().run(
        b.plat.core(0), *b.as,
        E::applyDelta(*b.as, target, rec, cr.recordBytes, n), false);
    EXPECT_EQ(ar.status, OpStatus::Success);
    EXPECT_TRUE(b.as->equal(target, mod, n));
}

TEST(CpuKernels, DifInsertCheckStrip)
{
    Bench b;
    const std::uint64_t block = 512, nblocks = 16;
    Addr src = b.as->alloc(block * nblocks);
    Addr prot = b.as->alloc((block + 8) * nblocks);
    Addr out = b.as->alloc(block * nblocks);
    b.randomize(src, block * nblocks, 17);
    auto &k = b.plat.kernels();
    auto &core = b.plat.core(0);

    const std::uint64_t n = block * nblocks;
    k.run(core, *b.as, E::difInsert(*b.as, src, prot, block, n, 7, 1000),
          false);
    auto chk = k.run(core, *b.as,
                     E::difCheck(*b.as, prot, block, n, 7, 1000), false);
    EXPECT_EQ(chk.result, 0u);
    auto bad = k.run(core, *b.as,
                     E::difCheck(*b.as, prot, block, n, 8, 1000), false);
    EXPECT_EQ(bad.result, 1u);
    k.run(core, *b.as, E::difStrip(*b.as, prot, out, block, n), false);
    EXPECT_TRUE(b.as->equal(src, out, block * nblocks));
}

TEST(CpuKernels, CacheFlushEvicts)
{
    Bench b;
    const std::uint64_t n = 64 << 10;
    Addr a = b.as->alloc(n);
    Addr d = b.as->alloc(n);
    b.plat.kernels().memcpyOp(b.plat.core(0), *b.as, d, a, n);
    Addr pa = b.as->translate(d);
    EXPECT_TRUE(b.plat.mem().cache().probe(pa));
    b.plat.kernels().run(b.plat.core(0), *b.as, E::cacheFlush(*b.as, d, n),
                         false);
    EXPECT_FALSE(b.plat.mem().cache().probe(pa));
}

TEST(CpuKernelsDeathTest, ControlOpsHaveNoSoftwarePath)
{
    Bench b;
    for (Opcode op : {Opcode::Nop, Opcode::Batch, Opcode::Drain}) {
        OpArgs a;
        a.op = op;
        EXPECT_DEATH(b.plat.kernels().run(b.plat.core(0), *b.as, a, false),
                     "no software path for opcode");
    }
}

// touchRange charges one span call per page run and then one
// occupy(64) per dirty victim, on the victim's own node, in line
// order. Pinned against the per-line loop it replaced: one 4 KiB copy
// over an LLC full of dirty lines homed on two nodes.
TEST(CpuKernels, MemcpyOverDirtyFullLlcGolden)
{
    Bench b;
    CacheModel &llc = b.plat.mem().cache();
    const std::uint64_t half = llc.sizeBytes();
    const Addr local = b.as->alloc(half, MemKind::DramLocal);
    const Addr remote = b.as->alloc(half, MemKind::DramRemote);
    auto &k = b.plat.kernels();
    k.run(b.plat.core(1), *b.as, E::fill(*b.as, local, 0x5a, half),
          false);
    k.run(b.plat.core(1), *b.as, E::fill(*b.as, remote, 0xa5, half),
          false);
    ASSERT_EQ(llc.totalOccupancyBytes(),
              std::uint64_t{llc.numSets()} * llc.numWays() * 64);
    // Drain the fills' link backlog so the copy's charges stand alone.
    LinkResource &wl0 = b.plat.mem().node(0).writeLink;
    LinkResource &wl1 = b.plat.mem().node(1).writeLink;
    const Tick t0 = std::max(wl0.nextFree(), wl1.nextFree());
    b.sim.runUntil(t0);
    ASSERT_EQ(b.sim.now(), t0);
    const Addr src = b.as->alloc(4096);
    const Addr dst = b.as->alloc(4096);
    b.randomize(src, 4096);
    const std::uint64_t wb0 = llc.writebackBytesTotal();
    auto r = k.memcpyOp(b.plat.core(0), *b.as, dst, src, 4096);
    EXPECT_TRUE(b.as->equal(src, dst, 4096));
    EXPECT_EQ(r.duration, 660200u);
    EXPECT_EQ(llc.writebackBytesTotal() - wb0, 8192u);
    EXPECT_EQ(wl0.nextFree() - t0, 43116u);
    EXPECT_EQ(wl1.nextFree() - t0, 86272u);
}

TEST(CpuKernels, CrcSlowerThanPlainRead)
{
    Bench b;
    const std::uint64_t n = 1 << 20;
    Addr a = b.as->alloc(n);
    auto &k = b.plat.kernels();
    auto &core = b.plat.core(0);
    auto cmp = k.run(core, *b.as, E::comparePattern(*b.as, a, 0, n),
                     false);
    b.plat.mem().cache().invalidateAll();
    auto crc = k.run(core, *b.as, E::crc32(*b.as, a, n), false);
    EXPECT_GT(crc.duration, cmp.duration);
}

TEST(Core, CycleAccounting)
{
    Bench b;
    auto &core = b.plat.core(0);
    core.chargeBusy(fromNs(100));
    core.chargeUmwait(fromNs(300));
    EXPECT_EQ(core.busyTicks(), fromNs(100));
    EXPECT_EQ(core.umwaitTicks(), fromNs(300));
    EXPECT_NEAR(core.cycleAccount().fraction("umwait"), 0.75, 0.01);
    core.resetAccounting();
    EXPECT_EQ(core.busyTicks(), 0u);
}

TEST(Core, TlbWalksChargedForLargeFootprints)
{
    Bench b;
    auto &core = b.plat.core(0);
    // Footprint far beyond the TLB reach (1536 x 4K = 6 MB).
    const std::uint64_t n = 16 << 20;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    std::uint64_t misses_before = core.tlb().misses();
    b.plat.kernels().memcpyOp(core, *b.as, dst, src, n);
    EXPECT_GT(core.tlb().misses(), misses_before + 1000);
}

} // namespace
} // namespace dsasim
