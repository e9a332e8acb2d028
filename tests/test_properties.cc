/**
 * @file
 * Property-based tests (parameterized sweeps):
 *
 *  - Hardware/software equivalence: for every opcode, across sizes
 *    and (mis)alignments, the DSA path and the CPU path must produce
 *    byte-identical results and identical result metadata.
 *  - Timing sanity invariants: throughput never exceeds the fabric
 *    limit; durations are monotone in size; link conservation.
 *  - Memory-system invariants: cache occupancy never exceeds
 *    capacity, DDIO confinement holds for arbitrary streams.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "ops/crc32.hh"
#include "ops/delta.hh"
#include "ops/dif.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;

struct HwSwCase
{
    Opcode op;
    /**
     * A failing input: a corrupted DIF tuple in the middle block, or
     * a delta record entry past the end of the buffer.
     */
    bool corrupt;
    /**
     * gtest lists each case as "<name> # GetParam() = <its bytes>",
     * so no byte of the case may be padding: padding holds whatever
     * the stack held, and the listed names would change from one
     * build to the next.
     */
    std::uint8_t zero[6];
    std::uint64_t size;
    std::uint64_t srcSkew; ///< bytes of deliberate misalignment
};
static_assert(std::has_unique_object_representations_v<HwSwCase>);

std::string
caseName(const ::testing::TestParamInfo<HwSwCase> &info)
{
    std::string name = std::string(opcodeName(info.param.op)) + "_" +
                       std::to_string(info.param.size) + "_skew" +
                       std::to_string(info.param.srcSkew) +
                       (info.param.corrupt ? "_corrupt" : "");
    for (auto &ch : name)
        if (ch == '-')
            ch = '_';
    return name;
}

class HwSwEquivalence : public ::testing::TestWithParam<HwSwCase>
{
};

TEST_P(HwSwEquivalence, SameBytesAndMetadata)
{
    using E = dml::Executor;
    const HwSwCase &c = GetParam();
    Bench b;
    DsaTopology::basic().apply(b.plat.dsa(0));
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(b.sim, b.plat.mem(), b.plat.kernels(),
                       {&b.plat.dsa(0)}, ec);

    const std::uint64_t n = c.size;
    const std::uint32_t blk = 512;
    const std::uint64_t nblocks = n / blk;
    const bool dif = c.op == Opcode::DifInsert ||
                     c.op == Opcode::DifCheck ||
                     c.op == Opcode::DifStrip ||
                     c.op == Opcode::DifUpdate;
    Addr src = b.as->alloc(2 * n + 64) + c.srcSkew;
    Addr src2 = b.as->alloc(n + 64) + c.srcSkew;
    Addr rec = b.as->alloc(64);
    Addr hw_dst = b.as->alloc(2 * n + 64);
    Addr sw_dst = b.as->alloc(2 * n + 64);
    Addr hw_dst2 = b.as->alloc(n + 64);
    Addr sw_dst2 = b.as->alloc(n + 64);
    b.randomize(src, n, n + 1);
    const std::vector<std::uint8_t> data = b.bytes(src, n);
    {
        // src2 = src with one flipped byte in the middle.
        auto buf = data;
        buf[n / 2] ^= 0x10;
        b.as->write(src2, buf.data(), n);
    }
    if (dif && c.op != Opcode::DifInsert && nblocks > 0) {
        // Protected source: app tag 7, reference tags from 100.
        std::vector<std::uint8_t> prot(nblocks * (blk + difTupleBytes));
        difInsert(data.data(), prot.data(), blk, nblocks, 7, 100);
        if (c.corrupt)
            prot[(nblocks / 2) * (blk + difTupleBytes) + blk] ^= 1;
        b.as->write(src, prot.data(), prot.size());
    }
    std::uint64_t rec_bytes = 0;
    if (c.op == Opcode::ApplyDelta) {
        // The record turns src into src2; apply it onto copies of src.
        DeltaResult dr = deltaCreate(data.data(), b.bytes(src2, n).data(),
                                     n, 64);
        if (c.corrupt) {
            dr.record[0] = static_cast<std::uint8_t>(n / 8);
            dr.record[1] = static_cast<std::uint8_t>(n / 8 >> 8);
        }
        rec_bytes = dr.record.size();
        b.as->write(rec, dr.record.data(), rec_bytes);
        b.as->write(hw_dst, data.data(), n);
        b.as->write(sw_dst, data.data(), n);
    }

    auto make = [&](Addr dst, Addr dst2) {
        WorkDescriptor d;
        switch (c.op) {
          case Opcode::Memmove:
            return E::memMove(*b.as, dst, src, n);
          case Opcode::Fill:
            return E::fill(*b.as, dst, 0xa5a5a5a5a5a5a5a5ull, n);
          case Opcode::Compare:
            return E::compare(*b.as, src, src2, n);
          case Opcode::ComparePattern:
            return E::comparePattern(*b.as, src, 0, n);
          case Opcode::CrcGen:
            return E::crc32(*b.as, src, n);
          case Opcode::CopyCrc:
            return E::copyCrc(*b.as, dst, src, n);
          case Opcode::Dualcast:
            return E::dualcast(*b.as, dst, dst2, src, n);
          case Opcode::CreateDelta:
            return E::createDelta(*b.as, src, src2, n, dst, 2 * n + 64);
          case Opcode::ApplyDelta:
            return E::applyDelta(*b.as, dst, rec, rec_bytes, n);
          case Opcode::DifInsert:
            return E::difInsert(*b.as, src, dst, blk, n, 7, 100);
          case Opcode::DifCheck:
            return E::difCheck(*b.as, src, blk, n, 7, 100);
          case Opcode::DifStrip:
            return E::difStrip(*b.as, src, dst, blk, n);
          case Opcode::DifUpdate:
            return E::difUpdate(*b.as, src, dst, blk, n, 7, 100, 9, 200);
          case Opcode::CacheFlush:
            return E::cacheFlush(*b.as, src, n);
          default:
            return d;
        }
    };

    struct Drv
    {
        static SimTask
        go(Bench &bb, dml::Executor &ex, WorkDescriptor d, bool hw,
           dml::OpResult &o, bool &fin)
        {
            if (hw)
                co_await ex.executeHardware(bb.plat.core(0), d, o);
            else
                co_await ex.executeSoftware(bb.plat.core(1), d, o);
            fin = true;
        }
    };

    dml::OpResult hw, sw;
    bool f1 = false, f2 = false;
    Drv::go(b, exec, make(hw_dst, hw_dst2), true, hw, f1);
    b.sim.run();
    Drv::go(b, exec, make(sw_dst, sw_dst2), false, sw, f2);
    b.sim.run();
    ASSERT_TRUE(f1 && f2);

    const bool rejected = (dif && n % blk != 0) ||
                          (c.op == Opcode::ApplyDelta && c.corrupt);
    const auto want = rejected ? CompletionRecord::Status::Unsupported
                               : CompletionRecord::Status::Success;
    EXPECT_EQ(hw.status, want);
    EXPECT_EQ(sw.status, want);
    EXPECT_EQ(hw.ok, sw.ok) << opcodeName(c.op);
    EXPECT_EQ(hw.result, sw.result);
    EXPECT_EQ(hw.crc, sw.crc);
    EXPECT_EQ(hw.bytesCompleted, sw.bytesCompleted);
    EXPECT_EQ(hw.recordBytes, sw.recordBytes);
    EXPECT_EQ(hw.recordFits, sw.recordFits);
    if (c.op == Opcode::Compare) {
        EXPECT_EQ(hw.result, 1u);
        EXPECT_EQ(hw.bytesCompleted, n / 2);
    }
    if ((c.op == Opcode::DifCheck || c.op == Opcode::DifUpdate) &&
        !rejected) {
        // A failed check stops at the corrupted block.
        EXPECT_EQ(hw.result, c.corrupt ? 1u : 0u);
        EXPECT_EQ(hw.bytesCompleted, c.corrupt ? nblocks / 2 * blk : n);
    }

    // Destination payloads must match byte for byte.
    EXPECT_TRUE(b.as->equal(hw_dst, sw_dst, 2 * n + 64));
    EXPECT_TRUE(b.as->equal(hw_dst2, sw_dst2, n + 64));
    if (c.op == Opcode::Memmove || c.op == Opcode::CopyCrc) {
        EXPECT_TRUE(b.as->equal(hw_dst, src, n));
    }
    if (c.op == Opcode::ApplyDelta && !c.corrupt) {
        EXPECT_TRUE(b.as->equal(hw_dst, src2, n));
    }
}

INSTANTIATE_TEST_SUITE_P(
    OpSizeAlignmentSweep, HwSwEquivalence,
    ::testing::ValuesIn([] {
        std::vector<HwSwCase> cases;
        const Opcode ops[] = {
            Opcode::Memmove,    Opcode::Fill,
            Opcode::Compare,    Opcode::ComparePattern,
            Opcode::CrcGen,     Opcode::CopyCrc,
            Opcode::Dualcast,   Opcode::CreateDelta,
            Opcode::ApplyDelta, Opcode::DifInsert,
            Opcode::DifCheck,   Opcode::DifStrip,
            Opcode::DifUpdate,  Opcode::CacheFlush,
        };
        const std::uint64_t sizes[] = {64, 4096, 65536};
        const std::uint64_t skews[] = {0, 8};
        for (auto op : ops)
            for (auto s : sizes)
                for (auto k : skews) {
                    if (op == Opcode::CreateDelta && k != 0)
                        continue; // delta requires 8B alignment: ok
                    cases.push_back({op, false, {}, s, k});
                    const bool can_corrupt =
                        op == Opcode::ApplyDelta ||
                        ((op == Opcode::DifCheck ||
                          op == Opcode::DifUpdate) && s >= 4096);
                    if (can_corrupt)
                        cases.push_back({op, true, {}, s, k});
                }
        return cases;
    }()),
    caseName);

// ---------------------------------------------------------------

class ThroughputBounds
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ThroughputBounds, NeverExceedsFabric)
{
    const std::uint64_t n = GetParam();
    Bench b;
    DsaTopology::basic(32, 4).apply(b.plat.dsa(0));
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(b.sim, b.plat.mem(), b.plat.kernels(),
                       {&b.plat.dsa(0)}, ec);
    const int jobs = 48;
    Addr src = b.as->alloc(n * jobs);
    Addr dst = b.as->alloc(n * jobs);
    Tick elapsed = 0;

    struct Drv
    {
        static SimTask
        go(Bench &bb, dml::Executor &ex, Addr s, Addr d,
           std::uint64_t len, int count, Tick &el)
        {
            Tick t0 = bb.sim.now();
            std::vector<std::unique_ptr<dml::Job>> inflight;
            for (int i = 0; i < count; ++i) {
                auto job = ex.prepare(dml::Executor::memMove(
                    *bb.as, d + static_cast<Addr>(i) * len,
                    s + static_cast<Addr>(i) * len, len));
                co_await ex.submit(bb.plat.core(0), *job);
                inflight.push_back(std::move(job));
            }
            dml::OpResult r;
            for (auto &j : inflight)
                co_await ex.wait(bb.plat.core(0), *j, r);
            el = bb.sim.now() - t0;
        }
    };
    Drv::go(b, exec, src, dst, n, jobs, elapsed);
    b.sim.run();
    double gbps =
        achievedGBps(static_cast<std::uint64_t>(jobs) * n, elapsed);
    EXPECT_LE(gbps, b.plat.dsa(0).params().fabricGBps * 1.01);
    EXPECT_GT(gbps, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ThroughputBounds,
                         ::testing::Values(256, 4096, 65536,
                                           1 << 20));

// ---------------------------------------------------------------

class DurationMonotonicity
    : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(DurationMonotonicity, SoftwareDurationsGrowWithSize)
{
    Bench b;
    auto &k = b.plat.kernels();
    auto &core = b.plat.core(0);
    Tick prev = 0;
    for (std::uint64_t n : {4096ull, 65536ull, 1048576ull}) {
        Addr src = b.as->alloc(n);
        Addr dst = b.as->alloc(n);
        b.plat.mem().cache().invalidateAll();
        SwKernels::Result r;
        switch (GetParam()) {
          case Opcode::Memmove:
            r = k.memcpyOp(core, *b.as, dst, src, n);
            break;
          case Opcode::Fill:
            r = k.run(core, *b.as,
                      dml::Executor::fill(*b.as, dst, 1, n), false);
            break;
          case Opcode::CrcGen:
            r = k.run(core, *b.as, dml::Executor::crc32(*b.as, src, n),
                      false);
            break;
          case Opcode::Compare:
            r = k.run(core, *b.as,
                      dml::Executor::compare(*b.as, src, dst, n), false);
            break;
          default:
            r = k.memcpyOp(core, *b.as, dst, src, n);
            break;
        }
        EXPECT_GT(r.duration, prev);
        prev = r.duration;
    }
}

INSTANTIATE_TEST_SUITE_P(Ops, DurationMonotonicity,
                         ::testing::Values(Opcode::Memmove,
                                           Opcode::Fill,
                                           Opcode::CrcGen,
                                           Opcode::Compare));

// ---------------------------------------------------------------

class DdioConfinement : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DdioConfinement, DeviceOccupancyBounded)
{
    const unsigned ddio_ways = GetParam();
    CacheModel::Config cfg;
    cfg.sizeBytes = 1 << 20;
    cfg.ways = 8;
    cfg.ddioWays = ddio_ways;
    CacheModel c(cfg);
    Rng rng(ddio_ways);
    // Random interleaving of CPU reads/writes and device writes.
    // Device traffic targets a disjoint address range: a DDIO write
    // that *hits* a CPU-cached line updates it in place (wherever it
    // sits), so strict confinement only holds for device-private
    // data.
    for (int i = 0; i < 200000; ++i) {
        Addr a = rng.range(0, (8 << 20) / 64 - 1) * 64;
        switch (rng.below(3)) {
          case 0:
            c.cpuAccess(a, 1, false);
            break;
          case 1:
            c.cpuAccess(a, 2, true);
            break;
          default:
            c.fillSpan(a + (64ull << 20), cacheLineSize, 99);
            break;
        }
        if (i % 10000 == 0) {
            ASSERT_LE(c.occupancyBytes(99), c.ddioCapacityBytes());
            ASSERT_LE(c.totalOccupancyBytes(), c.sizeBytes());
        }
    }
    EXPECT_LE(c.occupancyBytes(99), c.ddioCapacityBytes());
}

INSTANTIATE_TEST_SUITE_P(Ways, DdioConfinement,
                         ::testing::Values(1, 2, 4));

} // namespace
} // namespace dsasim
