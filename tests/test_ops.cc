/**
 * @file
 * Unit tests for the data-transform primitives: CRC-32C, CRC-16 T10,
 * delta records, and DIF operations — including known-answer vectors
 * so the functional layer matches what real ISA-L / DSA compute, and
 * a differential fuzz of every CRC arm against the bitwise reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "ops/crc32.hh"
#include "ops/crc32_arms.hh"
#include "ops/delta.hh"
#include "ops/dif.hh"
#include "sim/random.hh"

namespace dsasim
{
namespace
{

TEST(Crc32c, KnownVectors)
{
    // Standard CRC-32C check value for "123456789".
    const char *msg = "123456789";
    EXPECT_EQ(crc32cFull(msg, 9), 0xe3069283u);
    // All-zero 32-byte vector (RFC 3720 appendix).
    std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc32cFull(zeros.data(), zeros.size()), 0x8a9136aau);
    // All-ones 32-byte vector.
    std::vector<std::uint8_t> ones(32, 0xff);
    EXPECT_EQ(crc32cFull(ones.data(), ones.size()), 0x62a8ab43u);
}

TEST(Crc32c, EmptyInput)
{
    EXPECT_EQ(crc32cFull(nullptr, 0), 0u);
}

TEST(Crc32c, ChainingMatchesOneShot)
{
    Rng rng(1);
    std::vector<std::uint8_t> data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next32());
    std::uint32_t whole = crc32cFull(data.data(), data.size());
    std::uint32_t state = crc32cInit;
    for (std::size_t off = 0; off < data.size(); off += 100) {
        std::size_t run = std::min<std::size_t>(100, data.size() - off);
        state = crc32c(data.data() + off, run, state);
    }
    EXPECT_EQ(crc32cFinish(state), whole);
}

TEST(Crc32c, ShiftEqualsZeroBytes)
{
    // The closed-form operator is exactly the CRC of n zero bytes.
    Rng rng(15);
    std::vector<std::uint8_t> zeros(1 << 16, 0);
    for (std::size_t n : {0, 1, 7, 8, 9, 255, 256, 4096, 65535, 65536}) {
        const std::uint32_t s = rng.next32();
        EXPECT_EQ(crc32cShift(s, n), crc32cBitwise(zeros.data(), n, s))
            << "n=" << n;
    }
}

TEST(Crc16T10, KnownVector)
{
    // T10-DIF CRC of 32 zero bytes is 0 (by polynomial structure).
    std::vector<std::uint8_t> zeros(32, 0);
    EXPECT_EQ(crc16T10(zeros.data(), zeros.size()), 0u);
    // The catalogued CRC-16/T10-DIF check value.
    const char *msg = "123456789";
    EXPECT_EQ(crc16T10(msg, 9), 0xd0dbu);
    EXPECT_EQ(crc16T10Bitwise(msg, 9), 0xd0dbu);
}

/** 4 KiB of Rng(2024) bytes: long enough for every lane and fold. */
std::vector<std::uint8_t>
goldenBuffer()
{
    Rng rng(2024);
    std::vector<std::uint8_t> buf(4096);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next32());
    return buf;
}

/*
 * Fixed answers for a buffer that reaches the hardware arms' lane and
 * fold loops, so those paths are pinned independently of the bitwise
 * reference.
 */
TEST(Crc32c, GoldenSeededBuffer)
{
    const auto buf = goldenBuffer();
    constexpr std::uint32_t want = 0x448a31d8u;
    EXPECT_EQ(crc32cFull(buf.data(), buf.size()), want);
    EXPECT_EQ(crc32cFinish(crc32cBitwise(buf.data(), buf.size(),
                                         crc32cInit)),
              want);
    for (const auto &arm : crc_arms::crc32cArms()) {
        if (arm.available) {
            EXPECT_EQ(crc32cFinish(arm.fn(buf.data(), buf.size(),
                                          crc32cInit)),
                      want)
                << arm.name;
        }
    }
}

TEST(Crc16T10, GoldenSeededBuffer)
{
    const auto buf = goldenBuffer();
    constexpr std::uint16_t want = 0xb94e;
    EXPECT_EQ(crc16T10(buf.data(), buf.size()), want);
    EXPECT_EQ(crc16T10Bitwise(buf.data(), buf.size()), want);
    for (const auto &arm : crc_arms::crc16T10Arms()) {
        if (arm.available) {
            EXPECT_EQ(arm.fn(buf.data(), buf.size(), 0), want)
                << arm.name;
        }
    }
}

/**
 * One CRC arm under test. Both polynomials go behind one 32-bit
 * signature (the CRC-16 seed and result in the low half) so every
 * differential test below runs unchanged over every arm.
 */
struct ArmCase
{
    using Fn = std::function<std::uint32_t(const void *, std::size_t,
                                           std::uint32_t)>;
    std::string name;
    bool available;
    Fn fn;
    Fn ref;
    std::uint32_t seedMask;
};

void
PrintTo(const ArmCase &c, std::ostream *os)
{
    *os << c.name;
}

/** "crc16t10" + "slice-by-8" -> "crc16t10_slice_by_8". */
std::string
armCaseName(const char *crc, const char *arm)
{
    std::string n = std::string(crc) + "_" + arm;
    for (char &ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return n;
}

std::vector<ArmCase>
crc32cCases()
{
    std::vector<ArmCase> out;
    for (const auto &arm : crc_arms::crc32cArms())
        out.push_back({armCaseName("crc32c", arm.name), arm.available,
                       arm.fn, crc32cBitwise, 0xffffffffu});
    return out;
}

std::vector<ArmCase>
crc16Cases()
{
    std::vector<ArmCase> out;
    for (const auto &arm : crc_arms::crc16T10Arms()) {
        out.push_back(
            {armCaseName("crc16t10", arm.name), arm.available,
             [fn = arm.fn](const void *p, std::size_t n,
                           std::uint32_t s) -> std::uint32_t {
                 return fn(p, n, static_cast<std::uint16_t>(s));
             },
             [](const void *p, std::size_t n,
                std::uint32_t s) -> std::uint32_t {
                 return crc16T10Bitwise(p, n,
                                        static_cast<std::uint16_t>(s));
             },
             0xffffu});
    }
    return out;
}

std::vector<ArmCase>
allCases()
{
    std::vector<ArmCase> out = crc32cCases();
    for (auto &c : crc16Cases())
        out.push_back(std::move(c));
    return out;
}

std::string
caseName(const ::testing::TestParamInfo<ArmCase> &info)
{
    return info.param.name;
}

constexpr std::size_t maxLen = 1 << 20;

/**
 * 1 MiB + 64 B of random bytes from a 64-byte boundary, shared by
 * every differential test, so an offset is also the start's
 * misalignment to a 512-bit load.
 */
const std::uint8_t *
fuzzBuffer()
{
    static const std::vector<std::uint8_t> buf = [] {
        Rng rng(16);
        std::vector<std::uint8_t> b(maxLen + 128);
        for (auto &x : b)
            x = static_cast<std::uint8_t>(rng.next32());
        return b;
    }();
    const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
    return buf.data() + (-addr & 63);
}

/** Every arm, each checked against the bit-at-a-time reference. */
class CrcArms : public ::testing::TestWithParam<ArmCase>
{
  protected:
    void
    SetUp() override
    {
        if (!GetParam().available)
            GTEST_SKIP() << GetParam().name << " not supported here";
    }
};

/**
 * 0-200 bytes exhaustively, then every length within 16 bytes of a
 * word, fold, lane or block boundary up to 1 MiB, at several base
 * offsets. References come from one incremental bitwise pass.
 */
TEST_P(CrcArms, MatchesBitwiseAcrossLengths)
{
    const ArmCase &arm = GetParam();
    std::vector<std::size_t> lens;
    for (std::size_t n = 0; n <= 200; ++n)
        lens.push_back(n);
    for (std::size_t b : {8u, 16u, 64u, 128u, 256u, 384u, 512u, 768u,
                          1024u, 2048u, 4096u, 6144u, 6528u, 12288u,
                          65536u}) {
        for (std::size_t n = b - 16; n <= b + 16; ++n)
            lens.push_back(n);
    }
    for (std::size_t n = maxLen - 16; n <= maxLen; ++n)
        lens.push_back(n);
    std::sort(lens.begin(), lens.end());
    lens.erase(std::unique(lens.begin(), lens.end()), lens.end());

    Rng rng(17);
    const std::uint8_t *buf = fuzzBuffer();
    for (std::size_t off :
         {0u, 1u, 3u, 7u, 8u, 13u, 16u, 32u, 48u, 63u}) {
        const std::uint8_t *p = buf + off;
        const std::uint32_t seed = rng.next32() & arm.seedMask;
        std::uint32_t ref = seed;
        std::size_t done = 0;
        for (std::size_t n : lens) {
            ref = arm.ref(p + done, n - done, ref);
            done = n;
            ASSERT_EQ(arm.fn(p, n, seed), ref)
                << arm.name << " len=" << n << " off=" << off;
        }
    }
}

TEST_P(CrcArms, MatchesBitwiseRandomOffsetsAndSeeds)
{
    const ArmCase &arm = GetParam();
    Rng rng(18);
    const std::uint8_t *buf = fuzzBuffer();
    for (int i = 0; i < 300; ++i) {
        const std::size_t off = rng.below(64);
        const std::uint32_t cap =
            i % 30 == 0 ? maxLen : (i % 3 == 0 ? 1 << 14 : 1 << 10);
        const std::size_t len = rng.below(cap + 1);
        const std::uint32_t seed = rng.next32() & arm.seedMask;
        ASSERT_EQ(arm.fn(buf + off, len, seed),
                  arm.ref(buf + off, len, seed))
            << arm.name << " len=" << len << " off=" << off;
    }
}

/**
 * A resumed operation (partial completion) continues from the
 * returned state: chaining at random cut points must equal the
 * one-shot result.
 */
TEST_P(CrcArms, ChainingSplitsAtRandomCuts)
{
    const ArmCase &arm = GetParam();
    Rng rng(19);
    const std::uint8_t *buf = fuzzBuffer();
    for (int i = 0; i < 100; ++i) {
        const std::size_t off = rng.below(64);
        const std::size_t len =
            rng.below(i % 10 == 0 ? maxLen : 1 << 15) + 1;
        const std::uint32_t seed = rng.next32() & arm.seedMask;
        std::vector<std::size_t> cuts = {0, len};
        for (std::uint32_t c = rng.below(4) + 1; c > 0; --c)
            cuts.push_back(rng.below(static_cast<std::uint32_t>(len)));
        std::sort(cuts.begin(), cuts.end());

        const std::uint8_t *p = buf + off;
        std::uint32_t state = seed;
        for (std::size_t k = 1; k < cuts.size(); ++k)
            state = arm.fn(p + cuts[k - 1], cuts[k] - cuts[k - 1], state);
        ASSERT_EQ(state, arm.ref(p, len, seed))
            << arm.name << " len=" << len << " off=" << off;
    }
}

INSTANTIATE_TEST_SUITE_P(AllArms, CrcArms, ::testing::ValuesIn(allCases()),
                         caseName);

/**
 * The DIF kernels over every block size, with each CRC-16 arm's guard
 * checked against the stored tuple, and an insert / check / update
 * that resumes mid-range advancing the reference tag exactly as the
 * one-shot call does.
 */
class CrcArmsDif : public CrcArms
{};

TEST_P(CrcArmsDif, GuardsAcrossResumedBlockRanges)
{
    const ArmCase &arm = GetParam();
    Rng rng(20);
    for (std::size_t block : {512u, 520u, 4096u, 4104u}) {
        const std::size_t nblocks = 6, pblock = block + difTupleBytes;
        std::vector<std::uint8_t> data(block * nblocks);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next32());
        const std::uint16_t app = 0x1234, app2 = 0x4321;
        const std::uint32_t ref = 1000, ref2 = 77;

        std::vector<std::uint8_t> whole(pblock * nblocks);
        difInsert(data.data(), whole.data(), block, nblocks, app, ref);
        for (std::size_t b = 0; b < nblocks; ++b) {
            const std::uint8_t *blk = whole.data() + b * pblock;
            const DifTuple t = difLoad(blk + block);
            EXPECT_EQ(t.guard, arm.fn(blk, block, 0))
                << arm.name << " block=" << block << " #" << b;
            EXPECT_EQ(t.guard, crc16T10Bitwise(blk, block));
            EXPECT_EQ(t.refTag, ref + b);
        }

        const std::size_t k = 1 + rng.below(nblocks - 1);
        std::vector<std::uint8_t> resumed(whole.size());
        difInsert(data.data(), resumed.data(), block, k, app, ref);
        difInsert(data.data() + k * block, resumed.data() + k * pblock,
                  block, nblocks - k, app,
                  ref + static_cast<std::uint32_t>(k));
        EXPECT_EQ(resumed, whole) << "block=" << block << " k=" << k;

        const std::uint8_t *tail = whole.data() + k * pblock;
        EXPECT_TRUE(difCheck(tail, block, nblocks - k, app,
                             ref + static_cast<std::uint32_t>(k))
                        .ok);
        EXPECT_FALSE(difCheck(tail, block, nblocks - k, app, ref).ok);

        std::vector<std::uint8_t> updated(whole.size()),
            updatedResumed(whole.size());
        ASSERT_TRUE(difUpdate(whole.data(), updated.data(), block,
                              nblocks, app, ref, app2, ref2)
                        .ok);
        ASSERT_TRUE(difUpdate(whole.data(), updatedResumed.data(), block,
                              k, app, ref, app2, ref2)
                        .ok);
        ASSERT_TRUE(difUpdate(tail, updatedResumed.data() + k * pblock,
                              block, nblocks - k, app,
                              ref + static_cast<std::uint32_t>(k), app2,
                              ref2 + static_cast<std::uint32_t>(k))
                        .ok);
        EXPECT_EQ(updatedResumed, updated) << "block=" << block;
        EXPECT_TRUE(
            difCheck(updated.data(), block, nblocks, app2, ref2).ok);
    }
}

INSTANTIATE_TEST_SUITE_P(Crc16Arms, CrcArmsDif,
                         ::testing::ValuesIn(crc16Cases()), caseName);

/**
 * A silent fall-back to slice-by-8 would keep every test above green
 * and lose the whole speed-up; pin the selection to the host's
 * instructions.
 */
TEST(CrcDispatch, PicksHardwareWhenPresent)
{
    std::string want32 = "slice-by-8", want16 = "slice-by-8";
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        want32 = "sse4.2";
    if (__builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("ssse3"))
        want16 = "pclmul";
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("vpclmulqdq"))
        want32 = want16 = "vpclmul";
#endif
    EXPECT_EQ(crc_arms::crc32cSelected().name, want32);
    EXPECT_EQ(crc_arms::crc16T10Selected().name, want16);
    EXPECT_TRUE(crc_arms::crc32cSelected().available);
    EXPECT_TRUE(crc_arms::crc16T10Selected().available);
}

TEST(Delta, RoundTripRandomMutations)
{
    Rng rng(2);
    std::vector<std::uint8_t> orig(8192), mod;
    for (auto &b : orig)
        b = static_cast<std::uint8_t>(rng.next32());
    mod = orig;
    // Mutate ~5% of the 8-byte words.
    for (std::size_t w = 0; w < mod.size() / 8; ++w) {
        if (rng.chance(0.05))
            mod[w * 8 + rng.below(8)] ^= 0x5a;
    }
    DeltaResult dr = deltaCreate(orig.data(), mod.data(), orig.size(),
                                 orig.size() * 2);
    ASSERT_TRUE(dr.fits);
    EXPECT_EQ(dr.record.size(),
              dr.mismatchedWords * deltaEntryBytes);

    std::vector<std::uint8_t> rebuilt = orig;
    ASSERT_TRUE(deltaApply(rebuilt.data(), rebuilt.size(),
                           dr.record.data(), dr.record.size()));
    EXPECT_EQ(rebuilt, mod);
}

TEST(Delta, IdenticalInputsProduceEmptyRecord)
{
    std::vector<std::uint8_t> buf(1024, 0xab);
    DeltaResult dr = deltaCreate(buf.data(), buf.data(), buf.size(),
                                 1024);
    EXPECT_TRUE(dr.fits);
    EXPECT_EQ(dr.mismatchedWords, 0u);
    EXPECT_TRUE(dr.record.empty());
}

TEST(Delta, RecordOverflowReported)
{
    std::vector<std::uint8_t> a(1024, 0x00), b(1024, 0xff);
    // All 128 words differ -> needs 1280 bytes; cap at 100.
    DeltaResult dr = deltaCreate(a.data(), b.data(), a.size(), 100);
    EXPECT_FALSE(dr.fits);
    EXPECT_EQ(dr.mismatchedWords, 128u);
    EXPECT_LE(dr.record.size(), 100u);
}

TEST(Delta, ApplyRejectsMalformedRecords)
{
    std::vector<std::uint8_t> buf(64, 0);
    std::vector<std::uint8_t> bad(7, 0); // not a multiple of 10
    EXPECT_FALSE(deltaApply(buf.data(), buf.size(), bad.data(),
                            bad.size()));
    // Offset beyond the buffer.
    std::vector<std::uint8_t> rec(deltaEntryBytes, 0);
    rec[0] = 0xff;
    rec[1] = 0xff;
    EXPECT_FALSE(deltaApply(buf.data(), buf.size(), rec.data(),
                            rec.size()));
}

TEST(Delta, LastWordPatchable)
{
    std::vector<std::uint8_t> a(64, 1), b(64, 1);
    b[56] = 99; // first byte of the last word
    DeltaResult dr = deltaCreate(a.data(), b.data(), 64, 1024);
    ASSERT_EQ(dr.mismatchedWords, 1u);
    std::vector<std::uint8_t> r = a;
    ASSERT_TRUE(deltaApply(r.data(), r.size(), dr.record.data(),
                           dr.record.size()));
    EXPECT_EQ(r, b);
}

class DifBlockSizes : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(DifBlockSizes, InsertCheckStripRoundTrip)
{
    const std::size_t block = GetParam();
    const std::size_t nblocks = 4;
    Rng rng(3);
    std::vector<std::uint8_t> data(block * nblocks);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next32());

    std::vector<std::uint8_t> prot((block + difTupleBytes) * nblocks);
    difInsert(data.data(), prot.data(), block, nblocks, 0x1234,
              0xdeadbeef);

    auto chk = difCheck(prot.data(), block, nblocks, 0x1234,
                        0xdeadbeef);
    EXPECT_TRUE(chk.ok);

    // Wrong tags must fail.
    EXPECT_FALSE(
        difCheck(prot.data(), block, nblocks, 0x1235, 0xdeadbeef).ok);
    EXPECT_FALSE(
        difCheck(prot.data(), block, nblocks, 0x1234, 0xdeadbef0).ok);

    // Corrupt one data byte: the guard catches it.
    prot[block / 2] ^= 1;
    auto bad = difCheck(prot.data(), block, nblocks, 0x1234,
                        0xdeadbeef);
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.failedBlock, 0u);
    prot[block / 2] ^= 1;

    std::vector<std::uint8_t> stripped(block * nblocks);
    difStrip(prot.data(), stripped.data(), block, nblocks);
    EXPECT_EQ(stripped, data);
}

INSTANTIATE_TEST_SUITE_P(AllBlockSizes, DifBlockSizes,
                         ::testing::Values(512, 520, 4096, 4104));

TEST(Dif, UpdateRewritesTags)
{
    const std::size_t block = 512, nblocks = 3;
    std::vector<std::uint8_t> data(block * nblocks, 0x42);
    std::vector<std::uint8_t> prot((block + 8) * nblocks);
    std::vector<std::uint8_t> updated(prot.size());
    difInsert(data.data(), prot.data(), block, nblocks, 1, 100);

    auto res = difUpdate(prot.data(), updated.data(), block, nblocks,
                         1, 100, 2, 200);
    ASSERT_TRUE(res.ok);
    EXPECT_TRUE(difCheck(updated.data(), block, nblocks, 2, 200).ok);
    EXPECT_FALSE(difCheck(updated.data(), block, nblocks, 1, 100).ok);
}

TEST(Dif, UpdateFailsOnBadSource)
{
    const std::size_t block = 512, nblocks = 2;
    std::vector<std::uint8_t> data(block * nblocks, 0x11);
    std::vector<std::uint8_t> prot((block + 8) * nblocks);
    std::vector<std::uint8_t> updated(prot.size());
    difInsert(data.data(), prot.data(), block, nblocks, 1, 0);
    prot[10] ^= 0xff; // corrupt block 0
    auto res = difUpdate(prot.data(), updated.data(), block, nblocks,
                         1, 0, 2, 0);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.failedBlock, 0u);
}

TEST(Dif, RefTagIncrementsPerBlock)
{
    const std::size_t block = 512, nblocks = 4;
    std::vector<std::uint8_t> data(block * nblocks, 0x00);
    std::vector<std::uint8_t> prot((block + 8) * nblocks);
    difInsert(data.data(), prot.data(), block, nblocks, 0, 1000);
    for (std::size_t b = 0; b < nblocks; ++b) {
        DifTuple t = difLoad(prot.data() + b * (block + 8) + block);
        EXPECT_EQ(t.refTag, 1000u + b);
    }
}

TEST(Dif, BlockSizeValidation)
{
    EXPECT_TRUE(difBlockSizeValid(512));
    EXPECT_TRUE(difBlockSizeValid(520));
    EXPECT_TRUE(difBlockSizeValid(4096));
    EXPECT_TRUE(difBlockSizeValid(4104));
    EXPECT_FALSE(difBlockSizeValid(1024));
    EXPECT_FALSE(difBlockSizeValid(0));
}

TEST(Dif, TupleStoreLoadRoundTrip)
{
    DifTuple t;
    t.guard = 0xbeef;
    t.appTag = 0x1234;
    t.refTag = 0xcafebabe;
    std::uint8_t buf[8];
    difStore(t, buf);
    DifTuple u = difLoad(buf);
    EXPECT_EQ(u.guard, t.guard);
    EXPECT_EQ(u.appTag, t.appTag);
    EXPECT_EQ(u.refTag, t.refTag);
}

} // namespace
} // namespace dsasim
