/**
 * @file
 * Golden tests for the zero-copy span data path: every span-based
 * access is checked against a byte-at-a-time reference that goes
 * through PageTable::lookup and MemSystem::physRead/physWrite — the
 * shape of the pre-span functional path — across page sizes,
 * guard-page boundaries, non-present pages and overlapping copies.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/address_space.hh"
#include "mem/mem_system.hh"
#include "mem/page_table.hh"
#include "ops/crc32.hh"
#include "ops/data_plane.hh"
#include "ops/dif.hh"
#include "ops/span_kernels.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace dsasim
{
namespace
{

MemSystemConfig
smallConfig()
{
    MemSystemConfig cfg;
    MemNodeConfig local;
    local.kind = MemKind::DramLocal;
    local.socket = 0;
    local.capacityBytes = 1ull << 30;
    MemNodeConfig remote = local;
    remote.socket = 1;
    cfg.nodes = {local, remote};
    cfg.llc.sizeBytes = 1 << 20;
    cfg.llc.ways = 8;
    cfg.llc.ddioWays = 2;
    return cfg;
}

struct SpanBench
{
    Simulation sim;
    MemSystem ms;
    AddressSpace &as;

    SpanBench() : ms(sim, smallConfig()), as(ms.createSpace()) {}
};

/** Byte-at-a-time read through the page table, as the old path did.
 * The present bit is ignored — functional access always was. */
void
refRead(const AddressSpace &as, const MemSystem &ms, Addr va,
        std::uint8_t *out, std::uint64_t len)
{
    for (std::uint64_t i = 0; i < len; ++i) {
        auto m = as.pageTable().lookup(va + i);
        ASSERT_TRUE(m.has_value());
        ms.physRead(m->paBase + (va + i - m->vaBase), out + i, 1);
    }
}

void
refWrite(AddressSpace &as, MemSystem &ms, Addr va,
         const std::uint8_t *in, std::uint64_t len)
{
    for (std::uint64_t i = 0; i < len; ++i) {
        auto m = as.pageTable().lookup(va + i);
        ASSERT_TRUE(m.has_value());
        ms.physWrite(m->paBase + (va + i - m->vaBase), in + i, 1);
    }
}

class SpanGolden : public ::testing::TestWithParam<PageSize>
{
};

TEST_P(SpanGolden, ReadMatchesByteAtATime)
{
    SpanBench b;
    const std::uint64_t page = pageBytes(GetParam());
    const std::uint64_t size = 4 * page;
    Addr va = b.as.alloc(size, MemKind::DramLocal, GetParam());

    std::vector<std::uint8_t> data(size);
    Rng rng(1);
    for (auto &x : data)
        x = static_cast<std::uint8_t>(rng.next32());
    b.as.write(va, data.data(), size);

    // Lengths straddling page boundaries, both aligned and not.
    const std::uint64_t lens[] = {0,        1,        63,
                                  page - 1, page,     page + 1,
                                  2 * page, size - 7, size};
    const std::uint64_t offs[] = {0, 1, page - 1, page, page + 3};
    for (std::uint64_t off : offs) {
        for (std::uint64_t len : lens) {
            if (off + len > size)
                continue;
            std::vector<std::uint8_t> got(len + 1, 0xAA);
            std::vector<std::uint8_t> want(len + 1, 0xAA);
            b.as.read(va + off, got.data(), len);
            refRead(b.as, b.ms, va + off, want.data(), len);
            EXPECT_EQ(got, want) << "off=" << off << " len=" << len;
        }
    }
}

TEST_P(SpanGolden, WriteMatchesByteAtATime)
{
    SpanBench b;
    const std::uint64_t page = pageBytes(GetParam());
    const std::uint64_t size = 4 * page;
    Addr a = b.as.alloc(size, MemKind::DramLocal, GetParam());
    Addr c = b.as.alloc(size, MemKind::DramLocal, GetParam());

    Rng rng(2);
    std::vector<std::uint8_t> data(2 * page + 5);
    for (auto &x : data)
        x = static_cast<std::uint8_t>(rng.next32());

    // Same payload via the span path (a) and the reference path (c);
    // both images must agree byte-for-byte.
    const std::uint64_t off = page - 3;
    b.as.write(a + off, data.data(), data.size());
    refWrite(b.as, b.ms, c + off, data.data(), data.size());

    std::vector<std::uint8_t> ia(size), ic(size);
    b.as.read(a, ia.data(), size);
    refRead(b.as, b.ms, c, ic.data(), size);
    EXPECT_EQ(ia, ic);
}

TEST_P(SpanGolden, FillMatchesByteAtATime)
{
    SpanBench b;
    const std::uint64_t page = pageBytes(GetParam());
    const std::uint64_t size = 3 * page;
    Addr a = b.as.alloc(size, MemKind::DramLocal, GetParam());
    b.as.fill(a + 5, 0x6b, 2 * page);
    std::vector<std::uint8_t> image(size);
    refRead(b.as, b.ms, a, image.data(), size);
    for (std::uint64_t i = 0; i < size; ++i) {
        const bool filled = i >= 5 && i < 5 + 2 * page;
        EXPECT_EQ(image[i], filled ? 0x6b : 0) << "i=" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, SpanGolden,
                         ::testing::Values(PageSize::Size4K,
                                           PageSize::Size2M));

TEST(Span, ResolveMergesContiguousPages)
{
    SpanBench b;
    const std::uint64_t size = 64 << 10; // 16 pages, one 2 MiB chunk
    Addr va = b.as.alloc(size);
    b.as.fill(va, 1, size);

    const AddressSpace::Span run = b.as.spanRun(va, size);
    EXPECT_EQ(run.len, size);

    // The span aliases the real backing: writes through it are
    // visible to read().
    run.ptr[12345] = 0x77;
    EXPECT_EQ(b.as.byteAt(va + 12345), 0x77);
}

TEST(Span, NeverWrittenResolvesNullAndStaysSparse)
{
    SpanBench b;
    const std::uint64_t size = 1 << 20;
    Addr va = b.as.alloc(size);

    const std::uint64_t resident0 = b.ms.node(0).store.residentBytes();
    std::vector<AddressSpace::ConstSpan> spans;
    const AddressSpace &cas = b.as;
    cas.forEachConstSpan(va, size, "read", [&](AddressSpace::ConstSpan s) {
        spans.push_back(s);
    });
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].ptr, nullptr);
    EXPECT_EQ(spans[0].len, size);

    std::vector<std::uint8_t> buf(size, 0xFF);
    cas.read(va, buf.data(), size);
    for (std::uint64_t i = 0; i < size; i += 4097)
        EXPECT_EQ(buf[i], 0);
    // Reading never materializes backing.
    EXPECT_EQ(b.ms.node(0).store.residentBytes(), resident0);
}

TEST(Span, GuardPageBoundary)
{
    SpanBench b;
    const std::uint64_t size = 16 << 10;
    Addr va = b.as.alloc(size);
    std::uint8_t byte = 0x5c;

    // The last byte of the region is fine...
    b.as.write(va + size - 1, &byte, 1);
    EXPECT_EQ(b.as.byteAt(va + size - 1), 0x5c);
    // ...crossing into the guard page panics, for reads and writes,
    // whether the range starts inside or beyond the region.
    std::uint8_t two[2];
    EXPECT_DEATH(b.as.read(va + size - 1, two, 2), "unmapped");
    EXPECT_DEATH(b.as.write(va + size - 1, two, 2), "unmapped");
    EXPECT_DEATH(b.as.read(va + size, two, 1), "unmapped");
    EXPECT_DEATH(b.as.spanRun(va + size - 4, 8), "unmapped");
}

TEST(Span, NonPresentPageStillFunctionallyAccessible)
{
    SpanBench b;
    const std::uint64_t size = 16 << 10;
    Addr va = b.as.alloc(size);
    b.as.fill(va, 0x21, size);

    // Device-visible translation faults on a non-present page...
    b.as.evictPage(va + 4096);
    EXPECT_DEATH(b.as.translate(va + 4096), "non-present");
    // ...but functional host access ignores the present bit, exactly
    // like the pre-span byte path did.
    EXPECT_EQ(b.as.byteAt(va + 5000), 0x21);
    std::uint8_t byte = 0x22;
    b.as.write(va + 5000, &byte, 1);
    EXPECT_EQ(b.as.byteAt(va + 5000), 0x22);

    // Restoring takes effect at once: the very next lookup must see
    // it without any explicit invalidation.
    b.as.restorePage(va + 4096);
    EXPECT_EQ(b.as.translate(va + 4096),
              b.as.translate(va) + 4096);
}

TEST(Span, PresentBitFlipSeenThroughFindCache)
{
    // Regression for the fault-injection path: a present-bit flip is
    // seen by the very next lookup, memo hit or not.
    PageTable pt;
    pt.map(0x1000, 0x10000, 0x1000);
    pt.map(0x2000, 0x20000, 0x1000);
    ASSERT_TRUE(pt.lookup(0x1000).has_value());
    EXPECT_TRUE(pt.lookup(0x1000)->present);
    pt.setPresent(0x1000, false);
    EXPECT_FALSE(pt.lookup(0x1000)->present);
    pt.setPresent(0x1000, true);
    EXPECT_TRUE(pt.lookup(0x1000)->present);
    // Alternating lookups (the copy src/dst pattern) keep resolving
    // correctly through the two-entry memo.
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(pt.lookup(0x1000)->paBase, 0x10000u);
        EXPECT_EQ(pt.lookup(0x2000)->paBase, 0x20000u);
    }
    EXPECT_FALSE(pt.lookup(0x0fff).has_value());
    EXPECT_FALSE(pt.lookup(0x3000).has_value());
}

class SpanOverlap
    : public ::testing::TestWithParam<std::tuple<std::int64_t,
                                                 std::uint64_t>>
{
};

TEST_P(SpanOverlap, CopyMatchesStdMemmove)
{
    const std::int64_t shift = std::get<0>(GetParam());
    const std::uint64_t n = std::get<1>(GetParam());
    SpanBench b;
    const std::uint64_t region = 2 * n + (1 << 20);
    Addr base = b.as.alloc(region);
    Addr src = base + (1 << 19);
    Addr dst =
        static_cast<Addr>(static_cast<std::int64_t>(src) + shift);

    std::vector<std::uint8_t> image(region);
    Rng rng(static_cast<std::uint64_t>(shift) ^ n);
    for (auto &x : image)
        x = static_cast<std::uint8_t>(rng.next32());
    b.as.write(base, image.data(), region);

    b.as.copy(dst, src, n);
    std::memmove(image.data() + (dst - base),
                 image.data() + (src - base), n);

    std::vector<std::uint8_t> got(region);
    b.as.read(base, got.data(), region);
    EXPECT_EQ(got, image);
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, SpanOverlap,
    ::testing::Values(
        // Forward and backward, within a page (single-span fast
        // path), page-crossing, and bigger than the 256 KiB staging
        // chunk (directional chunked path).
        std::make_tuple(std::int64_t{13}, std::uint64_t{100}),
        std::make_tuple(std::int64_t{-13}, std::uint64_t{100}),
        std::make_tuple(std::int64_t{100}, std::uint64_t{9000}),
        std::make_tuple(std::int64_t{-100}, std::uint64_t{9000}),
        std::make_tuple(std::int64_t{4096}, std::uint64_t{300000}),
        std::make_tuple(std::int64_t{-4096}, std::uint64_t{300000}),
        std::make_tuple(std::int64_t{777}, std::uint64_t{700000}),
        std::make_tuple(std::int64_t{-777}, std::uint64_t{700000}),
        std::make_tuple(std::int64_t{0}, std::uint64_t{5000})));

TEST(Span, ContiguousWithinAndAcrossChunks)
{
    SpanBench b;
    Addr va = b.as.alloc(8 << 20); // crosses 2 MiB chunk boundaries
    b.as.fill(va, 3, 8 << 20);
    // Within one chunk: a single host run.
    EXPECT_NE(b.as.contiguous(va, 1 << 20), nullptr);
    EXPECT_EQ(b.as.contiguous(va, 0), nullptr);
    const AddressSpace &cas = b.as;
    const std::uint8_t *p = cas.contiguousConst(va + 7, 4096);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p[0], 3);
    // Total coverage across chunks is still exact.
    std::uint64_t total = 0;
    b.as.forEachSpan(va, 8 << 20, "write", [&](AddressSpace::Span s) {
        EXPECT_NE(s.ptr, nullptr);
        total += s.len;
    });
    EXPECT_EQ(total, 8ull << 20);
}

/**
 * Never-written ranges take the closed-form CRC (crc32cShift) instead
 * of hashing zeroes; it must equal the bitwise CRC of a zero buffer
 * for any seed and length, and mix exactly with written spans.
 */
TEST(Span, SparseCrcEqualsZeroBufferCrc)
{
    SpanBench b;
    const std::uint64_t maxLen = 4 << 20;
    const Addr src = b.as.alloc(maxLen);
    const Addr dst = b.as.alloc(maxLen);
    const std::vector<std::uint8_t> zeros(maxLen, 0);
    Rng rng(31);
    const std::uint64_t lens[] = {0,     1,     4095, 65536,
                                  65537, (1 << 21) + 3, maxLen};
    for (std::uint64_t len : lens) {
        const std::uint32_t seed = rng.next32();
        const std::uint32_t want =
            crc32cBitwise(zeros.data(), len, seed);
        EXPECT_EQ(spanCrc(b.as, src, len, seed), want) << "len=" << len;
        EXPECT_EQ(spanCopyCrc(b.as, dst, src, len, seed), want)
            << "len=" << len;
    }
    std::vector<std::uint8_t> back(maxLen, 0xff);
    b.as.read(dst, back.data(), maxLen);
    EXPECT_EQ(back, zeros);

    // A written island inside the sparse range.
    std::vector<std::uint8_t> img(maxLen, 0);
    for (std::uint64_t i = 0; i < 300; ++i)
        img[(1 << 20) + 7 + i] = static_cast<std::uint8_t>(rng.next32());
    b.as.write(src + (1 << 20) + 7, img.data() + (1 << 20) + 7, 300);
    EXPECT_EQ(spanCrc(b.as, src, maxLen, crc32cInit),
              crc32cBitwise(img.data(), maxLen, crc32cInit));
}

/** Fill @p v with bytes from @p rng. */
void
randomize(std::vector<std::uint8_t> &v, Rng &rng)
{
    for (auto &x : v)
        x = static_cast<std::uint8_t>(rng.next32());
}

/**
 * The smallest offset from @p base, at least @p from, at which a
 * 2 MiB backing chunk begins: a range across it changes host chunk.
 */
std::uint64_t
chunkStartAfter(const AddressSpace &as, Addr base, std::uint64_t from)
{
    std::uint64_t off = from;
    while ((as.translate(base + off) & PhysicalMemory::chunkMask) != 0)
        off += 4096;
    return off;
}

/**
 * Copies and writes just below, at and above the streaming-store
 * threshold, at every destination alignment to 16 bytes, across a
 * page and a 2 MiB chunk boundary, from never-written sources and
 * onto themselves: each must match a memmove on a plain buffer.
 */
TEST(Span, StreamingCopyAndWriteMatchMemmove)
{
    SpanBench b;
    constexpr std::uint64_t T = AddressSpace::streamingStoreBytes;
    const std::uint64_t region = 6 << 20;
    const Addr src = b.as.alloc(region);
    const Addr dst = b.as.alloc(region);
    const Addr sparse = b.as.alloc(region);
    std::vector<std::uint8_t> srcImg(region), dstImg(region);
    Rng rng(41);
    randomize(srcImg, rng);
    randomize(dstImg, rng);
    b.as.write(src, srcImg.data(), region);
    b.as.write(dst, dstImg.data(), region);
    const std::uint64_t boundary = chunkStartAfter(b.as, dst, 1 << 20);

    const auto expectWindow = [&](std::uint64_t doff, std::uint64_t len,
                                  const char *what) {
        std::vector<std::uint8_t> got(len + 128);
        b.as.read(dst + doff - 64, got.data(), got.size());
        ASSERT_EQ(0, std::memcmp(got.data(), dstImg.data() + doff - 64,
                                 got.size()))
            << what << " len=" << len << " doff=" << doff;
    };

    for (std::uint64_t len : {T - 1, T, T + 4095}) {
        for (std::uint64_t mis = 0; mis < 16; ++mis) {
            const std::uint64_t doff = boundary - len / 2 / 16 * 16 + mis;
            const std::uint64_t soff = 3 * 4096 + 7 + 3 * mis;
            ASSERT_EQ(reinterpret_cast<std::uintptr_t>(
                          b.as.contiguous(dst + doff, 1)) % 16,
                      mis);

            b.as.copy(dst + doff, src + soff, len);
            std::memmove(dstImg.data() + doff, srcImg.data() + soff,
                         len);
            expectWindow(doff, len, "copy");

            b.as.write(dst + doff + 4096, srcImg.data() + soff + 1, len);
            std::memcpy(dstImg.data() + doff + 4096,
                        srcImg.data() + soff + 1, len);
            expectWindow(doff + 4096, len, "write");

            b.as.copy(dst + doff, sparse + soff, len);
            std::memset(dstImg.data() + doff, 0, len);
            expectWindow(doff, len, "never-written copy");

            b.as.copy(dst + doff + 8192, dst + doff + 8192, len);
            expectWindow(doff + 8192, len, "dst == src copy");
        }
    }
    std::vector<std::uint8_t> all(region);
    b.as.read(dst, all.data(), region);
    EXPECT_EQ(all, dstImg);

    // Overlapping moves inside one 2 MiB page take the single-mapping
    // path and must stay memmoves in both directions.
    const Addr huge = b.as.alloc(2 << 20, MemKind::DramLocal,
                                 PageSize::Size2M);
    std::vector<std::uint8_t> hugeImg(2 << 20);
    randomize(hugeImg, rng);
    b.as.write(huge, hugeImg.data(), hugeImg.size());
    for (std::int64_t shift : {-100, 100}) {
        const std::uint64_t from = 1 << 19;
        const std::uint64_t to = from + shift;
        b.as.copy(huge + to, huge + from, T + 4095);
        std::memmove(hugeImg.data() + to, hugeImg.data() + from,
                     T + 4095);
    }
    b.as.read(huge, all.data(), hugeImg.size());
    EXPECT_EQ(0, std::memcmp(all.data(), hugeImg.data(), hugeImg.size()));
}

/**
 * Pattern fills (spanFillPattern, a Fill descriptor's data plane) and
 * AddressSpace::fill just below, at and above the streaming-store
 * threshold: at every destination alignment to 16 bytes, so each
 * phase of an 8- or 16-byte pattern meets the aligned stores, across
 * 4 KiB pages and a 2 MiB chunk boundary, and across a 2 MiB page.
 * Each must match a plain byte loop.
 */
TEST(Span, StreamingFillsMatchPlainLoop)
{
    SpanBench b;
    constexpr std::uint64_t T = AddressSpace::streamingStoreBytes;
    const std::uint64_t region = 6 << 20;
    const Addr dst = b.as.alloc(region);
    const Addr huge =
        b.as.alloc(4 << 20, MemKind::DramLocal, PageSize::Size2M);
    std::vector<std::uint8_t> img(region), hugeImg(4 << 20);
    Rng rng(43);
    randomize(img, rng);
    randomize(hugeImg, rng);
    b.as.write(dst, img.data(), img.size());
    b.as.write(huge, hugeImg.data(), hugeImg.size());
    const std::uint64_t lo = rng.next64();
    const std::uint64_t hi = rng.next64();
    std::uint8_t pat[16];
    std::memcpy(pat, &lo, 8);
    std::memcpy(pat + 8, &hi, 8);
    const std::uint64_t boundary = chunkStartAfter(b.as, dst, 1 << 20);

    const auto plainFill = [&pat](std::vector<std::uint8_t> &im,
                                  std::uint64_t off, std::uint64_t len,
                                  unsigned pat_bytes) {
        for (std::uint64_t i = 0; i < len; ++i)
            im[off + i] = pat[i % pat_bytes];
    };
    const auto expectWindow = [&b](Addr base,
                                   const std::vector<std::uint8_t> &im,
                                   std::uint64_t off, std::uint64_t len,
                                   const char *what) {
        std::vector<std::uint8_t> got(len + 128);
        b.as.read(base + off - 64, got.data(), got.size());
        ASSERT_EQ(0, std::memcmp(got.data(), im.data() + off - 64,
                                 got.size()))
            << what << " len=" << len << " off=" << off;
    };

    for (std::uint64_t len : {T - 1, T, T + 4095}) {
        for (std::uint64_t mis = 0; mis < 16; ++mis) {
            const std::uint64_t doff = boundary - len / 2 / 16 * 16 + mis;
            const std::uint64_t hoff = (2 << 20) - len / 2 / 16 * 16 + mis;
            ASSERT_EQ(reinterpret_cast<std::uintptr_t>(
                          b.as.contiguous(dst + doff, 1)) % 16,
                      mis);
            ASSERT_EQ(reinterpret_cast<std::uintptr_t>(
                          b.as.contiguous(huge + hoff, 1)) % 16,
                      mis);
            for (unsigned pat_bytes : {8u, 16u}) {
                spanFillPattern(b.as, dst + doff, len, lo, hi, pat_bytes);
                plainFill(img, doff, len, pat_bytes);
                expectWindow(dst, img, doff, len, "pattern fill");

                spanFillPattern(b.as, huge + hoff, len, lo, hi,
                                pat_bytes);
                plainFill(hugeImg, hoff, len, pat_bytes);
                expectWindow(huge, hugeImg, hoff, len,
                             "pattern fill, 2 MiB page");
            }
            const auto value = static_cast<std::uint8_t>(17 * mis + 1);
            b.as.fill(dst + doff + 4096, value, len);
            std::memset(img.data() + doff + 4096, value, len);
            expectWindow(dst, img, doff + 4096, len, "fill");
        }
    }
    std::vector<std::uint8_t> all(region);
    b.as.read(dst, all.data(), region);
    EXPECT_EQ(all, img);
    all.resize(hugeImg.size());
    b.as.read(huge, all.data(), hugeImg.size());
    EXPECT_EQ(all, hugeImg);
}

/**
 * spanCompare and spanComparePattern walk each range one host run at
 * a time: runs that end at different offsets on the two sides (2 MiB
 * chunk boundaries) and never-written pages must still give the
 * offset of the first differing byte.
 */
TEST(Span, CompareWalksRunsOfBothRanges)
{
    SpanBench b;
    constexpr std::uint64_t chunk = PhysicalMemory::chunkSize;
    const std::uint64_t region = 8 << 20, len = 5 << 20;
    const Addr ra = b.as.alloc(region);
    const Addr rc = b.as.alloc(region);
    // Host runs end at offsets 5000 + k·2 MiB in a and 70000 + k·2 MiB
    // in c. The third chunk of each stays never written (a nullptr
    // run); the data is zero there on both sides.
    const Addr a = ra + chunkStartAfter(b.as, ra, 1 << 20) - 5000;
    const Addr c = rc + chunkStartAfter(b.as, rc, 1 << 20) - 70000;
    const std::uint64_t holeA = 5000 + chunk, holeC = 70000 + chunk;
    std::vector<std::uint8_t> data(len);
    Rng rng(47);
    randomize(data, rng);
    std::fill_n(data.begin() + holeA, holeC + chunk - holeA, 0);
    const auto writeAround = [&](Addr base, std::uint64_t hole) {
        b.as.write(base, data.data(), hole);
        b.as.write(base + hole + chunk, data.data() + hole + chunk,
                   len - hole - chunk);
    };
    writeAround(a, holeA);
    writeAround(c, holeC);
    const AddressSpace &cas = b.as;
    ASSERT_EQ(cas.constSpanRun(a + holeA, 1).ptr, nullptr);
    ASSERT_EQ(cas.constSpanRun(c + holeC, 1).ptr, nullptr);
    EXPECT_EQ(spanCompare(b.as, a, c, len), len);

    const auto in = [&](std::uint64_t pos, std::uint64_t hole) {
        return pos >= hole && pos < hole + chunk;
    };
    // Flip a written byte: in a's hole on c's side, in c's hole on
    // a's side; the byte in both holes goes last.
    for (std::uint64_t pos :
         {std::uint64_t{100}, std::uint64_t{4999}, std::uint64_t{5000},
          std::uint64_t{69999}, std::uint64_t{70000}, holeA - 1,
          holeA + 10, holeA + chunk + 3, len - 1, holeC + 100}) {
        const bool onC = in(pos, holeA) || (!in(pos, holeC) && pos % 2);
        const Addr at = (onC ? c : a) + pos;
        const std::uint8_t flip = data[pos] ^ 0x10;
        b.as.write(at, &flip, 1);
        EXPECT_EQ(spanCompare(b.as, a, c, len), pos) << "pos=" << pos;
        b.as.write(at, &data[pos], 1);
    }

    // A pattern across a chunk boundary, and a never-written chunk
    // after one written page, which mismatches a non-zero pattern at
    // its first byte.
    const std::uint64_t pattern = 0x0123456789abcdefull;
    const std::uint64_t plen = 8 * 4096;
    std::vector<std::uint8_t> pat(plen);
    for (std::uint64_t i = 0; i < plen; ++i)
        pat[i] = static_cast<std::uint8_t>(pattern >> (8 * (i % 8)));
    const Addr p = a + 5000 - 3 * 4096 - 3;
    b.as.write(p, pat.data(), plen);
    EXPECT_EQ(spanComparePattern(b.as, p, plen, pattern), plen);
    const std::uint8_t zero = 0;
    b.as.write(p + 3 * 4096 + 3 + 77, &zero, 1);
    EXPECT_EQ(spanComparePattern(b.as, p, plen, pattern),
              3 * 4096 + 3 + 77);
    const Addr rq = b.as.alloc(region);
    const Addr q = rq + chunkStartAfter(b.as, rq, 1 << 20) - 4096;
    b.as.write(q, pat.data(), 4096);
    EXPECT_EQ(spanComparePattern(b.as, q, 3 * 4096, pattern), 4096u);
    EXPECT_EQ(spanComparePattern(b.as, q + 4096, 4096, 0), 4096u);
}

/**
 * The DIF loop one block at a time on plain buffers, as the data
 * plane ran every block before it resolved whole runs.
 */
OpOutcome
difPerBlock(const OpArgs &a, const std::vector<std::uint8_t> &src,
            std::vector<std::uint8_t> &dst)
{
    const std::uint64_t blk = a.difBlockBytes;
    const DifUnits u = difUnits(a);
    OpOutcome out;
    out.status = OpStatus::Success;
    out.bytesCompleted = a.size;
    for (std::uint64_t b = 0; b < a.size / blk; ++b) {
        const std::uint8_t *in = src.data() + b * u.in;
        std::uint8_t *o = dst.data() + b * u.out;
        const auto tag = static_cast<std::uint32_t>(b);
        DifCheckResult r;
        switch (a.op) {
          case Opcode::DifInsert:
            difInsert(in, o, blk, 1, a.appTag, a.refTag + tag);
            break;
          case Opcode::DifStrip:
            difStrip(in, o, blk, 1);
            break;
          case Opcode::DifCheck:
            r = difCheck(in, blk, 1, a.appTag, a.refTag + tag);
            break;
          default:
            r = difUpdate(in, o, blk, 1, a.appTag, a.refTag + tag,
                          a.newAppTag, a.newRefTag + tag);
            break;
        }
        if (!r.ok) {
            out.result = 1;
            out.bytesCompleted = b * blk;
            break;
        }
    }
    return out;
}

struct DifLayout
{
    const char *name;
    PageSize page;
    bool sparseSrc;   ///< source never written
    bool badGuard;    ///< corrupt one guard mid-run
};

/**
 * runOp resolves each host-contiguous run of DIF blocks once; every
 * opcode must still write the bytes and report the result and
 * bytesCompleted of the per-block loop, across 2 MiB chunk
 * boundaries, from never-written sources and with a guard failure in
 * the middle of a run (an update then writes only the blocks before
 * it).
 */
TEST(Span, DifRunsMatchPerBlock)
{
    const DifLayout layouts[] = {
        {"4k", PageSize::Size4K, false, false},
        {"4k-bad-guard", PageSize::Size4K, false, true},
        {"2m-bad-guard", PageSize::Size2M, false, true},
        {"4k-never-written", PageSize::Size4K, true, false},
    };
    Rng rng(43);
    for (const DifLayout &l : layouts) {
        for (Opcode op : {Opcode::DifInsert, Opcode::DifStrip,
                          Opcode::DifCheck, Opcode::DifUpdate}) {
            for (std::uint32_t blk : {512u, 520u, 4096u}) {
                SpanBench b;
                OpArgs a;
                a.op = op;
                a.difBlockBytes = blk;
                a.appTag = 0x1357;
                a.refTag = 0xfffffff0u; // wraps mid-range
                a.newAppTag = 0x2468;
                a.newRefTag = 99;
                const std::uint64_t nblocks = (5 << 20) / 2 / blk;
                a.size = nblocks * blk;
                const DifUnits u = difUnits(a);
                const std::uint64_t region = 8 << 20;
                const Addr sbase = b.as.alloc(region, MemKind::DramLocal,
                                              l.page);
                const Addr dbase = b.as.alloc(region, MemKind::DramLocal,
                                              l.page);
                // Start a little before a chunk boundary, off any
                // block or page alignment.
                a.src = sbase + chunkStartAfter(b.as, sbase, 1 << 20) -
                        3 * blk - 40;
                a.dst = dbase + chunkStartAfter(b.as, dbase, 1 << 20) -
                        5 * blk - 24;

                std::vector<std::uint8_t> src(nblocks * u.in);
                if (l.sparseSrc) {
                    std::fill(src.begin(), src.end(), 0);
                } else if (op == Opcode::DifInsert) {
                    randomize(src, rng);
                } else {
                    std::vector<std::uint8_t> plain(nblocks * blk);
                    randomize(plain, rng);
                    difInsert(plain.data(), src.data(), blk, nblocks,
                              a.appTag, a.refTag);
                }
                if (l.badGuard)
                    src[(nblocks / 2 + 3) * u.in + blk] ^= 0x40;
                if (!l.sparseSrc)
                    b.as.write(a.src, src.data(), src.size());

                std::vector<std::uint8_t> want(nblocks * u.out);
                randomize(want, rng);
                b.as.write(a.dst, want.data(), want.size());
                const OpOutcome ref = difPerBlock(a, src, want);

                OpScratch scratch;
                const OpOutcome got =
                    runOp(b.as, a, a.size, false, scratch);
                SCOPED_TRACE(::testing::Message()
                             << l.name << " op=" << static_cast<int>(op)
                             << " blk=" << blk);
                EXPECT_EQ(got.status, ref.status);
                EXPECT_EQ(got.result, ref.result);
                EXPECT_EQ(got.bytesCompleted, ref.bytesCompleted);
                if (l.badGuard && (op == Opcode::DifCheck ||
                                   op == Opcode::DifUpdate)) {
                    EXPECT_EQ(ref.bytesCompleted, (nblocks / 2 + 3) * blk);
                }
                std::vector<std::uint8_t> back(want.size());
                b.as.read(a.dst, back.data(), back.size());
                EXPECT_TRUE(back == want);
            }
        }
    }
}

} // namespace
} // namespace dsasim
