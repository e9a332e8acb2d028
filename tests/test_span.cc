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

    std::vector<AddressSpace::Span> spans;
    b.as.resolveSpans(va, size, spans);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].len, size);

    // The span aliases the real backing: writes through it are
    // visible to read().
    spans[0].ptr[12345] = 0x77;
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
    cas.resolveConstSpans(va, size, spans);
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
    std::vector<AddressSpace::Span> spans;
    EXPECT_DEATH(b.as.resolveSpans(va + size - 4, 8, spans),
                 "unmapped");
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
    std::vector<AddressSpace::Span> spans;
    b.as.resolveSpans(va, 8 << 20, spans);
    std::uint64_t total = 0;
    for (const auto &s : spans) {
        ASSERT_NE(s.ptr, nullptr);
        total += s.len;
    }
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

} // namespace
} // namespace dsasim
