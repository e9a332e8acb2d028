/**
 * @file
 * Differential tests for the span-granular cache accounting
 * (DESIGN.md §13): CacheModel must be state-identical — per-line
 * directory contents, per-set LRU ranks, occupancy gauges, traffic
 * tallies and returned aggregates — to ReferenceCache
 * (tests/reference_cache.hh), a naive model that shares nothing with
 * it but Config and State. Fuzzed at four small geometries (one of
 * them 16 ways, the most a set header orders) and at the platform's
 * own SPR directory, CPU spans included. Also covers the closed-form
 * per-set span geometry (set wrap, start-offset corrections), the
 * victim reclaim gauges after invalidateAll, fingerprint collisions,
 * the way-packing guards, the SPR directory across the point where
 * every set is live (its host arrays collapse onto 2 MiB pages), a
 * moved CacheModel, and the host mapping helper the arrays come
 * from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/cache.hh"
#include "mem/host_map.hh"
#include "sim/random.hh"
#include "tests/reference_cache.hh"

namespace dsasim
{
namespace
{

CacheModel::Config
smallCfg(unsigned sets, unsigned ways, unsigned ddio)
{
    CacheModel::Config cfg;
    cfg.sizeBytes =
        static_cast<std::uint64_t>(sets) * ways * cacheLineSize;
    cfg.ways = ways;
    cfg.ddioWays = ddio;
    return cfg;
}

/** Closed-form lines-per-set for a span of @p n lines from set s0. */
std::uint64_t
spanLinesInSet(std::uint64_t s, std::uint64_t s0, std::uint64_t n,
               std::uint64_t sets)
{
    std::uint64_t d = (s + sets - s0) % sets;
    return n / sets + (d < n % sets ? 1 : 0);
}

/** Valid-line count per set, recovered from the sparse state. */
std::vector<std::uint64_t>
residentPerSet(const CacheModel &c)
{
    std::vector<std::uint64_t> per(c.numSets(), 0);
    for (const auto &[idx, line] : c.saveState().validLines)
        ++per[idx / c.numWays()];
    return per;
}

/** @p b is another CacheModel or the ReferenceCache. */
template <class Model>
void
expectSameState(const CacheModel &a, const Model &b)
{
    CacheModel::State sa = a.saveState();
    CacheModel::State sb = b.saveState();
    EXPECT_EQ(sa.hitBytes, sb.hitBytes);
    EXPECT_EQ(sa.missBytes, sb.missBytes);
    EXPECT_EQ(sa.writebackBytes, sb.writebackBytes);
    ASSERT_EQ(sa.validLines.size(), sb.validLines.size());
    for (std::size_t i = 0; i < sa.validLines.size(); ++i) {
        const auto &[ia, la] = sa.validLines[i];
        const auto &[ib, lb] = sb.validLines[i];
        ASSERT_EQ(ia, ib) << "way index diverged at entry " << i;
        EXPECT_EQ(la.tag, lb.tag);
        EXPECT_EQ(la.rank, lb.rank);
        EXPECT_EQ(la.owner, lb.owner);
        EXPECT_EQ(la.dirty, lb.dirty);
    }
    EXPECT_EQ(a.totalOccupancyBytes(), b.totalOccupancyBytes());
    // Core ids and the device owners (1000 + device id).
    for (int owner = 0; owner < 1100; ++owner)
        EXPECT_EQ(a.occupancyBytes(owner), b.occupancyBytes(owner))
            << "owner " << owner;
}

/** Owners the fuzz draws: cores 0-3 and devices 1000-1001. */
int
drawOwner(Rng &rng)
{
    int v = static_cast<int>(rng.range(0, 6));
    return v < 4 ? v : 1000 + (v - 4);
}

// Span geometry: a contiguous span touches each set floor(n/sets) or
// ceil(n/sets) times, offset from the starting set. ways are sized so
// every touched line installs, making per-set occupancy the count.
TEST(CacheAcct, SpanSetDistributionGolden)
{
    const unsigned sets = 96, ways = 8;
    struct Case
    {
        std::uint64_t start_line;
        std::uint64_t n;
    } cases[] = {
        {0, 1},          // single line
        {5, 40},         // interior, no wrap
        {94, 5},         // wraps past the last set
        {17, 96},        // exactly one full revolution
        {90, 2 * 96 + 7} // multiple revolutions + remainder
    };
    for (const Case &tc : cases) {
        CacheModel c(smallCfg(sets, ways, 0));
        Addr pa = tc.start_line * cacheLineSize;
        CacheModel::SpanResult r =
            c.fillSpan(pa, tc.n * cacheLineSize, 1);
        EXPECT_EQ(r.missBytes, tc.n * cacheLineSize);
        EXPECT_EQ(r.hitBytes, 0u);
        auto per = residentPerSet(c);
        std::uint64_t s0 = tc.start_line % sets;
        for (std::uint64_t s = 0; s < sets; ++s) {
            // Same tag never installs twice, so residency counts
            // distinct lines: exactly the closed-form touch count
            // (n <= ways * sets in every case here).
            EXPECT_EQ(per[s], spanLinesInSet(s, s0, tc.n, sets))
                << "set " << s << " start " << tc.start_line
                << " n " << tc.n;
        }
    }
}

// Unaligned spans cover [lineAlignDown(pa), lineAlignUp(pa+size)):
// partial head/tail lines count exactly once.
TEST(CacheAcct, StartOffsetCorrection)
{
    CacheModel c(smallCfg(64, 4, 2));
    // Bytes [100, 130) straddle lines 1 and 2.
    CacheModel::SpanResult r = c.probeSpan(100, 30);
    EXPECT_EQ(r.missBytes, 2 * cacheLineSize);
    EXPECT_EQ(r.hitBytes, 0u);
    // One byte, mid-line: exactly one line.
    r = c.fillSpan(999, 1, 0);
    EXPECT_EQ(r.missBytes, 1 * cacheLineSize);
    EXPECT_TRUE(c.probe(lineAlignDown(999)));
    // Aligned end: no phantom tail line.
    r = c.probeSpan(0, 2 * cacheLineSize);
    EXPECT_EQ(r.hitBytes + r.missBytes, 2 * cacheLineSize);
}

TEST(CacheAcct, FlushSpanReportsDirtyWritebacks)
{
    CacheModel c(smallCfg(64, 4, 2));
    c.fillSpan(0, 10 * cacheLineSize, 1); // dirty DDIO fills
    CacheModel::SpanResult r = c.flushSpan(0, 10 * cacheLineSize);
    EXPECT_EQ(r.writebackBytes, 10 * cacheLineSize);
    EXPECT_EQ(c.totalOccupancyBytes(), 0u);
    // Second flush: nothing present, nothing owed.
    r = c.flushSpan(0, 10 * cacheLineSize);
    EXPECT_EQ(r.writebackBytes, 0u);
}

TEST(CacheAcct, EvictSpanDropsDirtyLinesSilently)
{
    CacheModel c(smallCfg(64, 4, 2));
    c.fillSpan(0, 6 * cacheLineSize, 1);
    CacheModel::SpanResult r = c.evictSpan(0, 6 * cacheLineSize);
    // The device write updates memory itself: dropped dirty copies
    // owe no writeback.
    EXPECT_EQ(r.writebackBytes, 0u);
    EXPECT_EQ(c.totalOccupancyBytes(), 0u);
    EXPECT_EQ(c.writebackBytesTotal(), 0u);
}

// After invalidateAll every way is free, whatever it held before:
// installing there is not an eviction, and the occupancy gauges stay
// exact.
TEST(CacheAcct, StaleEpochVictimReclaimKeepsGaugesExact)
{
    CacheModel c(smallCfg(8, 4, 2));
    // Fill every way of every set with dirty CPU lines.
    for (unsigned s = 0; s < 8; ++s)
        for (unsigned w = 0; w < 4; ++w)
            c.cpuAccess((s + w * 8ull) * cacheLineSize, 7, true);
    ASSERT_EQ(c.totalOccupancyBytes(),
              8 * 4 * std::uint64_t{cacheLineSize});
    c.invalidateAll();
    ASSERT_EQ(c.totalOccupancyBytes(), 0u);
    ASSERT_EQ(c.occupancyBytes(7), 0u);
    // Every install now lands in a way that held a line before
    // invalidateAll.
    for (unsigned s = 0; s < 8; ++s) {
        auto res = c.fillSpan(s * cacheLineSize, cacheLineSize, 3);
        EXPECT_EQ(res.missBytes, cacheLineSize);
        // The stale victim is free space, not an eviction.
        EXPECT_EQ(res.writebackBytes, 0u);
    }
    EXPECT_EQ(c.totalOccupancyBytes(), 8 * std::uint64_t{cacheLineSize});
    EXPECT_EQ(c.occupancyBytes(3), 8 * std::uint64_t{cacheLineSize});
    EXPECT_EQ(c.occupancyBytes(7), 0u);
    // CPU path reuses those ways too; then real LRU evictions at
    // full occupancy keep the gauges balanced.
    for (unsigned s = 0; s < 8; ++s)
        for (unsigned w = 0; w < 6; ++w)
            c.cpuAccess((s + (w + 1) * 8ull) * cacheLineSize, 5, true);
    EXPECT_EQ(c.totalOccupancyBytes(),
              8 * 4 * std::uint64_t{cacheLineSize});
    EXPECT_EQ(c.occupancyBytes(5) + c.occupancyBytes(3),
              c.totalOccupancyBytes());
    // Stale lines never appear in the state view: it holds exactly
    // the counted lines, each present in its own set.
    CacheModel::State st = c.saveState();
    EXPECT_EQ(st.validLines.size() * cacheLineSize,
              c.totalOccupancyBytes());
    for (const auto &[idx, line] : st.validLines) {
        EXPECT_EQ(idx / c.numWays(), line.tag % c.numSets());
        EXPECT_TRUE(c.probe(line.tag * cacheLineSize));
    }
}

// Victims are the least recently used way, whoever owns it: the owner
// bits packed into a way never reorder the LRU order.
TEST(CacheAcct, LruVictimIgnoresOwnerBits)
{
    CacheModel c(smallCfg(1, 4, 0));
    const Addr a = 0, b = 64, cc = 128, d = 192;
    c.cpuAccess(a, 0xffff);
    c.cpuAccess(b, 0);
    c.cpuAccess(cc, 0);
    c.cpuAccess(d, 7);
    EXPECT_TRUE(c.cpuAccess(a, 3).hit); // CPU touch, new owner
    // Device touch, owner kept.
    EXPECT_EQ(c.probeSpan(b, cacheLineSize).hitBytes, cacheLineSize);
    auto r = c.cpuAccess(256, 0, true);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(c.probe(cc));
    r = c.cpuAccess(320, 0xffff);
    EXPECT_EQ(c.occupancyBytes(7), 0u); // d, owner 7's only line
    EXPECT_FALSE(c.probe(d));
    EXPECT_TRUE(c.probe(a));
    EXPECT_TRUE(c.probe(b));
    // The dirty line installed above is now the LRU after a, b.
    c.cpuAccess(a, 1);
    c.cpuAccess(b, 1);
    r = c.cpuAccess(384, 1);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.evictedPa, 256u);
}

// The two packing limits of an 8-byte way: tags live in 47 bits,
// owners in the 16 above them.
TEST(CacheAcctDeathTest, OwnerOutsideWayFieldIsFatal)
{
    CacheModel c(smallCfg(8, 4, 2));
    c.cpuAccess(0, 0xffff); // the largest owner that packs
    EXPECT_DEATH(c.cpuAccess(cacheLineSize, 0x10000), "owner");
    EXPECT_DEATH(c.cpuAccess(cacheLineSize, -1), "owner");
    EXPECT_DEATH(c.fillSpan(cacheLineSize, cacheLineSize, 0x10000),
                 "owner");
    // A hit retags the line to its new owner: same guard.
    EXPECT_DEATH(c.cpuAccess(0, 0x10000), "owner");
}

// A set header orders at most 16 ways (one nibble each).
TEST(CacheAcctDeathTest, WaysBeyondSetHeaderAreFatal)
{
    EXPECT_DEATH(CacheModel(smallCfg(8, 17, 2)), "16");
    CacheModel c(smallCfg(8, 16, 16));
    EXPECT_EQ(c.numWays(), 16u);
}

TEST(CacheAcctDeathTest, TagOutsideWayFieldIsFatal)
{
    CacheModel c(smallCfg(8, 4, 2));
    const Addr top = (1ull << 53) - cacheLineSize; // tag 2^47 - 1
    c.cpuAccess(top, 1, true);
    EXPECT_TRUE(c.probe(top));
    EXPECT_EQ(c.saveState().validLines.at(0).second.tag,
              (1ull << 47) - 1);
    EXPECT_DEATH(c.cpuAccess(top + cacheLineSize, 1), "tag");
    EXPECT_DEATH(c.fillSpan(top + cacheLineSize, cacheLineSize, 1000),
                 "tag");
}

/**
 * A CacheModel and a ReferenceCache of one geometry, driven op for op:
 * every op's result is compared on the spot, and check() compares the
 * whole state.
 */
class Lockstep
{
  public:
    explicit Lockstep(const CacheModel::Config &cfg)
        : model(cfg), ref(cfg)
    {
    }

    std::uint64_t numSets() const { return model.numSets(); }

    void
    probeSpan(Addr pa, std::uint64_t size)
    {
        same(model.probeSpan(pa, size), ref.probeSpan(pa, size));
    }

    void
    fillSpan(Addr pa, std::uint64_t size, int owner)
    {
        same(model.fillSpan(pa, size, owner),
             ref.fillSpan(pa, size, owner));
    }

    void
    evictSpan(Addr pa, std::uint64_t size)
    {
        same(model.evictSpan(pa, size), ref.evictSpan(pa, size));
    }

    void
    flushSpan(Addr pa, std::uint64_t size)
    {
        same(model.flushSpan(pa, size), ref.flushSpan(pa, size));
    }

    void
    cpuAccess(Addr pa, int owner, bool is_write)
    {
        auto a = model.cpuAccess(pa, owner, is_write);
        auto b = ref.cpuAccess(pa, owner, is_write);
        EXPECT_EQ(a.hit, b.hit);
        EXPECT_EQ(a.evictedDirty, b.evictedDirty);
        EXPECT_EQ(a.evictedPa, b.evictedPa);
    }

    void
    cpuAccessSpan(Addr pa, std::uint64_t size, int owner, bool is_write)
    {
        std::vector<Addr> va, vb;
        auto a = model.cpuAccessSpan(pa, size, owner, is_write, va);
        auto b = ref.cpuAccessSpan(pa, size, owner, is_write, vb);
        EXPECT_EQ(a.hits, b.hits);
        EXPECT_EQ(a.misses, b.misses);
        EXPECT_EQ(va, vb);
    }

    void
    invalidate(Addr pa)
    {
        model.invalidate(pa);
        ref.invalidate(pa);
    }

    void probe(Addr pa) { EXPECT_EQ(model.probe(pa), ref.probe(pa)); }

    void
    invalidateAll()
    {
        model.invalidateAll();
        ref.invalidateAll();
    }

    void check() { expectSameState(model, ref); }

    CacheModel model;
    ReferenceCache ref;

  private:
    static void
    same(const CacheModel::SpanResult &a, const CacheModel::SpanResult &b)
    {
        EXPECT_EQ(a.hitBytes, b.hitBytes);
        EXPECT_EQ(a.missBytes, b.missBytes);
        EXPECT_EQ(a.writebackBytes, b.writebackBytes);
        EXPECT_EQ(a.lastEvictedPa, b.lastEvictedPa);
    }
};

/** Two distinct tags of set @p set with equal fingerprints. */
std::pair<std::uint64_t, std::uint64_t>
collidingTags(std::uint64_t sets, std::uint64_t set)
{
    std::vector<std::uint64_t> first(256, 0);
    for (std::uint64_t tag = set + sets;; tag += sets) {
        std::uint64_t &seen = first[CacheModel::tagFingerprint(tag)];
        if (seen != 0)
            return {seen, tag};
        seen = tag;
    }
}

// A fingerprint only filters: with two colliding tags in one set, a
// hit resolves to the way holding the full tag, and a lookup of the
// absent one is a miss, not a false hit.
TEST(CacheAcct, FingerprintCollisionConfirmsFullTag)
{
    const CacheModel::Config cfg = smallCfg(4, 15, 2);
    Lockstep m(cfg);
    const auto [t1, t2] = collidingTags(m.numSets(), 3);
    ASSERT_EQ(CacheModel::tagFingerprint(t1),
              CacheModel::tagFingerprint(t2));
    ASSERT_NE(t1, t2);
    m.cpuAccess(t1 * cacheLineSize, 1, true);
    EXPECT_FALSE(m.model.probe(t2 * cacheLineSize));
    m.probeSpan(t2 * cacheLineSize, cacheLineSize); // a miss on both
    m.invalidate(t2 * cacheLineSize);               // drops nothing
    EXPECT_TRUE(m.model.probe(t1 * cacheLineSize));
    // Both present, in different ways: each hit finds its own.
    m.cpuAccess(t2 * cacheLineSize, 2, false);
    m.cpuAccess(t1 * cacheLineSize, 3, false);
    m.fillSpan(t2 * cacheLineSize, cacheLineSize, 1000);
    m.check();
    EXPECT_EQ(m.model.occupancyBytes(3), cacheLineSize);
    EXPECT_EQ(m.model.occupancyBytes(1000), cacheLineSize);
    m.flushSpan(t1 * cacheLineSize, cacheLineSize);
    EXPECT_FALSE(m.model.probe(t1 * cacheLineSize));
    EXPECT_TRUE(m.model.probe(t2 * cacheLineSize));
    m.check();
}

// The oracle contract: randomized span and scalar op sequences leave
// CacheModel and ReferenceCache in identical states and return
// identical results.
void
differentialFuzz(std::uint32_t seed, CacheModel::Config cfg)
{
    Lockstep m(cfg);
    Rng rng(seed);
    const std::uint64_t sets = m.numSets();
    // A PA window ~2x the cache forces conflicts and LRU churn;
    // spans up to ~3 revolutions exercise the set wrap.
    const std::uint64_t window = 2 * cfg.sizeBytes;
    const std::uint64_t max_span = 3 * sets * cacheLineSize;

    // A fixed mid-sequence invalidateAll epoch at op 2000.
    for (int op = 0; op < 4000; ++op) {
        if (op == 2000)
            m.invalidateAll();
        Addr pa = rng.range(0, window);
        std::uint64_t size = rng.range(1, max_span);
        int owner = drawOwner(rng);
        switch (rng.range(0, 10)) {
          case 0:
          case 1:
            m.probeSpan(pa, size);
            break;
          case 2:
          case 3:
            m.fillSpan(pa, size, owner);
            break;
          case 4:
            m.evictSpan(pa, size);
            break;
          case 5:
            m.flushSpan(pa, size);
            break;
          case 6:
            if (rng.range(0, 2) == 0)
                m.cpuAccess(lineAlignDown(pa), owner, rng.range(0, 2) == 0);
            else
                m.cpuAccessSpan(pa, size, owner, rng.range(0, 2) == 0);
            break;
          case 7:
            // One-line device traffic, as a 64 B descriptor makes.
            if (rng.range(0, 2) == 0)
                m.fillSpan(lineAlignDown(pa), cacheLineSize, owner);
            else
                m.evictSpan(lineAlignDown(pa), cacheLineSize);
            break;
          case 8:
            if (rng.range(0, 8) == 0)
                m.invalidateAll();
            else if (rng.range(0, 2) == 0)
                m.invalidate(pa);
            else
                m.probeSpan(pa, cacheLineSize);
            break;
          case 9:
            if (rng.range(0, 16) == 0)
                m.check();
            else
                m.probe(pa);
            break;
        }
        if (op % 50 == 0)
            m.check();
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "diverged at op " << op << " seed "
                          << seed;
            return;
        }
    }
    m.check();
}

TEST(CacheAcct, DifferentialFuzzSprShape)
{
    // SPR-like associativity, scaled-down set count, DDIO partition.
    differentialFuzz(1, smallCfg(64, 15, 2));
}

TEST(CacheAcct, DifferentialFuzzNoDdio)
{
    // ddioWays == 0: device fills may use every way.
    differentialFuzz(2, smallCfg(96, 5, 0));
}

TEST(CacheAcct, DifferentialFuzzTinySets)
{
    // Tiny set count: nearly every span wraps multiple times.
    differentialFuzz(3, smallCfg(8, 4, 2));
}

TEST(CacheAcct, DifferentialFuzz16Ways)
{
    // Every nibble of the order word names a real way.
    differentialFuzz(4, smallCfg(40, 16, 3));
}

// The platform's own directory — the default Config: 105 MB, 15
// ways, 2 DDIO ways, a set count (114688) that is not a power of two
// — under the traffic tools/determinism_check offloads: two 1 MiB
// buffers; memMove, fill, CRC and compare descriptors of 64 B-64 KiB
// at unaligned offsets, each issued whole or walked as the engine
// does in 4 KiB page segments; partial completions cut at a 4 KiB
// boundary; CPU fallbacks and cache flushes. The buffers sit one
// set revolution apart, so they share sets, and the first straddles
// the set wrap. The LLC starts warm: every set the buffers map to
// holds 14 older CPU lines, so fills and CPU accesses evict by LRU.
TEST(CacheAcct, ReferenceFuzzSprDirectory)
{
    const CacheModel::Config cfg;
    Lockstep m(cfg);
    const std::uint64_t rev = m.numSets() * cacheLineSize; // 7 MiB
    const std::uint64_t span = 1 << 20;
    const Addr src = 3 * rev - span / 2;
    const Addr dst = src + rev;
    Rng rng(21);
    for (std::uint64_t k = 2; k < 16; ++k)
        for (std::uint64_t off = 0; off < span; off += cacheLineSize)
            m.cpuAccess(src + k * rev + off, static_cast<int>(k % 2),
                        k % 3 == 0);
    m.check();

    // One stream of a descriptor, issued as the engine walk would.
    auto stream = [&](Addr pa, std::uint64_t n, bool write, bool cc) {
        const bool paged = rng.range(0, 2) == 0;
        for (Addr end = pa + n; pa < end;) {
            const Addr page_end = (pa / 4096 + 1) * 4096;
            const std::uint64_t seg =
                paged ? std::min<Addr>(end, page_end) - pa : end - pa;
            if (!write)
                m.probeSpan(pa, seg);
            else if (cc)
                m.fillSpan(pa, seg, 1000);
            else
                m.evictSpan(pa, seg);
            pa += seg;
        }
    };
    for (int op = 0; op < 1200; ++op) {
        std::uint64_t n = rng.range(64, 64 << 10);
        const Addr so = src + rng.range(0, span - n);
        const Addr dof = dst + rng.range(0, span - n);
        if (rng.range(0, 10) == 0) {
            // A partial completion stops at a page boundary.
            const Addr cut = (dof + rng.range(1, n) + 4095) / 4096 * 4096;
            n = std::min<std::uint64_t>(n, cut - dof);
        }
        const bool cc = rng.range(0, 4) != 0;
        switch (rng.range(0, 7)) {
          case 0: // memMove
            stream(so, n, false, cc);
            stream(dof, n, true, cc);
            break;
          case 1: // fill
            stream(dof, n, true, cc);
            break;
          case 2: // crc32
            stream(so, n, false, cc);
            break;
          case 3: // compare
            stream(so, n, false, cc);
            stream(dof, n, false, cc);
            break;
          case 4: // CPU fallback of a memMove
            if (rng.range(0, 2) == 0) {
                for (Addr a = 0; a < n; a += cacheLineSize) {
                    m.cpuAccess(lineAlignDown(so + a), 0, false);
                    m.cpuAccess(lineAlignDown(dof + a), 0, true);
                }
            } else {
                // As SwKernels::touchRange walks it: the source, then
                // the destination, one span per 4 KiB page run.
                for (const auto &[from, write] :
                     {std::pair{so, false}, std::pair{dof, true}}) {
                    for (Addr a = from, end = from + n; a < end;) {
                        const Addr page_end = (a / 4096 + 1) * 4096;
                        const Addr run = std::min<Addr>(end, page_end) - a;
                        m.cpuAccessSpan(a, run, 0, write);
                        a += run;
                    }
                }
            }
            break;
          case 5: // cache flush
            m.flushSpan(dof, n);
            break;
          case 6:
            if (rng.range(0, 50) == 0)
                m.check();
            else
                m.probe(so);
            break;
        }
        if (op % 100 == 0)
            m.check();
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "diverged at op " << op;
            return;
        }
    }
    m.check();
    m.invalidateAll();
    m.fillSpan(src, span, 1000);
    m.check();
}

// The SPR directory through the first time every set is live, when
// the model moves its arrays onto 2 MiB pages, and past it: the mix
// perfbench cpu-pollution runs (4 KiB write spans streaming over
// 32 MiB, each followed by 8 random probe reads), then invalidateAll()
// and a refill, which makes every set live a second time. The
// collapse is host-only, so the states stay identical throughout.
TEST(CacheAcct, LockstepSprAcrossEverySetLive)
{
    const CacheModel::Config cfg;
    Lockstep m(cfg);
    const std::uint64_t rev = m.numSets() * cacheLineSize;
    // Every set but the last, then the line that makes it live.
    m.cpuAccessSpan(0, rev - cacheLineSize, 0, false);
    m.check();
    m.cpuAccess(rev - cacheLineSize, 1, true);
    m.check();

    Rng rng(37);
    const Addr stream = 1ull << 30, probes = 2ull << 30;
    auto pollute = [&](int pages) {
        for (int p = 0; p < pages; ++p) {
            // Copier cores 8-11 write, probe cores 0-7 read.
            m.cpuAccessSpan(stream + rng.range(0, 8191) * 4096, 4096,
                            8 + p % 4, true);
            for (int i = 0; i < 8; ++i)
                m.cpuAccess(probes + rng.range(0, (4 << 20) / 64 - 1) * 64,
                            i, false);
            if (p % 1000 == 0)
                m.check();
            if (::testing::Test::HasFailure()) {
                ADD_FAILURE() << "diverged at page " << p;
                return;
            }
        }
        m.check();
    };
    pollute(4000);
    m.invalidateAll();
    m.check();
    m.cpuAccessSpan(rev, rev, 2, true);
    m.check();
    pollute(2000);
}

// A CacheModel moves with its arrays: the moved-to model reports the
// same state and keeps matching the oracle (bench_simhost returns one
// by value).
TEST(CacheAcct, MovedModelKeepsState)
{
    const CacheModel::Config cfg = smallCfg(64, 15, 2);
    Lockstep m(cfg);
    Rng rng(5);
    const std::uint64_t window = 2 * cfg.sizeBytes;
    for (int op = 0; op < 2000; ++op)
        m.cpuAccess(lineAlignDown(rng.range(0, window)), drawOwner(rng),
                    rng.range(0, 2) == 0);
    m.fillSpan(0, cfg.sizeBytes / 2, 1000);
    const CacheModel::State before = m.model.saveState();

    CacheModel moved(std::move(m.model));
    expectSameState(moved, m.ref);
    m.model = std::move(moved);
    m.check();
    EXPECT_EQ(m.model.saveState().validLines.size(),
              before.validLines.size());
    for (int op = 0; op < 2000; ++op)
        m.cpuAccess(lineAlignDown(rng.range(0, window)), drawOwner(rng),
                    rng.range(0, 2) == 0);
    m.flushSpan(0, cfg.sizeBytes);
    m.check();
}

// The helper behind the directory and PhysicalMemory chunks: a
// mapping of any size starts on a 2 MiB boundary and reads as zero,
// before and after a collapse, and its deleter moves with it.
TEST(HostMap, MappingIsHugeAlignedAndZero)
{
    const std::size_t n = ((3 << 20) + 8) / sizeof(std::uint64_t);
    HostArray<std::uint64_t> a = mapHostArray<std::uint64_t>(n);
    ASSERT_NE(a.get(), nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.get()) %
                  hostHugePageBytes,
              0u);
    EXPECT_EQ(a.get_deleter().bytes, n * sizeof(std::uint64_t));
    EXPECT_TRUE(std::all_of(a.get(), a.get() + n,
                            [](std::uint64_t v) { return v == 0; }));
    a[n - 1] = 7;
    collapseHugePages(a.get(), n * sizeof(std::uint64_t));
    HostArray<std::uint64_t> b = std::move(a);
    EXPECT_EQ(b.get_deleter().bytes, n * sizeof(std::uint64_t));
    EXPECT_EQ(b[n - 1], 7u);
    EXPECT_EQ(static_cast<std::size_t>(std::count(b.get(), b.get() + n,
                                                  std::uint64_t{0})),
              n - 1);
}

} // namespace
} // namespace dsasim
