/**
 * @file
 * Differential tests for the batched span-granular cache accounting
 * (DESIGN.md §13): the batched implementation must be
 * state-identical — per-line directory contents, LRU clock values,
 * occupancy gauges and returned aggregates — to the line-at-a-time
 * oracle kept behind `DSASIM_CACHE_ACCT=line`. Also covers the
 * closed-form per-set span geometry (set wrap, start-offset
 * corrections), the stale-epoch victim reclaim gauge regression,
 * O(occupied) restore into a churned model, and the way-packing
 * guards.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <vector>

#include "mem/cache.hh"
#include "sim/random.hh"

namespace dsasim
{
namespace
{

using Acct = CacheModel::AcctMode;

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

void
expectSameState(const CacheModel &a, const CacheModel &b)
{
    CacheModel::State sa = a.saveState();
    CacheModel::State sb = b.saveState();
    ASSERT_EQ(sa.useClock, sb.useClock);
    ASSERT_EQ(sa.validLines.size(), sb.validLines.size());
    for (std::size_t i = 0; i < sa.validLines.size(); ++i) {
        const auto &[ia, la] = sa.validLines[i];
        const auto &[ib, lb] = sb.validLines[i];
        ASSERT_EQ(ia, ib) << "way index diverged at entry " << i;
        EXPECT_EQ(la.tag, lb.tag);
        EXPECT_EQ(la.lastUse, lb.lastUse);
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

TEST(CacheAcct, DefaultModeIsBatched)
{
    if (std::getenv("DSASIM_CACHE_ACCT"))
        GTEST_SKIP() << "mode pinned by environment";
    CacheModel c(smallCfg(64, 4, 2));
    EXPECT_EQ(c.acctMode(), Acct::Batched);
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
        c.setAcctMode(Acct::Batched);
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
    for (Acct mode : {Acct::Batched, Acct::Line}) {
        CacheModel c(smallCfg(64, 4, 2));
        c.setAcctMode(mode);
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
}

TEST(CacheAcct, FlushSpanReportsDirtyWritebacks)
{
    for (Acct mode : {Acct::Batched, Acct::Line}) {
        CacheModel c(smallCfg(64, 4, 2));
        c.setAcctMode(mode);
        c.fillSpan(0, 10 * cacheLineSize, 1); // dirty DDIO fills
        CacheModel::SpanResult r = c.flushSpan(0, 10 * cacheLineSize);
        EXPECT_EQ(r.writebackBytes, 10 * cacheLineSize);
        EXPECT_EQ(c.totalOccupancyBytes(), 0u);
        // Second flush: nothing present, nothing owed.
        r = c.flushSpan(0, 10 * cacheLineSize);
        EXPECT_EQ(r.writebackBytes, 0u);
    }
}

TEST(CacheAcct, EvictSpanDropsDirtyLinesSilently)
{
    for (Acct mode : {Acct::Batched, Acct::Line}) {
        CacheModel c(smallCfg(64, 4, 2));
        c.setAcctMode(mode);
        c.fillSpan(0, 6 * cacheLineSize, 1);
        CacheModel::SpanResult r = c.evictSpan(0, 6 * cacheLineSize);
        // The device write updates memory itself: dropped dirty
        // copies owe no writeback (matches deviceWrite !alloc_hint).
        EXPECT_EQ(r.writebackBytes, 0u);
        EXPECT_EQ(c.totalOccupancyBytes(), 0u);
    }
}

// A way outside the current epoch's presence mask is free, whatever
// it held before invalidateAll: installing there is not an eviction,
// and the occupancy gauges stay exact across epochs.
TEST(CacheAcct, StaleEpochVictimReclaimKeepsGaugesExact)
{
    for (Acct mode : {Acct::Batched, Acct::Line}) {
        CacheModel c(smallCfg(8, 4, 2));
        c.setAcctMode(mode);
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
        // the epoch bump.
        for (unsigned s = 0; s < 8; ++s) {
            auto res = c.deviceWrite(s * cacheLineSize, 3, true);
            EXPECT_TRUE(res.allocated);
            // The stale victim is free space, not an eviction.
            EXPECT_FALSE(res.evictedDirty);
            EXPECT_FALSE(res.evictedOther);
        }
        EXPECT_EQ(c.totalOccupancyBytes(),
                  8 * std::uint64_t{cacheLineSize});
        EXPECT_EQ(c.occupancyBytes(3),
                  8 * std::uint64_t{cacheLineSize});
        EXPECT_EQ(c.occupancyBytes(7), 0u);
        // CPU path reuses pre-epoch ways too; then real LRU evictions
        // at full occupancy keep the gauges balanced.
        for (unsigned s = 0; s < 8; ++s)
            for (unsigned w = 0; w < 6; ++w)
                c.cpuAccess((s + (w + 1) * 8ull) * cacheLineSize, 5,
                            true);
        EXPECT_EQ(c.totalOccupancyBytes(),
                  8 * 4 * std::uint64_t{cacheLineSize});
        EXPECT_EQ(c.occupancyBytes(5) + c.occupancyBytes(3),
                  c.totalOccupancyBytes());
        // Stale lines never appear in a checkpoint: it holds exactly
        // the counted lines, each present in its own set.
        CacheModel::State st = c.saveState();
        EXPECT_EQ(st.validLines.size() * cacheLineSize,
                  c.totalOccupancyBytes());
        for (const auto &[idx, line] : st.validLines) {
            EXPECT_EQ(idx / c.numWays(), line.tag % c.numSets());
            EXPECT_TRUE(c.probe(line.tag * cacheLineSize));
        }
    }
}

/**
 * Drive @p c with a seeded mix of CPU, DDIO, probe and flush ops and
 * return every op's outcome, so two models can be compared op by op.
 */
std::vector<std::uint64_t>
driveOps(CacheModel &c, std::uint32_t seed, std::uint64_t window)
{
    Rng rng(seed);
    std::vector<std::uint64_t> out;
    for (int op = 0; op < 3000; ++op) {
        Addr pa = rng.range(0, window);
        int owner = drawOwner(rng);
        switch (rng.range(0, 4)) {
          case 0: {
            auto r = c.cpuAccess(lineAlignDown(pa), owner, true);
            out.insert(out.end(), {r.hit, r.evictedDirty,
                                   r.evictedOther, r.evictedPa});
            break;
          }
          case 1: {
            auto r = c.fillSpan(pa, 5 * cacheLineSize, owner);
            out.insert(out.end(), {r.hitBytes, r.writebackBytes,
                                   r.lastEvictedPa});
            break;
          }
          case 2:
            out.push_back(c.probeSpan(pa, 9 * cacheLineSize).hitBytes);
            break;
          case 3:
            out.push_back(c.flushLine(lineAlignDown(pa)));
            break;
        }
    }
    return out;
}

// restoreState empties the directory with an epoch bump and writes
// only the snapshot's ways, so restoring into a model churned across
// several invalidateAll epochs must behave exactly like restoring
// into a fresh one — and like the model the snapshot was taken from —
// for every later op, not just the snapshot.
TEST(CacheAcct, RestoreIntoChurnedModelMatchesFresh)
{
    const CacheModel::Config cfg = smallCfg(32, 15, 2);
    CacheModel source(cfg), churned(cfg), fresh(cfg);
    const std::uint64_t window = 3 * cfg.sizeBytes;
    Rng rng(11);
    // Roughly 10% occupancy in the snapshot, owners of both kinds.
    for (int i = 0; i < 48; ++i)
        source.cpuAccess(lineAlignDown(rng.range(0, window)),
                         drawOwner(rng), rng.range(0, 2) == 0);
    source.fillSpan(rng.range(0, window), 8 * cacheLineSize, 1000);
    const CacheModel::State snap = source.saveState();
    ASSERT_FALSE(snap.validLines.empty());

    for (int epoch = 0; epoch < 4; ++epoch) {
        for (int i = 0; i < 600; ++i)
            churned.cpuAccess(lineAlignDown(rng.range(0, window)),
                              drawOwner(rng), true);
        churned.fillSpan(rng.range(0, window), 40 * cacheLineSize,
                         1001);
        churned.invalidateAll();
    }
    for (int i = 0; i < 600; ++i)
        churned.cpuAccess(lineAlignDown(rng.range(0, window)),
                          drawOwner(rng), true);

    churned.restoreState(snap);
    fresh.restoreState(snap);
    expectSameState(churned, fresh);
    expectSameState(churned, source);

    const auto want = driveOps(source, 5, window);
    EXPECT_EQ(driveOps(churned, 5, window), want);
    EXPECT_EQ(driveOps(fresh, 5, window), want);
    expectSameState(churned, source);
    expectSameState(fresh, source);
}

// Victims are the least recently used way, whoever owns it: the owner
// bits packed below the use clock never reorder the LRU scan.
TEST(CacheAcct, LruVictimIgnoresOwnerBits)
{
    CacheModel c(smallCfg(1, 4, 0));
    const Addr a = 0, b = 64, cc = 128, d = 192;
    c.cpuAccess(a, 0xffff);
    c.cpuAccess(b, 0);
    c.cpuAccess(cc, 0);
    c.cpuAccess(d, 7);
    EXPECT_TRUE(c.cpuAccess(a, 3).hit); // CPU touch, new owner
    EXPECT_TRUE(c.deviceRead(b).hit);   // device touch, owner kept
    auto r = c.cpuAccess(256, 0, true);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(c.probe(cc));
    r = c.cpuAccess(320, 0xffff);
    EXPECT_EQ(r.evictedOther, true);
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

// The two packing limits of a 16-byte way: owners live in 16 bits,
// LRU clock values in the 48 above them.
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

TEST(CacheAcctDeathTest, UseClockAtPackingLimitIsFatal)
{
    CacheModel c(smallCfg(8, 4, 2));
    CacheModel::State st;
    st.useClock = (1ull << 48) - 2;
    c.restoreState(st);
    c.cpuAccess(0, 1); // takes the last clock value that packs
    EXPECT_DEATH(c.cpuAccess(0, 1), "use clock");
    EXPECT_DEATH(c.deviceRead(0), "use clock");
    st.useClock = 1ull << 48;
    EXPECT_DEATH(c.restoreState(st), "use clock");
}

// The oracle contract: randomized span/scalar op sequences leave the
// batched and line-mode models in byte-identical states and return
// identical aggregates.
void
differentialFuzz(std::uint32_t seed, CacheModel::Config cfg)
{
    CacheModel batched(cfg), oracle(cfg);
    batched.setAcctMode(Acct::Batched);
    oracle.setAcctMode(Acct::Line);
    Rng rng(seed);
    const std::uint64_t sets = batched.numSets();
    // A PA window ~2x the cache forces conflicts and LRU churn;
    // spans up to ~3 revolutions exercise the set wrap.
    const std::uint64_t window = 2 * cfg.sizeBytes;
    const std::uint64_t max_span = 3 * sets * cacheLineSize;

    auto expectSameResult = [](const CacheModel::SpanResult &a,
                               const CacheModel::SpanResult &b) {
        EXPECT_EQ(a.hitBytes, b.hitBytes);
        EXPECT_EQ(a.missBytes, b.missBytes);
        EXPECT_EQ(a.writebackBytes, b.writebackBytes);
        EXPECT_EQ(a.lastEvictedPa, b.lastEvictedPa);
    };

    // Fixed mid-sequence schedule: a snapshot taken at op 1000 is
    // restored at op 3000, after an invalidateAll epoch (op 2000) and
    // a round trip (op 2500), so restore lands in a churned model.
    std::optional<CacheModel::State> snapBatched, snapOracle;
    for (int op = 0; op < 4000; ++op) {
        if (op == 1000) {
            snapBatched = batched.saveState();
            snapOracle = oracle.saveState();
        } else if (op == 2000) {
            batched.invalidateAll();
            oracle.invalidateAll();
        } else if (op == 2500) {
            batched.restoreState(batched.saveState());
            oracle.restoreState(oracle.saveState());
        } else if (op == 3000) {
            batched.restoreState(*snapBatched);
            oracle.restoreState(*snapOracle);
            expectSameState(batched, oracle);
        }
        Addr pa = rng.range(0, window);
        std::uint64_t size = rng.range(1, max_span);
        int owner = drawOwner(rng);
        switch (rng.range(0, 10)) {
          case 0:
          case 1: {
            expectSameResult(batched.probeSpan(pa, size),
                             oracle.probeSpan(pa, size));
            break;
          }
          case 2:
          case 3: {
            expectSameResult(batched.fillSpan(pa, size, owner),
                             oracle.fillSpan(pa, size, owner));
            break;
          }
          case 4: {
            expectSameResult(batched.evictSpan(pa, size),
                             oracle.evictSpan(pa, size));
            break;
          }
          case 5: {
            expectSameResult(batched.flushSpan(pa, size),
                             oracle.flushSpan(pa, size));
            break;
          }
          case 6: {
            Addr line = lineAlignDown(pa);
            bool wr = rng.range(0, 2) == 0;
            auto ra = batched.cpuAccess(line, owner, wr);
            auto rb = oracle.cpuAccess(line, owner, wr);
            EXPECT_EQ(ra.hit, rb.hit);
            EXPECT_EQ(ra.evictedDirty, rb.evictedDirty);
            EXPECT_EQ(ra.evictedPa, rb.evictedPa);
            break;
          }
          case 7: {
            Addr line = lineAlignDown(pa);
            bool hint = rng.range(0, 2) == 0;
            auto ra = batched.deviceWrite(line, owner, hint);
            auto rb = oracle.deviceWrite(line, owner, hint);
            EXPECT_EQ(ra.hit, rb.hit);
            EXPECT_EQ(ra.evictedDirty, rb.evictedDirty);
            break;
          }
          case 8: {
            if (rng.range(0, 8) == 0) {
                batched.invalidateAll();
                oracle.invalidateAll();
            } else {
                EXPECT_EQ(batched.deviceRead(lineAlignDown(pa)).hit,
                          oracle.deviceRead(lineAlignDown(pa)).hit);
            }
            break;
          }
          case 9: {
            // Checkpoint round-trip mid-stream: masks and gauges
            // must rebuild identically.
            if (rng.range(0, 16) == 0) {
                batched.restoreState(batched.saveState());
                oracle.restoreState(oracle.saveState());
            } else {
                EXPECT_EQ(batched.probe(lineAlignDown(pa)),
                          oracle.probe(lineAlignDown(pa)));
            }
            break;
          }
        }
        if (op % 50 == 0)
            expectSameState(batched, oracle);
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "diverged at op " << op << " seed "
                          << seed;
            return;
        }
    }
    expectSameState(batched, oracle);
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

} // namespace
} // namespace dsasim
