/**
 * @file
 * Unit tests for the memory subsystem: physical store, page tables,
 * address spaces, the LLC model (including DDIO partitioning and
 * occupancy accounting), translation caches and the IOMMU.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/iommu.hh"
#include "mem/mem_system.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb.hh"
#include "reference_tlb.hh"
#include "sim/random.hh"

namespace
{
/** Every operator new in this binary, for the allocation-free checks. */
std::atomic<std::size_t> heapAllocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// GCC cannot see that these frees pair with the malloc above.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

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
    MemNodeConfig cxl;
    cxl.kind = MemKind::Cxl;
    cxl.capacityBytes = 1ull << 30;
    cfg.nodes = {local, remote, cxl};
    cfg.llc.sizeBytes = 1 << 20; // 1 MB for fast tests
    cfg.llc.ways = 8;
    cfg.llc.ddioWays = 2;
    return cfg;
}

TEST(PhysMem, ReadWriteRoundTrip)
{
    PhysicalMemory pm(64 << 20);
    std::vector<std::uint8_t> data(10000);
    Rng rng(4);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next32());
    pm.write(12345, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    pm.read(12345, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(PhysMem, UntouchedMemoryReadsZero)
{
    PhysicalMemory pm(64 << 20);
    std::uint8_t b = 0xff;
    pm.read(1 << 20, &b, 1);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(pm.residentBytes(), 0u);
}

TEST(PhysMem, CrossChunkAccess)
{
    PhysicalMemory pm(64 << 20);
    // Write 4 KB straddling the 2 MB chunk boundary.
    std::vector<std::uint8_t> data(4096, 0x7e);
    Addr pa = PhysicalMemory::chunkSize - 2048;
    pm.write(pa, data.data(), data.size());
    std::vector<std::uint8_t> back(4096);
    pm.read(pa, back.data(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(pm.residentBytes(), 2 * PhysicalMemory::chunkSize);
}

TEST(PhysMem, FillAndSpan)
{
    PhysicalMemory pm(64 << 20);
    pm.fill(4096, 0x5a, 4096);
    std::uint8_t *p = pm.hostSpan(4096, 4096);
    for (int i = 0; i < 4096; ++i)
        ASSERT_EQ(p[i], 0x5a);
}

// A chunk is a fresh mapping: bytes no write reached read zero.
TEST(PhysMem, PartialChunkReadsZero)
{
    const Addr chunk = PhysicalMemory::chunkSize;
    PhysicalMemory pm(64 << 20);
    pm.fill(chunk + 4096, 0xa5, 64);
    std::vector<std::uint8_t> back(chunk);
    pm.read(chunk, back.data(), back.size());
    for (std::uint64_t i = 0; i < chunk; ++i)
        ASSERT_EQ(back[i], i >= 4096 && i < 4096 + 64 ? 0xa5 : 0)
            << "offset " << i;
    EXPECT_EQ(pm.residentBytes(), chunk);
}

TEST(PageTable, LookupAndTranslate)
{
    PageTable pt;
    pt.map(0x10000, 0xa0000, 0x1000);
    pt.map(0x11000, 0xb0000, 0x1000);
    EXPECT_EQ(pt.translateOrDie(0x10123), 0xa0123u);
    EXPECT_EQ(pt.translateOrDie(0x11fff), 0xb0fffu);
    EXPECT_FALSE(pt.lookup(0x12000).has_value());
    EXPECT_FALSE(pt.lookup(0xffff).has_value());
}

TEST(PageTable, PresentBit)
{
    PageTable pt;
    pt.map(0x10000, 0xa0000, 0x1000);
    pt.setPresent(0x10800, false);
    auto m = pt.lookup(0x10400);
    ASSERT_TRUE(m.has_value());
    EXPECT_FALSE(m->present);
    pt.setPresent(0x10000, true);
    EXPECT_TRUE(pt.lookup(0x10000)->present);
}

// lookup() against a linear scan of every page: random lookups
// (mostly past the region memo, so through the region search) over
// 4 KiB and 2 MiB runs, with guard gaps, runs of different page sizes
// back to back, and present bits flipped along the way; then again
// after a snapshot round trip. Two tables take the same runs: one
// page by page in shuffled order, one as a whole-run map() per run.
TEST(PageTable, RunIndexMatchesLinearScan)
{
    struct Ref
    {
        Addr va, pa;
        std::uint64_t size;
        bool present;
    };
    std::vector<Ref> ref;
    PageTable whole;
    Rng rng(17);
    Addr va = 1ull << 32;
    Addr pa = 0;
    for (int region = 0; region < 24; ++region) {
        const std::uint64_t page = rng.range(0, 3) == 0 ? 2ull << 20 : 4096;
        va = (va + page - 1) / page * page;
        const int pages = static_cast<int>(rng.range(1, 40));
        whole.map(va, pa, pages * page, page);
        for (int i = 0; i < pages; ++i, va += page, pa += page)
            ref.push_back({va, pa, page, true});
        // A guard gap, or none: then the next run starts right here,
        // possibly with the other page size.
        if (rng.range(0, 3) != 0)
            va += page * rng.range(1, 3);
    }
    std::vector<std::size_t> order(ref.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    // Half in order (appends), the rest shuffled (mid-table inserts).
    for (std::size_t i = order.size() - 1; i > order.size() / 2; --i)
        std::swap(order[i],
                  order[order.size() / 2 + rng.range(0, i - order.size() / 2)]);
    PageTable pt;
    for (std::size_t i : order)
        pt.map(ref[i].va, ref[i].pa, ref[i].size);
    ASSERT_EQ(pt.mappingCount(), ref.size());
    ASSERT_EQ(whole.mappingCount(), ref.size());

    auto check = [&](const PageTable &t) {
        const Addr lo = ref.front().va - (4 << 20);
        const Addr hi = ref.back().va + (4 << 20);
        for (int i = 0; i < 20000; ++i) {
            const Addr v = lo + rng.range(0, hi - lo);
            const Ref *want = nullptr;
            for (const Ref &r : ref)
                if (v >= r.va && v < r.va + r.size)
                    want = &r;
            const auto got = t.lookup(v);
            ASSERT_EQ(got.has_value(), want != nullptr) << std::hex << v;
            if (!want)
                continue;
            EXPECT_EQ(got->vaBase, want->va);
            EXPECT_EQ(got->paBase, want->pa);
            EXPECT_EQ(got->size, want->size);
            EXPECT_EQ(got->present, want->present);
        }
    };
    check(pt);
    check(whole);
    for (int i = 0; i < 50; ++i) {
        Ref &r = ref[rng.range(0, ref.size() - 1)];
        r.present = !r.present;
        pt.setPresent(r.va + rng.range(0, r.size - 1), r.present);
        whole.setPresent(r.va + rng.range(0, r.size - 1), r.present);
    }
    check(pt);
    check(whole);
}

// walk() over 4 KiB and 2 MiB regions: unaligned starts and ends, an
// evicted page reported as not present, a stop at the guard page
// after a region, and a stop asked for by the callback.
TEST(PageTable, WalkYieldsPageRuns)
{
    Simulation sim;
    MemSystem ms(sim, smallConfig());
    AddressSpace &as = ms.createSpace();
    const PageTable &pt = as.pageTable();
    std::vector<PageTable::PageRun> runs;
    auto collect = [&](const PageTable::PageRun &r) {
        runs.push_back(r);
        return true;
    };
    for (PageSize ps : {PageSize::Size4K, PageSize::Size2M}) {
        const std::uint64_t page = pageBytes(ps);
        const Addr a = as.alloc(3 * page, MemKind::DramLocal, ps);
        const Addr pa = as.translate(a);
        as.evictPage(a + page + 5);

        runs.clear();
        EXPECT_FALSE(pt.walk(a + 100, 2 * page, collect).has_value());
        ASSERT_EQ(runs.size(), 3u);
        EXPECT_EQ(runs[0].va, a + 100);
        EXPECT_EQ(runs[0].pageVa, a);
        EXPECT_EQ(runs[0].pa, pa + 100);
        EXPECT_EQ(runs[0].len, page - 100);
        EXPECT_TRUE(runs[0].present);
        EXPECT_EQ(runs[1].va, a + page);
        EXPECT_EQ(runs[1].pageVa, a + page);
        EXPECT_EQ(runs[1].pa, pa + page);
        EXPECT_EQ(runs[1].len, page);
        EXPECT_FALSE(runs[1].present);
        EXPECT_EQ(runs[2].va, a + 2 * page);
        EXPECT_EQ(runs[2].len, 100u);
        EXPECT_TRUE(runs[2].present);

        runs.clear();
        const auto stop = pt.walk(a + 2 * page + 7, page, collect);
        ASSERT_TRUE(stop.has_value());
        EXPECT_EQ(*stop, a + 3 * page);
        ASSERT_EQ(runs.size(), 1u);
        EXPECT_EQ(runs[0].len, page - 7);

        int calls = 0;
        EXPECT_FALSE(pt.walk(a, 3 * page, [&](const PageTable::PageRun &) {
                           return ++calls < 2;
                       }).has_value());
        EXPECT_EQ(calls, 2);
    }
}

TEST(PageTableDeathTest, OverlapPanics)
{
    PageTable pt;
    pt.map(0x10000, 0xa0000, 0x2000);
    EXPECT_DEATH(pt.map(0x11000, 0xc0000, 0x1000), "overlapping");
}

TEST(Tlb, LruEviction)
{
    TranslationCache tc(2);
    tc.insert(1, 0x1000);
    tc.insert(1, 0x2000);
    EXPECT_TRUE(tc.lookup(1, 0x1000));
    tc.insert(1, 0x3000); // evicts 0x2000 (LRU)
    EXPECT_FALSE(tc.lookup(1, 0x2000));
    EXPECT_TRUE(tc.lookup(1, 0x1000));
    EXPECT_TRUE(tc.lookup(1, 0x3000));
}

TEST(Tlb, PasidsAreDistinct)
{
    TranslationCache tc(8);
    tc.insert(1, 0x1000);
    EXPECT_TRUE(tc.lookup(1, 0x1000));
    EXPECT_FALSE(tc.lookup(2, 0x1000));
}

TEST(Tlb, InvalidateSinglePage)
{
    TranslationCache tc(8);
    tc.insert(1, 0x1000);
    tc.insert(1, 0x2000);
    tc.invalidate(1, 0x1000);
    EXPECT_FALSE(tc.lookup(1, 0x1000));
    EXPECT_TRUE(tc.lookup(1, 0x2000));
}

TEST(Tlb, FullCacheMissCycleAllocatesNothing)
{
    // Offload-ring's ATC: 1025 pages cycled through 1024 entries, so
    // every lookup misses and every insert evicts the LRU entry.
    TranslationCache tc(1024);
    const Addr pages = 1025;
    for (Addr p = 0; p < pages; ++p)
        tc.insert(1, p << 12);
    const std::size_t before = heapAllocs.load();
    std::uint64_t hits = 0;
    for (Addr i = 0; i < 4 * pages; ++i) {
        const Addr va = (i % pages) << 12;
        hits += tc.lookup(1, va);
        tc.insert(1, va);
        // A shootdown and a refill below capacity reuse storage too.
        if (i % 64 == 0) {
            tc.invalidate(1, va);
            tc.insert(2, va);
        }
    }
    EXPECT_EQ(heapAllocs.load(), before);
    EXPECT_EQ(hits, 0u);
    EXPECT_EQ(tc.size(), 1024u);
}

/**
 * Run TranslationCache and ReferenceTlb side by side through random
 * lookups, inserts, invalidates and clears over several PASIDs. After
 * every call the return value, the counters, the size and the full
 * MRU-first entry order must agree.
 */
void
tlbDifferentialFuzz(std::size_t capacity, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    Rng rng(seed);
    // A working set half again the capacity: sequential page runs (as
    // a streaming descriptor touches them) and scattered pages across
    // the whole 2^vaBits range, for PASIDs up to the widest one.
    const Pasid pasids[] = {1, 2, 3, (Pasid{1} << pasidBits) - 1};
    const std::size_t pool_size = capacity + capacity / 2 + 8;
    std::vector<std::pair<Pasid, Addr>> pool;
    const Addr page_limit = Addr{1} << (vaBits - 12);
    while (pool.size() < pool_size) {
        const Pasid pasid = pasids[rng.below(4)];
        const Addr first = rng.range(0, page_limit - 64);
        const std::uint32_t run = rng.below(2) ? 1 + rng.below(48) : 1;
        for (std::uint32_t i = 0; i < run && pool.size() < pool_size; ++i)
            pool.emplace_back(pasid, (first + i) << 12);
    }

    TranslationCache tc(capacity);
    ReferenceTlb ref(capacity);
    auto expectSame = [&](std::size_t op) {
        ASSERT_EQ(tc.hits(), ref.hits()) << "op " << op;
        ASSERT_EQ(tc.misses(), ref.misses()) << "op " << op;
        ASSERT_EQ(tc.size(), ref.size()) << "op " << op;
        ASSERT_EQ(tc.saveState().entriesMruFirst,
                  ref.saveState().entriesMruFirst)
            << "op " << op;
    };

    const std::size_t ops = 6 * capacity + 3000;
    std::size_t last = 0;
    // Pool indices of the last few miss-then-install steps.
    constexpr std::uint32_t recentCount = 8;
    std::array<std::size_t, recentCount> recent{};
    std::size_t max_size = 0;
    for (std::size_t op = 0; op < ops; ++op) {
        // Reuse the previous page often, as streaming accesses do, so
        // the MRU fast path is taken.
        const std::size_t pick =
            rng.below(4) == 0 ? last
                              : rng.below(static_cast<std::uint32_t>(
                                    pool.size()));
        last = pick;
        const auto [pasid, va] = pool[pick];
        const std::uint32_t kind = rng.below(1000);
        if (kind < 300) {
            // The engine's pattern: look up, install on a miss.
            const bool hit = tc.lookup(pasid, va);
            ASSERT_EQ(hit, ref.lookup(pasid, va)) << "op " << op;
            if (!hit) {
                tc.insert(pasid, va);
                ref.insert(pasid, va);
            }
        } else if (kind < 450) {
            // A lookup, then an install of the same page, which after
            // a miss reuses the miss's probe; half the time another
            // call that may move the index comes between the two. A
            // shootdown picks a recent install, which is likely
            // cached, so its erase really shifts the index.
            ASSERT_EQ(tc.lookup(pasid, va), ref.lookup(pasid, va))
                << "op " << op;
            ASSERT_NO_FATAL_FAILURE(expectSame(op));
            const std::uint32_t between = rng.below(6);
            const std::size_t other =
                between == 2 ? recent[rng.below(recentCount)]
                             : rng.below(static_cast<std::uint32_t>(
                                   pool.size()));
            const auto [other_pasid, other_va] = pool[other];
            switch (between) {
              case 0:
                ASSERT_EQ(tc.lookup(other_pasid, other_va),
                          ref.lookup(other_pasid, other_va))
                    << "op " << op;
                break;
              case 1:
                tc.insert(other_pasid, other_va);
                ref.insert(other_pasid, other_va);
                break;
              case 2:
                tc.invalidate(other_pasid, other_va);
                ref.invalidate(other_pasid, other_va);
                break;
              default:
                break;
            }
            tc.insert(pasid, va);
            ref.insert(pasid, va);
            recent[op % recent.size()] = pick;
            // The install must be reachable through the index.
            ASSERT_EQ(tc.lookup(pasid, va), ref.lookup(pasid, va))
                << "op " << op;
        } else if (kind < 600) {
            ASSERT_EQ(tc.lookup(pasid, va), ref.lookup(pasid, va))
                << "op " << op;
        } else if (kind < 950) {
            tc.insert(pasid, va);
            ref.insert(pasid, va);
        } else {
            tc.invalidate(pasid, va);
            ref.invalidate(pasid, va);
        }
        // About one full flush per run, so the caches still fill.
        if (rng.range(1, ops) == 1) {
            tc.clear();
            ref.clear();
        }
        ASSERT_NO_FATAL_FAILURE(expectSame(op));
        max_size = std::max(max_size, tc.size());
    }
    // Every capacity must have been reached, so evictions ran.
    EXPECT_EQ(max_size, capacity);
}

TEST(Tlb, DifferentialFuzz)
{
    std::uint64_t seed = 11;
    for (std::size_t capacity : {0, 1, 2, 7, 64, 1536, 8192})
        ASSERT_NO_FATAL_FAILURE(tlbDifferentialFuzz(capacity, seed++));
}

TEST(AddressSpaceDeathTest, RegionAboveVaWidthIsFatal)
{
    // Chunks materialize on first touch, so a node as large as the
    // whole VA width costs nothing while its pages stay untouched.
    MemSystemConfig cfg = smallConfig();
    cfg.nodes[0].capacityBytes = Addr{1} << vaBits;
    Simulation sim;
    MemSystem ms(sim, cfg);
    AddressSpace &as = ms.createSpace();
    // Fill the space so that the next region starts one page below
    // the limit; a guard page follows every region.
    const Addr first = as.alloc(4096);
    const Addr top = (Addr{1} << vaBits) - 4096;
    as.alloc(top - (first + 2 * 4096) - 4096);
    EXPECT_DEATH(as.alloc(8192), "virtual address space");
    // The last page below the limit is still fine; nothing fits after.
    EXPECT_EQ(as.alloc(4096), (Addr{1} << vaBits) - 4096);
    EXPECT_DEATH(as.alloc(4096), "virtual address space");
}

TEST(AddressSpaceDeathTest, PasidBeyondFieldIsFatal)
{
    Simulation sim;
    MemSystem ms(sim, smallConfig());
    AddressSpace widest(ms, (Pasid{1} << pasidBits) - 1);
    EXPECT_EQ(widest.pasid(), (Pasid{1} << pasidBits) - 1);
    EXPECT_DEATH(AddressSpace(ms, Pasid{1} << pasidBits), "PASID field");
}

TEST(Cache, HitAfterMiss)
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.ways = 4;
    cfg.ddioWays = 1;
    CacheModel c(cfg);
    auto r1 = c.cpuAccess(0x1000, 1);
    EXPECT_FALSE(r1.hit);
    EXPECT_TRUE(c.probe(0x1000)); // the miss allocated
    auto r2 = c.cpuAccess(0x1000, 1);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(c.occupancyBytes(1), cacheLineSize);
}

TEST(Cache, DeviceReadNeverAllocates)
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.ways = 4;
    cfg.ddioWays = 1;
    CacheModel c(cfg);
    EXPECT_EQ(c.probeSpan(0x2000, cacheLineSize).missBytes,
              cacheLineSize);
    // Still a miss.
    EXPECT_EQ(c.probeSpan(0x2000, cacheLineSize).missBytes,
              cacheLineSize);
    EXPECT_EQ(c.totalOccupancyBytes(), 0u);
    // But device reads do hit CPU-installed lines.
    c.cpuAccess(0x2000, 1);
    EXPECT_EQ(c.probeSpan(0x2000, cacheLineSize).hitBytes,
              cacheLineSize);
}

TEST(Cache, DeviceWriteConfinedToDdioWays)
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 64 * 1024; // 256 sets x 4 ways
    cfg.ways = 4;
    cfg.ddioWays = 1;
    CacheModel c(cfg);
    // Stream device writes over 4x the DDIO capacity.
    std::uint64_t ddio = c.ddioCapacityBytes();
    for (Addr a = 0; a < 4 * ddio; a += cacheLineSize)
        c.fillSpan(a, cacheLineSize, 42);
    // Occupancy can never exceed the DDIO partition.
    EXPECT_LE(c.occupancyBytes(42), ddio);
    EXPECT_GT(c.occupancyBytes(42), 0u);
}

TEST(Cache, DeviceWriteWithoutHintInvalidates)
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.ways = 4;
    cfg.ddioWays = 1;
    CacheModel c(cfg);
    c.cpuAccess(0x3000, 1);
    EXPECT_TRUE(c.probe(0x3000));
    c.evictSpan(0x3000, cacheLineSize);
    EXPECT_FALSE(c.probe(0x3000));
    EXPECT_EQ(c.occupancyBytes(42), 0u);
}

TEST(Cache, DirtyEvictionReported)
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 4096; // 16 sets x 4 ways
    cfg.ways = 4;
    cfg.ddioWays = 1;
    CacheModel c(cfg);
    unsigned sets = c.numSets();
    // Fill one set's DDIO way with a dirty device line...
    Addr first = 0;
    c.fillSpan(first, cacheLineSize, 1);
    // ...then force another device write mapping to the same set.
    Addr conflict = static_cast<Addr>(sets) * cacheLineSize;
    auto r = c.fillSpan(conflict, cacheLineSize, 1);
    EXPECT_EQ(r.writebackBytes, cacheLineSize);
    EXPECT_EQ(r.lastEvictedPa, first);
    EXPECT_EQ(c.writebackBytesTotal(), cacheLineSize);
}

TEST(Cache, FlushLineReportsDirty)
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.ways = 4;
    cfg.ddioWays = 1;
    CacheModel c(cfg);
    auto flush = [&](Addr pa) {
        return c.flushSpan(pa, cacheLineSize).writebackBytes;
    };
    c.cpuAccess(0x4000, 1, /*is_write=*/true);
    EXPECT_EQ(flush(0x4000), cacheLineSize); // dirty
    EXPECT_EQ(flush(0x4000), 0u);            // gone
    c.cpuAccess(0x5000, 1, /*is_write=*/false);
    EXPECT_EQ(flush(0x5000), 0u); // clean
    EXPECT_FALSE(c.probe(0x5000));
}

TEST(Cache, OccupancyFollowsOwner)
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.ways = 4;
    cfg.ddioWays = 1;
    CacheModel c(cfg);
    c.cpuAccess(0x6000, 1);
    EXPECT_EQ(c.occupancyBytes(1), cacheLineSize);
    c.cpuAccess(0x6000, 2); // same line touched by another core
    EXPECT_EQ(c.occupancyBytes(1), 0u);
    EXPECT_EQ(c.occupancyBytes(2), cacheLineSize);
}

TEST(MemSystem, PaCodec)
{
    EXPECT_EQ(MemSystem::paNode(MemSystem::makePa(2, 0x1234)), 2);
    EXPECT_EQ(MemSystem::paOffset(MemSystem::makePa(2, 0x1234)),
              0x1234u);
    EXPECT_NE(MemSystem::makePa(0, 0), 0u); // PA 0 stays invalid
}

TEST(MemSystem, NodeSelection)
{
    Simulation sim;
    MemSystem ms(sim, smallConfig());
    int local = ms.nodeIdFor(MemKind::DramLocal, 0);
    int remote = ms.nodeIdFor(MemKind::DramRemote, 0);
    int cxl = ms.nodeIdFor(MemKind::Cxl, 0);
    EXPECT_NE(local, remote);
    EXPECT_NE(local, cxl);
    EXPECT_EQ(ms.node(local).config.socket, 0);
    EXPECT_EQ(ms.node(remote).config.socket, 1);
    EXPECT_EQ(ms.node(cxl).config.kind, MemKind::Cxl);
    // From socket 1's view, the roles flip.
    EXPECT_EQ(ms.nodeIdFor(MemKind::DramLocal, 1), remote);
    EXPECT_EQ(ms.nodeIdFor(MemKind::DramRemote, 1), local);
}

TEST(MemSystem, RemoteLatencyIncludesUpi)
{
    Simulation sim;
    auto cfg = smallConfig();
    MemSystem ms(sim, cfg);
    int local = ms.nodeIdFor(MemKind::DramLocal, 0);
    int remote = ms.nodeIdFor(MemKind::DramRemote, 0);
    EXPECT_EQ(ms.readLatencyOf(remote, 0),
              ms.readLatencyOf(local, 0) + cfg.upiLatency);
}

TEST(AddressSpace, AllocReadWrite)
{
    Simulation sim;
    MemSystem ms(sim, smallConfig());
    AddressSpace &as = ms.createSpace();
    Addr va = as.alloc(100000);
    std::vector<std::uint8_t> data(100000);
    Rng rng(5);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next32());
    as.write(va, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    as.read(va, back.data(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_TRUE(as.equal(va, va, data.size()));
}

TEST(AddressSpace, HugePagesReduceMappingCount)
{
    Simulation sim;
    MemSystem ms(sim, smallConfig());
    AddressSpace &a4k = ms.createSpace();
    AddressSpace &a2m = ms.createSpace();
    a4k.alloc(8 << 20, MemKind::DramLocal, PageSize::Size4K);
    a2m.alloc(8 << 20, MemKind::DramLocal, PageSize::Size2M);
    EXPECT_EQ(a4k.pageTable().mappingCount(), 2048u);
    EXPECT_EQ(a2m.pageTable().mappingCount(), 4u);
}

TEST(AddressSpace, TiersAreDistinctNodes)
{
    Simulation sim;
    MemSystem ms(sim, smallConfig());
    AddressSpace &as = ms.createSpace();
    Addr va_local = as.alloc(4096, MemKind::DramLocal);
    Addr va_cxl = as.alloc(4096, MemKind::Cxl);
    EXPECT_NE(MemSystem::paNode(as.translate(va_local)),
              MemSystem::paNode(as.translate(va_cxl)));
}

TEST(AddressSpace, GuardPagesBetweenRegions)
{
    Simulation sim;
    MemSystem ms(sim, smallConfig());
    AddressSpace &as = ms.createSpace();
    Addr a = as.alloc(4096);
    Addr b = as.alloc(4096);
    EXPECT_GE(b, a + 2 * 4096); // hole between the regions
    EXPECT_FALSE(as.pageTable().lookup(a + 4096).has_value());
}


TEST(MemSystemDeathTest, NodeCapacityExhaustion)
{
    Simulation sim;
    auto cfg = smallConfig();
    cfg.nodes[0].capacityBytes = 1 << 20; // 1 MB local node
    MemSystem ms(sim, cfg);
    AddressSpace &as = ms.createSpace();
    as.alloc(512 << 10);
    EXPECT_DEATH(as.alloc(768 << 10), "out of physical memory");
}

TEST(Cache, FlushRangeDropsEveryLine)
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.ways = 4;
    cfg.ddioWays = 1;
    CacheModel c(cfg);
    for (Addr a = 0x1000; a < 0x3000; a += cacheLineSize)
        c.cpuAccess(a, 1, true);
    EXPECT_GT(c.occupancyBytes(1), 0u);
    c.evictSpan(0x1000, 0x2000);
    EXPECT_EQ(c.occupancyBytes(1), 0u);
    EXPECT_FALSE(c.probe(0x1040));
}

TEST(Cache, InvalidateAllIsEpochCheap)
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 1 << 20;
    cfg.ways = 8;
    cfg.ddioWays = 2;
    CacheModel c(cfg);
    for (Addr a = 0; a < (1 << 19); a += cacheLineSize)
        c.cpuAccess(a, 3, false);
    EXPECT_GT(c.totalOccupancyBytes(), 0u);
    c.invalidateAll();
    EXPECT_EQ(c.totalOccupancyBytes(), 0u);
    EXPECT_FALSE(c.probe(0));
    // Lines allocate cleanly again after the epoch bump.
    auto r = c.cpuAccess(0, 3, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.probe(0));
}

TEST(MemSystem, PageSpanCoversWholePage)
{
    Simulation sim;
    MemSystem ms(sim, smallConfig());
    AddressSpace &as = ms.createSpace();
    Addr va = as.alloc(8192);
    Addr pa = as.translate(va);
    std::uint8_t *p = ms.pageSpan(pa, 4096);
    ASSERT_NE(p, nullptr);
    p[5] = 0xd7;
    EXPECT_EQ(as.byteAt(va + 5), 0xd7);
}

TEST(Iommu, HitMissFaultPaths)
{
    IommuConfig icfg;
    Iommu iommu(icfg);
    PageTable pt;
    pt.map(0x10000, 0xa0000, 0x1000);
    // The page holding va as a walk hands it to the IOMMU.
    const auto pageAt = [&pt](Addr va) {
        PageTable::PageRun run;
        EXPECT_FALSE(pt.walk(va, 1, [&run](const PageTable::PageRun &pg) {
            run = pg;
            return true;
        }));
        return run;
    };

    // First access: page walk.
    auto r1 = iommu.translate(pt, 1, pageAt(0x10100), true);
    EXPECT_TRUE(r1.ok);
    EXPECT_FALSE(r1.faulted);
    EXPECT_EQ(r1.pa, 0xa0100u);
    EXPECT_EQ(r1.latency, icfg.pageWalkLatency);

    // Second access: IOTLB hit.
    auto r2 = iommu.translate(pt, 1, pageAt(0x10200), true);
    EXPECT_TRUE(r2.ok);
    EXPECT_EQ(r2.latency, icfg.iotlbHitLatency);

    // Paged-out page, block-on-fault: resolved by the OS.
    pt.setPresent(0x10000, false);
    auto r3 = iommu.translate(pt, 1, pageAt(0x10300), true);
    EXPECT_TRUE(r3.ok);
    EXPECT_TRUE(r3.faulted);
    EXPECT_GE(r3.latency, icfg.faultServiceLatency);
    EXPECT_TRUE(pt.lookup(0x10000)->present);

    // Paged-out page, no block-on-fault: reported, not resolved.
    pt.setPresent(0x10000, false);
    auto r4 = iommu.translate(pt, 1, pageAt(0x10300), false);
    EXPECT_FALSE(r4.ok);
    EXPECT_TRUE(r4.faulted);
    EXPECT_FALSE(pt.lookup(0x10000)->present);

    // Unmapped VA: the walk stops there and never reaches the IOMMU;
    // the engine reports it as an unresolvable fault, which
    // DsaFaults.UnmappedTailFaultsEitherWay in test_dsa covers.
    EXPECT_EQ(pt.walk(0x99999, 1, [](const PageTable::PageRun &) {
        return true;
    }),
              std::optional<Addr>{0x99999});
}

TEST(MemSystem, OccupyTracksUpiForRemote)
{
    Simulation sim;
    MemSystem ms(sim, smallConfig());
    int remote = ms.nodeIdFor(MemKind::DramRemote, 0);
    std::uint64_t before = ms.upiLink().bytesServed();
    ms.occupyRead(remote, 0, 4096);
    EXPECT_EQ(ms.upiLink().bytesServed(), before + 4096);
    int local = ms.nodeIdFor(MemKind::DramLocal, 0);
    ms.occupyRead(local, 0, 4096);
    EXPECT_EQ(ms.upiLink().bytesServed(), before + 4096); // unchanged
}

} // namespace
} // namespace dsasim
