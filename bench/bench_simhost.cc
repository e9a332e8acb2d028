/**
 * @file
 * Host-side performance of the simulator itself: event-queue
 * throughput, cache-model access rate, LLC directory build time,
 * per-line LLC walk cost (CPU stream, random CPU access on a dense
 * and on a sparse directory, device probe span), translation cost
 * (random lookups over many regions, translation-cache
 * miss-evict-insert cycles and random hits, one large alloc),
 * platform set-up and teardown with 96 MiB of seeded memory,
 * functional operation speed
 * (with the CRC arms the host selected, and 1 MiB span copies over
 * a working set larger than a typical host L3), and end-to-end
 * simulated-descriptor rate. These numbers bound how much simulated
 * work the figure benches can afford; they are about dsasim, not
 * about DSA. Each is the best rate of three timed loops.
 *
 * Usage:
 *   bench_simhost [--json=PATH]
 *
 * Prints the rates as a JSON object (--json also writes it to PATH).
 * Every key is Info: the rates are compared only against a reference
 * build timed on the same host.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "mem/tlb.hh"
#include "sim/random.hh"
#include "ops/crc32.hh"
#include "ops/crc32_arms.hh"
#include "ops/delta.hh"

namespace
{

using namespace dsasim;
using bench::Gate;

/// @name Host-rate loops.
/// @{

/// Each loop stores its result here so it is not optimized away.
std::atomic<std::uint64_t> sink{0};

template <typename T>
void
keep(T v)
{
    sink.store(static_cast<std::uint64_t>(v), std::memory_order_relaxed);
}

/** Scheduled callbacks per host second through a fresh Simulation. */
double
eventQueueRate()
{
    const int n = 10000;
    return bench::bestRate(n, [] {
        Simulation sim;
        int fired = 0;
        for (int i = 0; i < n; ++i)
            sim.scheduleAt(static_cast<Tick>(i), [&fired] { ++fired; });
        sim.run();
        keep(fired);
    });
}

/** Random CPU-side line accesses per host second on an 8 MiB LLC. */
double
cacheAccessRate()
{
    CacheModel::Config cfg;
    cfg.sizeBytes = 8 << 20;
    cfg.ways = 8;
    cfg.ddioWays = 2;
    CacheModel c(cfg);
    Rng rng(1);
    const int n = 100000;
    return bench::bestRate(n, [&] {
        for (int i = 0; i < n; ++i) {
            Addr a = rng.range(0, (64 << 20) / 64 - 1) * 64;
            keep(c.cpuAccess(a, 1, false).hit);
        }
    });
}

/** Host ms to construct and destroy one SPR 105 MB LLC directory. */
double
llcBuildMs()
{
    return 1e3 / bench::bestRate(1, [] {
               CacheModel c{CacheModel::Config{}};
               keep(c.numSets());
           });
}

/// @name Per-layer LLC walks on the SPR 105 MB directory, pre-filled
/// with dirty lines so every miss evicts.
/// @{

CacheModel
dirtySprLlc()
{
    CacheModel c{CacheModel::Config{}};
    std::vector<Addr> victims;
    c.cpuAccessSpan(0, c.sizeBytes(), 0, true, victims);
    return c;
}

/** A random line of the 32 MiB region at @p base. */
Addr
randomLine(Rng &rng, Addr base)
{
    return base + rng.range(0, (32 << 20) / 64 - 1) * 64;
}

/**
 * Host ns per line of 4 KiB cpuAccessSpan writes streaming over
 * 32 MiB, each span followed by 8 random reads (cpu-pollution's mix
 * of copiers and probes); only the span calls are timed.
 */
double
llcStreamNs()
{
    CacheModel c = dirtySprLlc();
    Rng rng(2);
    std::vector<Addr> victims;
    const Addr stream = 1ull << 30, probes = 2ull << 30;
    const std::uint64_t pages = (32 << 20) / 4096;
    double best = 1e30;
    for (int trial = 0; trial < 3; ++trial) {
        double secs = 0;
        for (std::uint64_t p = 0; p < pages; ++p) {
            victims.clear();
            const auto t0 = bench::Clock::now();
            keep(c.cpuAccessSpan(stream + p * 4096, 4096, 1, true,
                                 victims)
                     .hits);
            secs += bench::secondsSince(t0);
            for (int i = 0; i < 8; ++i)
                keep(c.cpuAccess(randomLine(rng, probes), 2, false).hit);
        }
        best = std::min(best, secs * 1e9 / (pages * 64.0));
    }
    return best;
}

/** Host ns per random cpuAccess read over 32 MiB. */
double
llcRandomNs()
{
    CacheModel c = dirtySprLlc();
    Rng rng(3);
    const Addr base = 3ull << 30;
    const int n = 100000;
    return 1e9 / bench::bestRate(n, [&] {
               for (int i = 0; i < n; ++i)
                   keep(c.cpuAccess(randomLine(rng, base), 2, false).hit);
           });
}

/**
 * Host ns per random cpuAccess read on an SPR directory that never
 * becomes fully live, serving-overload's shape: only the first 60% of
 * its sets are ever used (dirty-full), so it stays on 4 KiB pages,
 * where llcRandomNs() times one that has collapsed onto 2 MiB pages.
 * The reads cover 5 lines of every used set (~20 MiB).
 */
double
llcRandomSparseNs()
{
    CacheModel c{CacheModel::Config{}};
    const std::uint64_t rev = std::uint64_t{c.numSets()} * 64;
    const std::uint64_t used = c.numSets() * 6ull / 10;
    std::vector<Addr> victims;
    for (unsigned w = 0; w < c.numWays(); ++w)
        c.cpuAccessSpan(w * rev, used * 64, 0, true, victims);
    Rng rng(3);
    const Addr base = 64 * rev;
    const int n = 100000;
    return 1e9 / bench::bestRate(n, [&] {
               for (int i = 0; i < n; ++i) {
                   const Addr a = base + rng.range(0, 4) * rev +
                                  rng.range(0, used - 1) * 64;
                   keep(c.cpuAccess(a, 2, false).hit);
               }
           });
}

/**
 * Host ns per line of probeSpan over a 1 MiB DDIO-filled buffer in
 * 4 KiB segments, one page in eight evicted (mostly resident).
 */
double
llcProbeSpanNs()
{
    CacheModel c = dirtySprLlc();
    const Addr base = 4ull << 30;
    const std::uint64_t bytes = 1 << 20;
    c.fillSpan(base, bytes, 1000);
    for (Addr p = 0; p < bytes; p += 8 * 4096)
        c.evictSpan(base + p, 4096);
    return 1e9 / bench::bestRate(bytes / 64.0, [&] {
               for (Addr p = 0; p < bytes; p += 4096)
                   keep(c.probeSpan(base + p, 4096).hitBytes);
           });
}
/// @}

/// @name Translation: page-table lookups and mapping set-up.
/// @{

/** A memory system with one 2 GiB local DRAM node and a 1 MiB LLC. */
MemSystemConfig
xlateMemConfig()
{
    MemSystemConfig cfg;
    MemNodeConfig local;
    local.kind = MemKind::DramLocal;
    local.capacityBytes = 2ull << 30;
    cfg.nodes = {local};
    cfg.llc.sizeBytes = 1 << 20;
    cfg.llc.ways = 8;
    cfg.llc.ddioWays = 2;
    return cfg;
}

/**
 * Host ns per translate() at a random VA of 1344 16 KiB regions in
 * one space, as many as offload-ring's 448 slots x 3 allocations.
 */
double
xlateRandomNs()
{
    Simulation sim;
    MemSystem ms(sim, xlateMemConfig());
    AddressSpace &as = ms.createSpace();
    const std::uint32_t region = 16 << 10;
    std::vector<Addr> bases(1344);
    for (Addr &b : bases)
        b = as.alloc(region);
    Rng rng(4);
    std::vector<Addr> vas(1 << 16);
    for (Addr &va : vas)
        va = bases[rng.below(static_cast<std::uint32_t>(bases.size()))] +
             rng.below(region);
    return 1e9 / bench::bestRate(static_cast<double>(vas.size()), [&] {
               Addr acc = 0;
               for (Addr va : vas)
                   acc ^= as.translate(va);
               keep(acc);
           });
}

/**
 * Host ns per lookup plus insert on a 1024-entry TranslationCache
 * cycling over 1025 pages, so every lookup misses and every insert
 * evicts: offload-ring's ATC, whose footprint is past its reach.
 */
double
tlbThrashNs()
{
    TranslationCache tc(1024);
    const Addr pages = 1025;
    Addr next = 0;
    return 1e9 / bench::bestRate(static_cast<double>(pages), [&] {
               for (Addr i = 0; i < pages; ++i) {
                   const Addr va = (next++ % pages) << 12;
                   if (!tc.lookup(1, va))
                       tc.insert(1, va);
               }
               keep(tc.misses());
           });
}

/** Host ns per lookup hit at a random page of a full 1536-entry cache. */
double
tlbHitNs()
{
    const std::uint32_t entries = 1536;
    TranslationCache tc(entries);
    for (Addr p = 0; p < entries; ++p)
        tc.insert(1, p << 12);
    Rng rng(5);
    std::vector<Addr> vas(1 << 16);
    for (Addr &va : vas)
        va = Addr{rng.below(entries)} << 12;
    return 1e9 / bench::bestRate(static_cast<double>(vas.size()), [&] {
               std::uint64_t hits = 0;
               for (Addr va : vas)
                   hits += tc.lookup(1, va);
               keep(hits);
           });
}

/** Host ms for one 1 GiB alloc() of 4 KiB pages in a fresh space. */
double
spaceAllocMs()
{
    double best = 1e30;
    for (int trial = 0; trial < 3; ++trial) {
        Simulation sim;
        MemSystem ms(sim, xlateMemConfig());
        AddressSpace &as = ms.createSpace();
        const auto t0 = bench::Clock::now();
        keep(as.alloc(1ull << 30));
        best = std::min(best, bench::secondsSince(t0) * 1e3);
    }
    return best;
}
/// @}

/**
 * Host ms to build an SPR Platform, seed 96 MiB of one address space
 * (about what offload-ring seeds) and tear both down again.
 */
double
platformSetupMs()
{
    const std::uint64_t bytes = 96ull << 20;
    double best = 1e30;
    for (int trial = 0; trial < 3; ++trial) {
        const auto t0 = bench::Clock::now();
        {
            Simulation sim;
            Platform plat(sim, PlatformConfig::spr());
            AddressSpace &as = plat.mem().createSpace();
            const Addr va = as.alloc(bytes);
            as.fill(va, 0x5a, bytes);
            keep(as.byteAt(va + bytes - 1));
        }
        best = std::min(best, bench::secondsSince(t0) * 1e3);
    }
    return best;
}

/** CRC32C GB/s over a @p bytes buffer. */
double
crc32cGbps(std::size_t bytes)
{
    std::vector<std::uint8_t> buf(bytes, 0x5a);
    return bench::bestRate(static_cast<double>(bytes), [&] {
               keep(crc32cFull(buf.data(), buf.size()));
           }) /
           1e9;
}

/**
 * AddressSpace::copy GB/s in 1 MiB calls cycling over a 64 MiB
 * working set (32 MiB each way), larger than a typical host L3, so
 * the copies run from and to host memory.
 */
double
spanCopy1mGbps()
{
    Simulation sim;
    MemSystem ms(sim, xlateMemConfig());
    AddressSpace &as = ms.createSpace();
    const std::uint64_t call = 1 << 20, half = 32ull << 20;
    const Addr src = as.alloc(half);
    const Addr dst = as.alloc(half);
    as.fill(src, 0x5a, half);
    as.fill(dst, 0, half);
    std::uint64_t next = 0;
    return bench::bestRate(static_cast<double>(call), [&] {
               const std::uint64_t off = next++ % (half / call) * call;
               as.copy(dst + off, src + off, call);
           }) /
           1e9;
}

/** CRC-16 T10 GB/s over 512 B DIF blocks, one call per block. */
double
crc16T10BlockGbps()
{
    const std::size_t block = 512, nblocks = 1024;
    std::vector<std::uint8_t> buf(block * nblocks, 0x5a);
    return bench::bestRate(static_cast<double>(buf.size()), [&] {
               std::uint16_t acc = 0;
               for (std::size_t b = 0; b < nblocks; ++b)
                   acc ^= crc16T10(buf.data() + b * block, block);
               keep(acc);
           }) /
           1e9;
}

/** Delta-record creation GB/s over 64 KiB with one diff per 512 B. */
double
deltaCreateGbps()
{
    std::vector<std::uint8_t> a(65536, 1), b(65536, 1);
    for (std::size_t i = 0; i < b.size(); i += 512)
        b[i] = 2;
    return bench::bestRate(static_cast<double>(a.size()), [&] {
               auto r = deltaCreate(a.data(), b.data(), a.size(),
                                    2 * a.size());
               keep(r.record.size());
           }) /
           1e9;
}

/**
 * Simulated synchronous 4 KiB copies per host second, end to end
 * through the executor and device; rig construction is not timed.
 */
double
simulatedDescriptorRate()
{
    const std::uint64_t n = 4096;
    const int iters = 64;
    double best = 0;
    for (int trial = 0; trial < 3; ++trial) {
        bench::Rig rig{bench::Rig::Options{}};
        Addr src = rig.as->alloc(n * iters);
        Addr dst = rig.as->alloc(n * iters);
        const auto t0 = bench::Clock::now();
        bench::Measure m = bench::syncHw(
            rig, dml::Executor::memMove(*rig.as, dst, src, n), iters,
            false);
        keep(m.gbps);
        best = std::max(best, iters / bench::secondsSince(t0));
    }
    return best;
}

/// @}

} // namespace

int
main(int argc, char **argv)
{
    Gate gate("simhost");
    for (int i = 1; i < argc; ++i) {
        if (!gate.parseArg(argv[i])) {
            std::fprintf(stderr, "usage: bench_simhost [--json=PATH]\n");
            return 2;
        }
    }
    gate.add(Gate::Info, "event_queue_events_per_sec", eventQueueRate());
    gate.add(Gate::Info, "cache_accesses_per_sec", cacheAccessRate());
    gate.add(Gate::Info, "llc_build_ms", llcBuildMs(), 3);
    gate.add(Gate::Info, "llc_stream_ns", llcStreamNs(), 2);
    gate.add(Gate::Info, "llc_random_ns", llcRandomNs(), 2);
    gate.add(Gate::Info, "llc_random_sparse_ns", llcRandomSparseNs(), 2);
    gate.add(Gate::Info, "llc_probe_span_ns", llcProbeSpanNs(), 2);
    gate.add(Gate::Info, "xlate_random_ns", xlateRandomNs(), 2);
    gate.add(Gate::Info, "tlb_thrash_ns", tlbThrashNs(), 2);
    gate.add(Gate::Info, "tlb_hit_ns", tlbHitNs(), 2);
    gate.add(Gate::Info, "space_alloc_ms", spaceAllocMs(), 6);
    gate.add(Gate::Info, "platform_setup_ms", platformSetupMs(), 3);
    gate.add(Gate::Info, "crc32c_4k_gbps", crc32cGbps(4096), 3);
    gate.add(Gate::Info, "crc32c_64k_gbps", crc32cGbps(65536), 3);
    gate.add(Gate::Info, "crc32c_1m_gbps", crc32cGbps(1 << 20), 3);
    gate.add(Gate::Info, "crc16t10_512_gbps", crc16T10BlockGbps(), 3);
    gate.add(Gate::Info, "span_copy_1m_gbps", spanCopy1mGbps(), 3);
    gate.add(Gate::Info, "crc_arm",
             std::string("crc32c=") + crc_arms::crc32cSelected().name +
                 " crc16t10=" + crc_arms::crc16T10Selected().name);
    gate.add(Gate::Info, "delta_create_gbps", deltaCreateGbps(), 3);
    gate.add(Gate::Info, "sim_desc_per_sec", simulatedDescriptorRate());
    return gate.finish();
}
