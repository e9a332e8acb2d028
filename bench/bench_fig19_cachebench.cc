/**
 * @file
 * Figure 19: CacheBench-style driving of the MiniCache with DTO
 * transparent offload.
 *
 * Value sizes follow the paper's deployment profile: ~4.8% of
 * copies are >= 8 KB but they carry the overwhelming share of the
 * bytes, so offloading just those through DTO's 8 KB threshold moves
 * almost all copied data to DSA. Reported: get/set operation rate
 * and tail latency per thread configuration (one hardware core per
 * software thread), with gains flattening once the four shared WQs
 * saturate.
 */

#include <cmath>

#include "apps/minicache.hh"
#include "bench/common.hh"
#include "sim/random.hh"

namespace dsasim::bench
{
namespace
{

/** ~95.2% small values (256B-4KB), ~4.8% large (8KB-2MB). */
std::uint64_t
valueSize(Rng &rng)
{
    double f = rng.uniform();
    double lg = rng.chance(0.048) ? 13.0 + f * 8.0  // 8KB..2MB
                                  : 8.0 + f * 4.0;  // 256B..4KB
    auto v = static_cast<std::uint64_t>(std::pow(2.0, lg));
    return std::min<std::uint64_t>(v, 2u << 20);
}

struct Stats
{
    double mops = 0;  ///< million cache ops per second
    double p99Us = 0;
    double p9999Us = 0;
    double offloadedByteShare = 0;
};

SimTask
worker(Platform &plat, AddressSpace &as, apps::MiniCache &cache,
       int core_id, std::uint64_t keys, int ops, Histogram &lat,
       Latch &done, std::uint64_t seed)
{
    Core &core = plat.core(static_cast<std::size_t>(core_id));
    Simulation &sim = plat.sim();
    Rng rng(seed);
    Addr scratch = as.alloc(2 << 20);
    for (int i = 0; i < ops; ++i) {
        std::uint64_t key = rng.range(0, keys - 1);
        Tick t0 = sim.now();
        if (rng.chance(0.1)) {
            co_await cache.set(core, key, scratch, valueSize(rng));
        } else {
            std::uint64_t len = 0;
            bool hit = false;
            co_await cache.get(core, key, scratch, len, hit);
            if (!hit)
                co_await cache.set(core, key, scratch,
                                   valueSize(rng));
        }
        lat.add(toUs(sim.now() - t0));
    }
    done.arrive();
}

Stats
run(unsigned threads, bool use_dsa, int ops_per_thread)
{
    // Four shared WQs (the paper's deployment): one SWQ + one
    // engine on each of the socket's four DSA instances.
    Rig::Options o;
    o.devices = 4;
    o.wqSize = 16;
    o.engines = 1;
    o.wqMode = WorkQueue::Mode::Shared;
    Rig rig(o);

    Dto::Config dc;
    dc.threshold = use_dsa ? 8192 : ~std::uint64_t(0);
    Dto dto(*rig.exec, dc);
    apps::MiniCache::Config cc;
    cc.capacityBytes = 4ull << 30;
    apps::MiniCache cache(rig.plat, *rig.as, dto, cc);

    // Enough keys that the hot set dwarfs the LLC: copies run cold,
    // as in the paper's 64 GB cloud cache.
    const std::uint64_t keys = 16384;

    // Warm-up: populate phase (timed into a discarded histogram).
    Histogram warm;
    Latch warmed(rig.sim, 1);
    worker(rig.plat, *rig.as, cache, 0, keys, static_cast<int>(keys),
           warm, warmed, 1);
    rig.sim.run();

    Histogram lat;
    Latch done(rig.sim, threads);
    Tick t0 = rig.sim.now();
    for (unsigned t = 0; t < threads; ++t) {
        worker(rig.plat, *rig.as, cache, static_cast<int>(t), keys,
               ops_per_thread, lat, done, 100 + t);
    }
    rig.sim.run();
    Tick elapsed = rig.sim.now() - t0;

    Stats s;
    s.mops = static_cast<double>(lat.count()) / toUs(elapsed);
    s.p99Us = lat.percentile(99.0);
    s.p9999Us = lat.percentile(99.99);
    std::uint64_t total_bytes = dto.bytesOffloaded + dto.bytesOnCpu;
    s.offloadedByteShare =
        total_bytes ? 100.0 * static_cast<double>(dto.bytesOffloaded) /
                          static_cast<double>(total_bytes)
                    : 0.0;
    return s;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<unsigned> threads = {2, 4, 8, 12, 16};
    const int ops = 6000;

    Table tbl("Fig 19: CacheBench ops rate and tail latency "
              "(#cores = #threads, 4 shared WQs)",
              {"threads", "sw Mops", "dsa Mops", "rate x",
               "sw p99 us", "dsa p99 us", "sw p99.99", "dsa p99.99",
               "offloaded bytes %"});

    // One rig per (threads, sw/dsa) point: software on even
    // points, DSA on odd ones.
    SweepRunner sweep;
    auto stats = sweep.run(2 * threads.size(), [&](std::size_t i) {
        return run(threads[i / 2], i % 2 == 1, ops);
    });
    for (std::size_t t = 0; t < threads.size(); ++t) {
        const Stats &sw = stats[2 * t];
        const Stats &hw = stats[2 * t + 1];
        tbl.addRow({std::to_string(threads[t]), fmt(sw.mops, 3),
                    fmt(hw.mops, 3), fmt(hw.mops / sw.mops),
                    fmt(sw.p99Us, 1), fmt(hw.p99Us, 1),
                    fmt(sw.p9999Us, 1), fmt(hw.p9999Us, 1),
                    fmt(hw.offloadedByteShare, 1)});
    }
    tbl.print();
    return 0;
}
