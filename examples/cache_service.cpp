/**
 * @file
 * Example: a cloud caching service with transparent DSA offload.
 *
 * The MiniCache app (CacheLib-style) serves get/set traffic; the
 * memcpy() calls it makes are interposed by DTO, which pushes copies
 * of 8 KB and above to DSA — no cache-service code changes, exactly
 * the deployment story of the paper's Appendix B.
 *
 * Build & run:  ./build/examples/cache_service
 */

#include <cstdio>

#include "apps/minicache.hh"
#include "sim/random.hh"

using namespace dsasim;

namespace
{

SimTask
trafficThread(Platform &plat, AddressSpace &as,
              apps::MiniCache &cache, int core_id, int ops,
              Histogram &lat, Latch &done)
{
    Core &core = plat.core(static_cast<std::size_t>(core_id));
    Rng rng(40 + static_cast<std::uint64_t>(core_id));
    Addr scratch = as.alloc(1 << 20);
    for (int i = 0; i < ops; ++i) {
        std::uint64_t key = rng.range(0, 2047);
        std::uint64_t len =
            rng.chance(0.05) ? rng.range(8192, 262144)
                             : rng.range(128, 4096);
        Tick t0 = plat.sim().now();
        if (rng.chance(0.2)) {
            co_await cache.set(core, key, scratch, len);
        } else {
            std::uint64_t got = 0;
            bool hit = false;
            co_await cache.get(core, key, scratch, got, hit);
            if (!hit)
                co_await cache.set(core, key, scratch, len);
        }
        lat.add(toUs(plat.sim().now() - t0));
    }
    done.arrive();
}

} // namespace

int
main()
{
    for (bool use_dsa : {false, true}) {
        Simulation sim;
        Platform plat(sim, PlatformConfig::spr());
        AddressSpace &as = plat.mem().createSpace();

        // One shared WQ per DSA instance (ENQCMD from any thread).
        std::vector<DsaDevice *> devs;
        for (std::size_t d = 0; d < plat.dsaCount(); ++d) {
            DsaTopology::basic(16, 1, WorkQueue::Mode::Shared)
                .apply(plat.dsa(d));
            devs.push_back(&plat.dsa(d));
        }
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        dml::Executor exec(sim, plat.mem(), plat.kernels(), devs,
                           ec);
        Dto::Config dc;
        dc.threshold = use_dsa ? 8192 : ~std::uint64_t(0);
        Dto dto(exec, dc);

        apps::MiniCache cache(plat, as, dto, {});

        const int threads = 6, ops = 4000;
        Histogram lat;
        Latch done(sim, threads);
        for (int t = 0; t < threads; ++t)
            trafficThread(plat, as, cache, t, ops, lat, done);
        sim.run();

        std::printf("%s: %6.0f Kops/s | p50 %5.1f us | p99 %6.1f us "
                    "| p99.9 %6.1f us | %llu items, %llu evictions, "
                    "%.1f%% of copied bytes offloaded\n",
                    use_dsa ? "DTO->DSA " : "software ",
                    static_cast<double>(lat.count()) /
                        toUs(sim.now()) * 1000.0,
                    lat.percentile(50), lat.percentile(99),
                    lat.percentile(99.9),
                    static_cast<unsigned long long>(
                        cache.itemCount()),
                    static_cast<unsigned long long>(
                        cache.evictions()),
                    100.0 *
                        static_cast<double>(dto.bytesOffloaded) /
                        static_cast<double>(
                            std::max<std::uint64_t>(
                                1, dto.bytesOffloaded +
                                       dto.bytesOnCpu)));
    }
    return 0;
}
