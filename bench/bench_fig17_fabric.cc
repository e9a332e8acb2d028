/**
 * @file
 * Figure 17: libfabric-based results.
 *
 *   (a) native microbenchmark: Pingpong (PP) and one-direction
 *       bandwidth/RMA throughput vs message size, CPU vs DSA.
 *   (b) OSU-style MPI benchmarks: one-direction BW and AllReduce
 *       with 2/4/8 ranks.
 *
 * Paper shape: with SAR copies offloaded to DSA, large messages
 * (>= 32 KB) run several times faster than the core-copy path,
 * growing with message size.
 */

#include "apps/fabric.hh"
#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

/** Four DSAs: libfabric spreads copies over the socket's devices. */
Rig::Options
fabricRig()
{
    Rig::Options o;
    o.devices = 4;
    return o;
}

/** Pingpong goodput (GB/s) over @p rounds round trips. */
double
pingpong(bool dsa, std::uint64_t msg, int rounds)
{
    Rig rig(fabricRig());
    apps::FabricChannel::Config cfg;
    cfg.useDsa = dsa;
    apps::FabricChannel fwd(rig.plat, *rig.as, rig.exec.get(),
                            rig.plat.core(0), rig.plat.core(1), cfg);
    apps::FabricChannel rev(rig.plat, *rig.as, rig.exec.get(),
                            rig.plat.core(1), rig.plat.core(0), cfg);
    Addr a = rig.as->alloc(msg);
    Addr b = rig.as->alloc(msg);

    double gbps = 0;
    struct Drv
    {
        static SimTask
        go(Rig &r, apps::FabricChannel &f, apps::FabricChannel &rv,
           Addr x, Addr y, std::uint64_t n, int rnds, double &out)
        {
            Tick t0 = r.sim.now();
            for (int i = 0; i < rnds; ++i) {
                co_await f.transfer(x, y, n);
                co_await rv.transfer(y, x, n);
            }
            out = achievedGBps(
                2 * static_cast<std::uint64_t>(rnds) * n,
                r.sim.now() - t0);
        }
    };
    Drv::go(rig, fwd, rev, a, b, msg, rounds, gbps);
    rig.sim.run();
    return gbps;
}

double
bandwidth(bool dsa, std::uint64_t msg, int count)
{
    Rig rig(fabricRig());
    apps::FabricChannel::Config cfg;
    cfg.useDsa = dsa;
    apps::FabricChannel ch(rig.plat, *rig.as, rig.exec.get(),
                           rig.plat.core(0), rig.plat.core(1), cfg);
    Addr a = rig.as->alloc(msg);
    Addr b = rig.as->alloc(msg);
    double gbps = 0;
    struct Drv
    {
        static SimTask
        go(Rig &r, apps::FabricChannel &c, Addr x, Addr y,
           std::uint64_t n, int cnt, double &out)
        {
            Tick t0 = r.sim.now();
            for (int i = 0; i < cnt; ++i)
                co_await c.transfer(x, y, n);
            out = achievedGBps(static_cast<std::uint64_t>(cnt) * n,
                               r.sim.now() - t0);
        }
    };
    Drv::go(rig, ch, a, b, msg, count, gbps);
    rig.sim.run();
    return gbps;
}

double
allreduceUs(bool dsa, unsigned ranks, std::uint64_t bytes)
{
    Rig rig(fabricRig());
    apps::RingAllReduce::Config cfg;
    cfg.channel.useDsa = dsa;
    apps::RingAllReduce ar(rig.plat, *rig.as, rig.exec.get(), ranks,
                           cfg);
    double us = 0;
    struct Drv
    {
        static SimTask
        go(Rig &r, apps::RingAllReduce &a, std::uint64_t n,
           double &out)
        {
            Tick t0 = r.sim.now();
            co_await a.run(n);
            out = toUs(r.sim.now() - t0);
        }
    };
    Drv::go(rig, ar, bytes, us);
    rig.sim.run();
    return us;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> msgs = {
        4 << 10, 32 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20};

    SweepRunner sweep;
    {
        Table tbl("Fig 17a: libfabric Pingpong / BW, CPU vs DSA",
                  {"message", "PP cpu GB/s", "PP dsa GB/s", "PP x",
                   "BW cpu GB/s", "BW dsa GB/s", "BW x"});
        // Four points per message: PP cpu, PP dsa, BW cpu, BW dsa.
        auto gbps = sweep.run(4 * msgs.size(), [&](std::size_t i) {
            const std::uint64_t m = msgs[i / 4];
            const int rounds = static_cast<int>(
                std::max<std::uint64_t>(4, (32ull << 20) / m / 2));
            const bool dsa = i % 2 == 1;
            return i % 4 < 2 ? pingpong(dsa, m, rounds)
                             : bandwidth(dsa, m, rounds);
        });
        for (std::size_t k = 0; k < msgs.size(); ++k) {
            const double *g = &gbps[4 * k];
            tbl.addRow({fmtSize(msgs[k]), fmt(g[0]), fmt(g[1]),
                        fmt(g[1] / g[0]), fmt(g[2]), fmt(g[3]),
                        fmt(g[3] / g[2])});
        }
        tbl.print();
    }

    {
        Table tbl("Fig 17b: AllReduce latency (us), CPU vs DSA",
                  {"message", "ranks", "cpu us", "dsa us",
                   "speedup"});
        const std::vector<unsigned> ranks = {2, 4, 8};
        const std::vector<std::uint64_t> sizes = {256 << 10, 1 << 20,
                                                  16 << 20};
        // Two points (cpu, dsa) per (ranks, message) pair.
        const std::size_t n = ranks.size() * sizes.size();
        auto us = sweep.run(2 * n, [&](std::size_t i) {
            const std::size_t k = i / 2;
            return allreduceUs(i % 2 == 1, ranks[k / sizes.size()],
                               sizes[k % sizes.size()]);
        });
        for (std::size_t k = 0; k < n; ++k) {
            const double c = us[2 * k], d = us[2 * k + 1];
            tbl.addRow({fmtSize(sizes[k % sizes.size()]),
                        std::to_string(ranks[k / sizes.size()]),
                        fmt(c, 1), fmt(d, 1), fmt(c / d)});
        }
        tbl.print();
    }
    return 0;
}
