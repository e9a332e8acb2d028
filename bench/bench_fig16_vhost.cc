/**
 * @file
 * Figure 16b: DPDK-Vhost packet forwarding rate with and without DSA
 * acceleration, over packet sizes.
 *
 * Paper shape: the CPU forwarding rate drops as packets grow (copy
 * cycles dominate — ~30% of cycles at 512 B, 50+% above 1 KB); with
 * DSA the rate stays nearly flat, a 1.14-2.29x improvement for
 * packets of 256 B and larger. The bench also verifies in-order,
 * uncorrupted delivery through the reorder array.
 */

#include "apps/vhost.hh"
#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

struct Result
{
    double mpps = 0;
    std::uint64_t misordered = 0;
    std::uint64_t corrupt = 0;
};

/** One copy group of two PEs on one device. */
Rig::Options
vhostRig()
{
    Rig::Options o;
    o.devices = 1;
    // A group with two PEs: 512B-class descriptors are gap-bound on
    // one PE, and vhost deployments give the copy group >= 2 engines.
    o.engines = 2;
    return o;
}

Result
run(bool use_dsa, std::uint32_t pkt_bytes)
{
    Rig rig(vhostRig());
    const Tick horizon = fromUs(1500);
    apps::Virtqueue vq(1024);
    apps::VhostSwitch::Config cfg;
    cfg.useDsa = use_dsa;
    cfg.packetBytes = pkt_bytes;
    apps::VhostSwitch host(rig.plat, *rig.as, rig.plat.core(0),
                           rig.exec.get(), vq, cfg);
    apps::GuestDriver guest(rig.plat, *rig.as, rig.plat.core(1), vq,
                            2048, 512);
    host.run(horizon);
    guest.run(horizon);

    // Warm-up: bring the virtqueue pipeline to steady state before
    // the measured window opens.
    rig.sim.runUntil(fromUs(300));

    std::uint64_t pkts0 = host.packetsForwarded();
    Tick t0 = rig.sim.now();
    rig.plat.core(0).resetAccounting();
    rig.sim.runUntil(horizon);

    Result res;
    res.mpps = static_cast<double>(host.packetsForwarded() - pkts0) /
               toUs(rig.sim.now() - t0);
    res.misordered = guest.orderViolations();
    res.corrupt = guest.payloadErrors();
    return res;
}

struct LatResult
{
    double p50 = 0, p99 = 0, p999 = 0;
    std::uint64_t drops = 0;
};

LatResult
runLatency(bool use_dsa, std::uint32_t pkt_bytes, double mpps)
{
    Rig rig(vhostRig());
    const Tick horizon = fromUs(2500);
    apps::Virtqueue vq(1024);
    apps::VhostSwitch::Config cfg;
    cfg.useDsa = use_dsa;
    cfg.packetBytes = pkt_bytes;
    cfg.offeredMpps = mpps;
    apps::VhostSwitch host(rig.plat, *rig.as, rig.plat.core(0),
                           rig.exec.get(), vq, cfg);
    apps::GuestDriver guest(rig.plat, *rig.as, rig.plat.core(1), vq,
                            2048, 512);
    host.run(horizon);
    guest.run(horizon);

    // Warm caches/TLBs first; measure steady-state latency only.
    rig.sim.runUntil(fromUs(500));
    host.latencyHistogram().reset();

    rig.sim.runUntil(horizon);
    LatResult r;
    r.p50 = host.latencyHistogram().percentile(50);
    r.p99 = host.latencyHistogram().percentile(99);
    r.p999 = host.latencyHistogram().percentile(99.9);
    r.drops = host.drops();
    return r;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint32_t> pkt_sizes = {64,  128, 256,
                                                  512, 1024, 1518};

    Table tbl("Fig 16b: Vhost forwarding rate (Mpps)",
              {"packet", "CPU", "DSA", "speedup", "order-errs",
               "payload-errs"});

    // One rig per (packet size, CPU/DSA) point: CPU on even points,
    // DSA on odd ones.
    SweepRunner sweep;
    auto rates = sweep.run(2 * pkt_sizes.size(), [&](std::size_t i) {
        return run(i % 2 == 1, pkt_sizes[i / 2]);
    });
    for (std::size_t k = 0; k < pkt_sizes.size(); ++k) {
        const Result &cpu = rates[2 * k];
        const Result &dsa = rates[2 * k + 1];
        tbl.addRow({std::to_string(pkt_sizes[k]) + "B", fmt(cpu.mpps),
                    fmt(dsa.mpps), fmt(dsa.mpps / cpu.mpps),
                    std::to_string(dsa.misordered),
                    std::to_string(dsa.corrupt)});
    }
    tbl.print();

    // The §6.4 tail-latency claim: at a fixed offered load near the
    // CPU path's knee, DSA offload lowers the tail.
    Table lat("Vhost per-packet latency at offered load (us)",
              {"packet", "load Mpps", "CPU p50/p99/p99.9",
               "DSA p50/p99/p99.9", "CPU drops", "DSA drops"});
    struct Load
    {
        std::uint32_t packet;
        double mpps;
    };
    const std::vector<Load> loads = {{512, 5.0}, {1518, 4.5}};
    auto tails = sweep.run(2 * loads.size(), [&](std::size_t i) {
        const Load &l = loads[i / 2];
        return runLatency(i % 2 == 1, l.packet, l.mpps);
    });
    for (std::size_t k = 0; k < loads.size(); ++k) {
        const LatResult &c = tails[2 * k];
        const LatResult &d = tails[2 * k + 1];
        lat.addRow({std::to_string(loads[k].packet) + "B",
                    fmt(loads[k].mpps, 1),
                    fmt(c.p50, 1) + "/" + fmt(c.p99, 1) + "/" +
                        fmt(c.p999, 1),
                    fmt(d.p50, 1) + "/" + fmt(d.p99, 1) + "/" +
                        fmt(d.p999, 1),
                    std::to_string(c.drops),
                    std::to_string(d.drops)});
    }
    lat.print();
    return 0;
}
