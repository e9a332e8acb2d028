/**
 * @file
 * Example: a virtual switch forwarding packets into a VM, with the
 * packet-copy stage offloaded to DSA — the paper's §6.4 case study
 * condensed into a runnable scenario.
 *
 * Demonstrates the guidelines in action:
 *   G1 - one batch descriptor per 32-packet burst
 *   G2 - three-stage asynchronous pipeline
 *   G3 - cache-control hint keeps payloads in LLC for the guest
 *   G6 - a dedicated WQ bound to the forwarding core
 *
 * Build & run:  ./build/examples/vhost_switch
 */

#include <cstdio>

#include "apps/vhost.hh"
#include "dml/dml.hh"

using namespace dsasim;

namespace
{

void
runMode(bool use_dsa, std::uint32_t pkt_bytes)
{
    Simulation sim;
    Platform plat(sim, PlatformConfig::spr());
    AddressSpace &as = plat.mem().createSpace();

    DsaTopology::basic(32, /*engines=*/2).apply(plat.dsa(0));
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    dml::Executor exec(sim, plat.mem(), plat.kernels(),
                       {&plat.dsa(0)}, ec);

    apps::Virtqueue vq(1024);
    apps::VhostSwitch::Config cfg;
    cfg.useDsa = use_dsa;
    cfg.packetBytes = pkt_bytes;
    apps::VhostSwitch host(plat, as, plat.core(0), &exec, vq, cfg);
    apps::GuestDriver guest(plat, as, plat.core(1), vq, 2048, 512);

    const Tick horizon = fromUs(1000);
    host.run(horizon);
    guest.run(horizon);
    sim.runUntil(horizon);

    double mpps = static_cast<double>(host.packetsForwarded()) /
                  toUs(sim.now());
    std::printf("  %-4s  %4uB packets: %6.2f Mpps, %llu delivered, "
                "%llu out-of-order, %llu corrupt\n",
                use_dsa ? "DSA" : "CPU", pkt_bytes, mpps,
                static_cast<unsigned long long>(guest.received()),
                static_cast<unsigned long long>(
                    guest.orderViolations()),
                static_cast<unsigned long long>(
                    guest.payloadErrors()));
}

} // namespace

int
main()
{
    std::printf("Vhost packet forwarding, CPU copies vs DSA "
                "offload:\n");
    for (std::uint32_t bytes : {256u, 1024u, 1518u}) {
        runMode(false, bytes);
        runMode(true, bytes);
    }
    return 0;
}
