#include "driver/cluster.hh"

#include <set>
#include <string>

#include "sim/logging.hh"

namespace dsasim
{

SocketCluster::SocketCluster(const ClusterConfig &c) : config(c)
{
    fatal_if(c.sockets == 0, "SocketCluster: zero sockets");
    doms.reserve(c.sockets);
    for (unsigned s = 0; s < c.sockets; ++s) {
        SocketDomain d;
        d.sim = std::make_unique<Simulation>();
        PlatformConfig pc = c.socket;
        pc.name += ".s" + std::to_string(s);
        d.plat = std::make_unique<Platform>(*d.sim, pc);
        set.addDomain(*d.sim, "socket " + std::to_string(s));
        doms.push_back(std::move(d));
    }
    if (c.sockets < 2)
        return;

    // Link topology: the ring's ordered pairs. A std::set gives a
    // deterministic build order (and dedupes the two-socket ring,
    // where s+1 and s-1 coincide).
    std::set<std::pair<unsigned, unsigned>> pairs;
    for (unsigned s = 0; s < c.sockets; ++s) {
        const unsigned nb = (s + 1) % c.sockets;
        pairs.insert({s, nb});
        pairs.insert({nb, s});
    }

    // The channel's declared floor is the wire latency plus the
    // serialization time of the smallest block the protocol ships
    // (ClusterConfig::lookaheadBytes) — the lookahead the epochs run
    // on.
    const Tick ser = static_cast<Tick>(
        static_cast<double>(c.lookaheadBytes) * 1000.0 / c.upiGBps +
        0.5);
    const Tick floor = c.upiLatency + ser;

    for (const auto &[a, b] : pairs)
        chans[{a, b}] = &set.connect(a, b, floor);
    for (const auto &[a, b] : pairs) {
        ports[{a, b}] = std::make_unique<RemotePort>(
            *doms[a].sim, *chans[{a, b}], c.upiGBps, c.upiLatency,
            "upi" + std::to_string(a) + "to" + std::to_string(b));
    }
    for (const auto &[a, b] : pairs) {
        RemotePort::RemoteEnd end;
        end.sim = doms[b].sim.get();
        end.node = &doms[b].plat->mem().node(0);
        end.returnWire = &ports[{b, a}]->wireLink();
        end.ack = chans[{b, a}];
        end.ackLatency = c.upiLatency;
        ports[{a, b}]->attachRemote(end);
    }
}

RemotePort &
SocketCluster::port(unsigned src, unsigned dst)
{
    auto it = ports.find({src, dst});
    fatal_if(it == ports.end(),
             "SocketCluster::port: sockets %u and %u are not linked "
             "(the ring links only neighbors)",
             src, dst);
    return *it->second;
}

void
SocketCluster::enableStreamHash(bool on)
{
    for (SocketDomain &d : doms)
        d.sim->enableStreamHash(on);
}

void
SocketCluster::run(unsigned threads)
{
    set.run(threads);
}

stats::Registry
SocketCluster::foldedStats() const
{
    stats::Registry combined;
    for (unsigned s = 0; s < doms.size(); ++s) {
        // fold() writes into the local result registry only; the
        // source domains are read through const references.
        // simlint:allow(observer-purity)
        combined.fold(doms[s].sim->stats(),
                      "socket" + std::to_string(s) + ".");
    }
    return combined;
}

} // namespace dsasim
