/**
 * @file
 * SocketCluster: a multi-socket platform partitioned along its UPI
 * links into per-socket simulation domains.
 *
 * Each socket gets its own Simulation kernel and its own Platform
 * (cores, DSA devices, memory nodes, fault injector), registered as
 * one domain of a PartitionSet; sockets interact only through
 * RemotePorts riding PartitionChannels whose minimum latency is the
 * UPI hop — exactly the link-delimited decomposition conservative
 * parallel DES needs (DESIGN.md §11). The decomposition is fixed by
 * `ClusterConfig::sockets`, never by the worker-thread count, so a
 * cluster's event streams (and stream hashes) are identical for any
 * DSASIM_PARTITIONS.
 */

#ifndef DSASIM_DRIVER_CLUSTER_HH
#define DSASIM_DRIVER_CLUSTER_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "driver/platform.hh"
#include "mem/remote_port.hh"
#include "sim/partition.hh"

namespace dsasim
{

struct ClusterConfig
{
    unsigned sockets = 4;

    /** Per-socket platform shape. Set socket.dsaTopology so the
     * sockets come up with configured devices. */
    PlatformConfig socket;

    /** UPI hop between adjacent sockets of the bidirectional ring
     * (socket s <-> s+1 mod n); the latency is the channel lookahead
     * floor and the ack latency. */
    double upiGBps = 60.0;
    Tick upiLatency = fromNs(60);

    /**
     * Raise every channel's latency floor by the serialization time
     * of this many bytes at upiGBps. Protocols that ship large
     * blocks can buy epochs long enough to amortize the barrier cost
     * (RemotePort defers smaller sends into the floor — send-side
     * aggregation). 0 = bare wire latency.
     */
    std::uint64_t lookaheadBytes = 0;
};

class SocketCluster
{
  public:
    explicit SocketCluster(const ClusterConfig &cfg);

    unsigned socketCount() const
    {
        return static_cast<unsigned>(doms.size());
    }
    const ClusterConfig &cfg() const { return config; }

    Simulation &domainSim(unsigned s) { return *doms.at(s).sim; }
    Platform &plat(unsigned s) { return *doms.at(s).plat; }

    /** The src->dst UPI port; fatal if the pair is not linked. */
    RemotePort &port(unsigned src, unsigned dst);
    bool linked(unsigned src, unsigned dst) const
    {
        return ports.count({src, dst}) != 0;
    }

    PartitionSet &partitions() { return set; }

    /** Fold (when, seq) of every executed event, per domain. */
    void enableStreamHash(bool on);

    /** Run all domains to completion on @p threads workers
     * (0 = $DSASIM_PARTITIONS). Simulated behavior is identical for
     * any thread count. */
    void run(unsigned threads = 0);

    /** Cross-domain fingerprint (PartitionSet::combinedStreamHash). */
    std::uint64_t streamHash() const
    {
        return set.combinedStreamHash();
    }
    std::uint64_t eventsExecuted() const
    {
        return set.eventsExecuted();
    }
    Tick endTick() const { return set.maxNow(); }

    /**
     * Fold every domain's telemetry registry into one combined view
     * with "socket<d>." name prefixes, in domain-id order — the
     * cluster-wide export is deterministic for any worker-thread
     * count (DESIGN.md §15). Call after run() returns (the fold
     * evaluates supplier-backed metrics, so domains must be at rest).
     */
    stats::Registry foldedStats() const; // simlint:observer

  private:
    struct SocketDomain
    {
        std::unique_ptr<Simulation> sim;
        std::unique_ptr<Platform> plat;
    };

    ClusterConfig config;
    std::vector<SocketDomain> doms;
    PartitionSet set;
    /** Ordered (src,dst) -> channel/port; std::map iteration keeps
     * construction and teardown deterministic. */
    std::map<std::pair<unsigned, unsigned>, PartitionChannel *> chans;
    std::map<std::pair<unsigned, unsigned>,
             std::unique_ptr<RemotePort>>
        ports;
};

} // namespace dsasim

#endif // DSASIM_DRIVER_CLUSTER_HH
