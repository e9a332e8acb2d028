/**
 * @file
 * MemSystem: the platform memory fabric.
 *
 * Owns the memory nodes (local DDR, remote-socket DDR behind UPI,
 * CXL-attached memory), the shared LLC with its DDIO partition, the
 * IOMMU, and the per-process address spaces. Both CPU cores and DMA
 * devices route all functional data movement and all bandwidth /
 * latency accounting through this class.
 *
 * Cache accounting granularity: device-side traffic goes through the
 * CacheModel span operations (probeSpan / fillSpan / evictSpan /
 * flushSpan, DESIGN.md §13), one call per physically contiguous run.
 * CPU kernels walk each page run with one cpuAccessSpan call; the
 * CPU-side pointer-chase probes stay line-granular (cpuAccess) and age
 * the LRU stack one access at a time.
 */

#ifndef DSASIM_MEM_MEM_SYSTEM_HH
#define DSASIM_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.hh"
#include "mem/cache.hh"
#include "mem/iommu.hh"
#include "mem/phys_mem.hh"
#include "mem/types.hh"
#include "sim/link.hh"
#include "sim/simulation.hh"

namespace dsasim
{

struct MemNodeConfig
{
    MemKind kind = MemKind::DramLocal;
    int socket = 0;
    std::uint64_t capacityBytes = 32ull << 30;
    double readGBps = 120.0;
    double writeGBps = 95.0;
    Tick readLatency = fromNs(95);
    Tick writeLatency = fromNs(95);
};

struct MemSystemConfig
{
    std::vector<MemNodeConfig> nodes;
    CacheModel::Config llc;
    IommuConfig iommu;
    /** Cross-socket interconnect. */
    double upiGBps = 60.0;
    Tick upiLatency = fromNs(60);
    /** On-chip LLC service (device hits and CPU LLC hits). */
    double llcGBps = 400.0;
    Tick llcLatency = fromNs(33);
};

/** One physical memory node (a NUMA node in /sys terms). */
class MemNode
{
  public:
    MemNode(Simulation &s, int node_id, const MemNodeConfig &cfg)
        : id(node_id), config(cfg), store(cfg.capacityBytes),
          readLink(s, cfg.readGBps,
                   "node" + std::to_string(node_id) + ".rd"),
          writeLink(s, cfg.writeGBps,
                    "node" + std::to_string(node_id) + ".wr")
    {}

    /** Bump-allocate @p bytes of physical space aligned to @p align. */
    Addr allocPhys(std::uint64_t bytes, std::uint64_t align);

    const int id;
    const MemNodeConfig config;
    PhysicalMemory store;
    LinkResource readLink;
    LinkResource writeLink;

  private:
    Addr allocNext = 0;
};

class MemSystem
{
  public:
    MemSystem(Simulation &s, const MemSystemConfig &cfg);
    ~MemSystem();

    Simulation &sim() { return simulation; }
    const MemSystemConfig &cfg() const { return config; }

    /// @name Physical address codec.
    /// PAs carry the node id in bits [47:44] (biased by one so that
    /// PA 0 stays an obviously-invalid null).
    /// @{
    static constexpr unsigned nodeShift = 44;

    static Addr
    makePa(int node_id, Addr offset)
    {
        return (static_cast<Addr>(node_id + 1) << nodeShift) | offset;
    }

    static int
    paNode(Addr pa)
    {
        return static_cast<int>(pa >> nodeShift) - 1;
    }

    static Addr
    paOffset(Addr pa)
    {
        return pa & ((Addr(1) << nodeShift) - 1);
    }
    /// @}

    /// @name Topology.
    /// @{
    std::size_t nodeCount() const { return nodes.size(); }

    MemNode &
    node(int id)
    {
        panic_if(id < 0 || static_cast<std::size_t>(id) >= nodes.size(),
                 "bad node id %d", id);
        return *nodes[static_cast<std::size_t>(id)];
    }

    const MemNode &
    node(int id) const
    {
        panic_if(id < 0 || static_cast<std::size_t>(id) >= nodes.size(),
                 "bad node id %d", id);
        return *nodes[static_cast<std::size_t>(id)];
    }

    /** Resolve an allocation intent to a node id. */
    int nodeIdFor(MemKind intent, int requester_socket = 0) const;
    /// @}

    /// @name Functional access by physical address.
    /// @{
    void physRead(Addr pa, void *dst, std::uint64_t len) const;
    void physWrite(Addr pa, const void *src, std::uint64_t len);
    void physFill(Addr pa, std::uint8_t value, std::uint64_t len);

    /**
     * Host pointer to a PA range that does not cross a 2 MiB
     * physical chunk (true for any range within one page). Inline —
     * this is the per-span hop of the zero-copy data path.
     */
    std::uint8_t *
    pageSpan(Addr pa, std::uint64_t len)
    {
        return node(paNode(pa)).store.hostSpan(paOffset(pa), len);
    }

    /**
     * Read-only variant that returns nullptr instead of
     * materializing when the backing chunk was never written (the
     * range reads as zeroes).
     */
    const std::uint8_t *
    pageSpanIfResident(Addr pa, std::uint64_t len) const
    {
        return node(paNode(pa))
            .store.hostSpanIfResident(paOffset(pa), len);
    }
    /// @}

    /// @name Timing resources.
    /// @{
    CacheModel &cache() { return llc; }
    Iommu &iommu() { return iommuUnit; }
    LinkResource &upiLink() { return upi; }
    LinkResource &llcLink() { return llcPort; }

    /** Memory-side load latency seen from @p requester_socket. */
    Tick readLatencyOf(int node_id, int requester_socket) const;
    Tick writeLatencyOf(int node_id, int requester_socket) const;

    /**
     * Occupy read bandwidth on @p node_id (and UPI when remote) for a
     * device- or core-initiated bulk read. Returns completion tick.
     */
    Tick occupyRead(int node_id, int requester_socket,
                    std::uint64_t bytes);
    Tick occupyWrite(int node_id, int requester_socket,
                     std::uint64_t bytes);
    /// @}

    /// @name Address spaces (SVM processes).
    /// @{
    AddressSpace &createSpace();
    AddressSpace &space(Pasid pasid);
    std::size_t spaceCount() const { return spaces.size(); }
    /// @}

  private:
    Simulation &simulation;
    MemSystemConfig config;
    std::vector<std::unique_ptr<MemNode>> nodes;
    CacheModel llc;
    Iommu iommuUnit;
    LinkResource upi;
    LinkResource llcPort;
    std::vector<std::unique_ptr<AddressSpace>> spaces;
};

} // namespace dsasim

#endif // DSASIM_MEM_MEM_SYSTEM_HH
