#include "mem/mem_system.hh"

#include <algorithm>

#include "mem/address_space.hh"
#include "sim/logging.hh"

namespace dsasim
{

Addr
MemNode::allocPhys(std::uint64_t bytes, std::uint64_t align)
{
    Addr base = (allocNext + align - 1) & ~(align - 1);
    fatal_if(base + bytes > config.capacityBytes,
             "node %d out of physical memory (%llu bytes requested)",
             id, static_cast<unsigned long long>(bytes));
    allocNext = base + bytes;
    return base;
}

MemSystem::MemSystem(Simulation &s, const MemSystemConfig &cfg)
    : simulation(s), config(cfg), llc(cfg.llc), iommuUnit(cfg.iommu),
      upi(s, cfg.upiGBps, "upi"),
      llcPort(s, cfg.llcGBps, "llc")
{
    fatal_if(cfg.nodes.empty(), "MemSystem needs at least one node");
    for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
        nodes.push_back(std::make_unique<MemNode>(
            s, static_cast<int>(i), cfg.nodes[i]));
    }

    // Telemetry (DESIGN.md §15): supplier-backed views over the LLC
    // and IOMMU — their state stays in its owner; the
    // registry only reads it at sample/export time.
    stats::Registry &reg = s.stats();
    reg.gauge("llc.occupancy_bytes",
              "bytes currently valid in the LLC across all owners",
              [this] {
                  return static_cast<double>(
                      llc.totalOccupancyBytes());
              });
    reg.gauge("llc.ddio_capacity_bytes",
              "capacity of the LLC's DDIO way partition", [this] {
                  return static_cast<double>(llc.ddioCapacityBytes());
              });
    reg.counter("llc.hit_bytes", "bytes served from the LLC",
                [this] { return llc.hitBytesTotal(); });
    reg.counter("llc.miss_bytes", "bytes that missed the LLC",
                [this] { return llc.missBytesTotal(); });
    reg.counter("llc.writeback_bytes",
                "dirty-victim bytes written back to memory",
                [this] { return llc.writebackBytesTotal(); });
    reg.counter("iommu.translations",
                "device-side IOMMU translation requests",
                [this] { return iommuUnit.translations; });
    reg.counter("iommu.injected_faults",
                "page faults forced by the fault injector",
                [this] { return iommuUnit.injectedFaults; });
}

MemSystem::~MemSystem() = default;

int
MemSystem::nodeIdFor(MemKind intent, int requester_socket) const
{
    for (const auto &n : nodes) {
        switch (intent) {
          case MemKind::DramLocal:
            if (n->config.kind != MemKind::Cxl &&
                n->config.socket == requester_socket)
                return n->id;
            break;
          case MemKind::DramRemote:
            if (n->config.kind != MemKind::Cxl &&
                n->config.socket != requester_socket)
                return n->id;
            break;
          case MemKind::Cxl:
            if (n->config.kind == MemKind::Cxl)
                return n->id;
            break;
        }
    }
    fatal("no memory node satisfies intent %s from socket %d",
          memKindName(intent), requester_socket);
}

void
MemSystem::physRead(Addr pa, void *dst, std::uint64_t len) const
{
    node(paNode(pa)).store.read(paOffset(pa), dst, len);
}

void
MemSystem::physWrite(Addr pa, const void *src, std::uint64_t len)
{
    node(paNode(pa)).store.write(paOffset(pa), src, len);
}

void
MemSystem::physFill(Addr pa, std::uint8_t value, std::uint64_t len)
{
    node(paNode(pa)).store.fill(paOffset(pa), value, len);
}

Tick
MemSystem::readLatencyOf(int node_id, int requester_socket) const
{
    const MemNode &n = node(node_id);
    Tick lat = n.config.readLatency;
    if (n.config.socket != requester_socket)
        lat += config.upiLatency;
    return lat;
}

Tick
MemSystem::writeLatencyOf(int node_id, int requester_socket) const
{
    const MemNode &n = node(node_id);
    Tick lat = n.config.writeLatency;
    if (n.config.socket != requester_socket)
        lat += config.upiLatency;
    return lat;
}

Tick
MemSystem::occupyRead(int node_id, int requester_socket,
                      std::uint64_t bytes)
{
    MemNode &n = node(node_id);
    Tick end = n.readLink.occupy(bytes);
    if (n.config.socket != requester_socket)
        end = std::max(end, upi.occupy(bytes));
    return end;
}

Tick
MemSystem::occupyWrite(int node_id, int requester_socket,
                       std::uint64_t bytes)
{
    MemNode &n = node(node_id);
    Tick end = n.writeLink.occupy(bytes);
    if (n.config.socket != requester_socket)
        end = std::max(end, upi.occupy(bytes));
    return end;
}

AddressSpace &
MemSystem::createSpace()
{
    Pasid id = static_cast<Pasid>(spaces.size() + 1);
    spaces.push_back(std::make_unique<AddressSpace>(*this, id));
    return *spaces.back();
}

AddressSpace &
MemSystem::space(Pasid pasid)
{
    panic_if(pasid == 0 || pasid > spaces.size(),
             "unknown pasid %u", pasid);
    return *spaces[pasid - 1];
}

} // namespace dsasim
