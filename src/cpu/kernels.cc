#include "cpu/kernels.hh"

#include <algorithm>
#include <array>

#include "sim/logging.hh"

namespace dsasim
{

namespace
{

/**
 * The vectorized block a software compare works in: a mismatch stops
 * it at the end of the block that holds it.
 */
constexpr std::uint64_t compareBlockBytes = 4096;

/** Per-byte compute cost of @p op, charged over its first stream. */
double
computeNsPerByte(const CpuParams &p, Opcode op)
{
    switch (op) {
      case Opcode::Compare:
      case Opcode::ComparePattern:
        return p.cmpNsPerByte;
      case Opcode::CrcGen:
      case Opcode::CopyCrc:
        return p.crcNsPerByte;
      case Opcode::CreateDelta:
      case Opcode::ApplyDelta:
        return p.deltaNsPerByte;
      case Opcode::DifInsert:
      case Opcode::DifCheck:
      case Opcode::DifUpdate:
        return p.difNsPerByte;
      default:
        return 0.0;
    }
}

} // namespace

SwKernels::Level
SwKernels::levelOf(const Core &core, int node_id) const
{
    const MemNode &n = mem.node(node_id);
    if (n.config.kind == MemKind::Cxl)
        return Level::Cxl;
    if (n.config.socket != core.agent().socket)
        return Level::DramRemote;
    return Level::DramLocal;
}

Tick
SwKernels::readLineCost(const Core &core, Level lvl) const
{
    const CpuParams &p = core.cpuParams();
    switch (lvl) {
      case Level::Llc: return p.readLlcHit;
      case Level::DramLocal: return p.readDramLocal;
      case Level::DramRemote: return p.readDramRemote;
      case Level::Cxl: return p.readCxl;
    }
    return p.readDramLocal;
}

Tick
SwKernels::writeLineCost(const Core &core, Level lvl) const
{
    const CpuParams &p = core.cpuParams();
    switch (lvl) {
      case Level::Llc: return p.writeLlcHit;
      case Level::DramLocal: return p.writeDramLocal;
      case Level::DramRemote: return p.writeDramRemote;
      case Level::Cxl: return p.writeCxl;
    }
    return p.writeDramLocal;
}

SwKernels::RangeCost
SwKernels::touchRange(Core &core, AddressSpace &as, Addr va,
                      std::uint64_t len, bool is_write, bool allocate)
{
    RangeCost rc;
    if (len == 0)
        return rc;

    const CpuParams &p = core.cpuParams();
    CacheModel &llc = mem.cache();
    const int owner = core.id();
    const int socket = core.agent().socket;

    auto touch_page = [&](const PageTable::PageRun &pg) {
        if (!core.tlb().lookup(as.pasid(), pg.pageVa)) {
            ++rc.tlbWalks;
            core.tlb().insert(as.pasid(), pg.pageVa);
        }
        const std::uint64_t run = pg.len;
        const Addr pa = pg.pa;
        int node_id = MemSystem::paNode(pa);
        if (rc.nodeId < 0)
            rc.nodeId = node_id;
        Level lvl = levelOf(core, node_id);
        MemNode &node = mem.node(node_id);

        const std::uint64_t lines = linesCovered(pa, run);
        std::uint64_t miss_read_bytes = 0;
        std::uint64_t wb_bytes_local = 0;
        if (is_write && !allocate) {
            // Non-temporal stores: bypass and invalidate.
            llc.evictSpan(pa, run);
            rc.coreTicks += lines * p.writeNtLine;
            wb_bytes_local += lines * cacheLineSize;
        } else {
            // One span call; touchRange never suspends, so charging
            // each dirty victim's writeback afterwards, in line order
            // and with its own occupy(), is tick-identical to the
            // per-line loop (DESIGN.md §13).
            victims.clear();
            const CacheModel::CpuSpanResult res =
                llc.cpuAccessSpan(pa, run, owner, is_write, victims);
            rc.coreTicks += res.hits * (is_write ? p.writeLlcHit
                                                 : p.readLlcHit);
            if (res.misses > 0) {
                rc.anyMiss = true;
                rc.coreTicks += res.misses *
                                (is_write ? writeLineCost(core, lvl)
                                          : readLineCost(core, lvl));
                if (is_write) {
                    // Write-allocate: the RFO reads the line, the
                    // dirty copy is written back later.
                    miss_read_bytes += res.misses *
                                       static_cast<std::uint64_t>(
                                           cacheLineSize *
                                           p.rfoReadFactor);
                    wb_bytes_local += res.misses * cacheLineSize;
                } else {
                    miss_read_bytes += res.misses * cacheLineSize;
                }
            }
            for (Addr victim : victims) {
                Tick end = mem.node(MemSystem::paNode(victim))
                               .writeLink.occupy(cacheLineSize);
                rc.linkEnd = std::max(rc.linkEnd, end);
            }
        }
        if (miss_read_bytes > 0) {
            Tick end = mem.occupyRead(node_id, socket, miss_read_bytes);
            rc.linkEnd = std::max(rc.linkEnd, end);
        }
        if (wb_bytes_local > 0) {
            Tick end = node.writeLink.occupy(wb_bytes_local);
            if (node.config.socket != socket)
                end = std::max(end, mem.upiLink().occupy(wb_bytes_local));
            rc.linkEnd = std::max(rc.linkEnd, end);
        }
        return true;
    };
    const std::optional<Addr> unmapped =
        as.pageTable().walk(va, len, touch_page);
    panic_if(unmapped, "kernel touch of unmapped va=0x%llx",
             static_cast<unsigned long long>(*unmapped));
    return rc;
}

SwKernels::RangeCost
SwKernels::flushRange(Core &core, AddressSpace &as, Addr va,
                      std::uint64_t len)
{
    const CpuParams &p = core.cpuParams();
    RangeCost rc;
    auto flush_page = [&](const PageTable::PageRun &pg) {
        int node_id = MemSystem::paNode(pg.pa);
        if (rc.nodeId < 0)
            rc.nodeId = node_id;
        rc.coreTicks += static_cast<Tick>(linesCovered(pg.pa, pg.len)) *
                        p.flushPerLine;
        std::uint64_t wb_bytes =
            mem.cache().flushSpan(pg.pa, pg.len).writebackBytes;
        if (wb_bytes > 0) {
            Tick end = mem.node(node_id).writeLink.occupy(wb_bytes);
            rc.linkEnd = std::max(rc.linkEnd, end);
        }
        return true;
    };
    const std::optional<Addr> unmapped =
        as.pageTable().walk(va, len, flush_page);
    panic_if(unmapped, "flush of unmapped va=0x%llx",
             static_cast<unsigned long long>(*unmapped));
    return rc;
}

Tick
SwKernels::finish(Core &core, double extra_ns,
                  std::span<const RangeCost> ranges)
{
    const CpuParams &p = core.cpuParams();

    Tick core_time = p.callOverhead + fromNs(extra_ns);
    Tick link_end = 0;
    bool first_miss_added = false;
    for (const RangeCost &rc : ranges) {
        core_time += rc.coreTicks;
        core_time += rc.tlbWalks * p.tlbWalk;
        link_end = std::max(link_end, rc.linkEnd);
        if (rc.anyMiss && !first_miss_added && rc.nodeId >= 0) {
            // The leading miss is exposed; later ones pipeline.
            core_time += mem.readLatencyOf(rc.nodeId,
                                           core.agent().socket);
            first_miss_added = true;
        }
    }

    Tick now = mem.sim().now();
    if (link_end > now)
        return std::max(core_time, link_end - now);
    return core_time;
}

SwKernels::Result
SwKernels::memcpyOp(Core &core, AddressSpace &as, Addr dst, Addr src,
                    std::uint64_t n)
{
    return run(core, as,
               OpArgs{.op = Opcode::Memmove, .src = src, .dst = dst,
                      .size = n},
               false);
}

SwKernels::Result
SwKernels::run(Core &core, AddressSpace &as, const OpArgs &args,
               bool nontemporal)
{
    fatal_if(args.op == Opcode::Nop || args.op == Opcode::Drain ||
                 args.op == Opcode::Batch,
             "no software path for opcode %s", opcodeName(args.op));
    Result r;
    if (!opArgsValid(args)) {
        r.status = OpStatus::Unsupported;
        r.duration = finish(core, 0.0, {});
        return r;
    }
    OpStreams streams = streamsOf(args);
    static_cast<OpOutcome &>(r) =
        runOp(as, args, args.size, false, scratch);
    settleStreams(streams, args, r, compareBlockBytes);

    const double extra_ns = streams.empty()
        ? 0.0
        : computeNsPerByte(core.cpuParams(), args.op) *
              static_cast<double>(streams[0].len);
    std::array<RangeCost, 3> costs{};
    if (args.op == Opcode::CacheFlush) {
        costs[0] = flushRange(core, as, streams[0].va, streams[0].len);
    } else {
        // The kernel dereferences a delta record even when it is
        // empty; the device skips an empty stream.
        if (args.op == Opcode::ApplyDelta)
            streams[0].len = std::max<std::uint64_t>(streams[0].len, 1);
        for (std::size_t i = 0; i < streams.size(); ++i) {
            const OpStream &s = streams[i];
            costs[i] = touchRange(core, as, s.va, s.len, s.write,
                                  !(s.write && nontemporal));
        }
    }
    r.duration = finish(core, extra_ns,
                        std::span(costs.data(), streams.size()));
    return r;
}

} // namespace dsasim
