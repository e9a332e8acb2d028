#include "cpu/kernels.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "ops/crc32.hh"
#include "ops/delta.hh"
#include "ops/dif.hh"
#include "ops/span_kernels.hh"
#include "sim/logging.hh"

namespace dsasim
{

namespace
{

constexpr std::size_t scratchChunk = 256 * 1024;

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

SwKernels::Result
SwKernels::finish(Core &core, std::uint64_t bytes, double extra_ns,
                  std::initializer_list<RangeCost> ranges)
{
    const CpuParams &p = core.cpuParams();
    Result r;
    r.bytesProcessed = bytes;

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
    r.duration = core_time;
    if (link_end > now)
        r.duration = std::max(r.duration, link_end - now);
    return r;
}

SwKernels::Result
SwKernels::memcpyOp(Core &core, AddressSpace &as, Addr dst, Addr src,
                    std::uint64_t n)
{
    // Functional move, zero-copy on the backing spans; copy() keeps
    // memmove semantics for overlapping ranges.
    as.copy(dst, src, n);

    RangeCost rd = touchRange(core, as, src, n, false, true);
    RangeCost wr = touchRange(core, as, dst, n, true, true);
    return finish(core, n, 0.0, {rd, wr});
}

SwKernels::Result
SwKernels::dualcastOp(Core &core, AddressSpace &as, Addr dst1,
                      Addr dst2, Addr src, std::uint64_t n)
{
    if (!rangesOverlap(src, n, dst1, n) &&
        !rangesOverlap(src, n, dst2, n) &&
        !rangesOverlap(dst1, n, dst2, n)) {
        as.copy(dst1, src, n);
        as.copy(dst2, src, n);
    } else {
        // Aliased ranges: the result depends on chunk order, keep
        // the legacy forward copy.
        std::vector<std::uint8_t> buf(
            std::min<std::uint64_t>(n, scratchChunk));
        for (std::uint64_t off = 0; off < n; off += scratchChunk) {
            std::uint64_t run = std::min<std::uint64_t>(scratchChunk,
                                                        n - off);
            as.read(src + off, buf.data(), run);
            as.write(dst1 + off, buf.data(), run);
            as.write(dst2 + off, buf.data(), run);
        }
    }

    RangeCost rd = touchRange(core, as, src, n, false, true);
    RangeCost w1 = touchRange(core, as, dst1, n, true, true);
    RangeCost w2 = touchRange(core, as, dst2, n, true, true);
    return finish(core, n, 0.0, {rd, w1, w2});
}

SwKernels::Result
SwKernels::copyCrcOp(Core &core, AddressSpace &as, Addr dst, Addr src,
                     std::uint64_t n, std::uint32_t seed)
{
    std::uint32_t crc = seed;
    if (!rangesOverlap(src, n, dst, n)) {
        crc = spanCopyCrc(as, dst, src, n, crc);
    } else {
        std::vector<std::uint8_t> buf(
            std::min<std::uint64_t>(n, scratchChunk));
        for (std::uint64_t off = 0; off < n; off += scratchChunk) {
            std::uint64_t run = std::min<std::uint64_t>(scratchChunk,
                                                        n - off);
            as.read(src + off, buf.data(), run);
            crc = crc32c(buf.data(), run, crc);
            as.write(dst + off, buf.data(), run);
        }
    }

    RangeCost rd = touchRange(core, as, src, n, false, true);
    RangeCost wr = touchRange(core, as, dst, n, true, true);
    Result r = finish(core, n,
                      core.cpuParams().crcNsPerByte *
                          static_cast<double>(n),
                      {rd, wr});
    r.crc = crc32cFinish(crc);
    return r;
}

SwKernels::Result
SwKernels::memsetOp(Core &core, AddressSpace &as, Addr dst,
                    std::uint64_t pattern, std::uint64_t n,
                    bool nontemporal)
{
    // Fills spans in place; byte i gets pattern byte i % 8, same as
    // the old chunked scratch expansion.
    spanFillPattern(as, dst, n, pattern, 0, 8);

    RangeCost wr = touchRange(core, as, dst, n, true, !nontemporal);
    return finish(core, n, 0.0, {wr});
}

SwKernels::Result
SwKernels::memsetOp2(Core &core, AddressSpace &as, Addr dst,
                     std::uint64_t lo, std::uint64_t hi,
                     unsigned pattern_bytes, std::uint64_t n,
                     bool nontemporal)
{
    if (pattern_bytes <= 8)
        return memsetOp(core, as, dst, lo, n, nontemporal);

    spanFillPattern(as, dst, n, lo, hi, 16);

    RangeCost wr = touchRange(core, as, dst, n, true, !nontemporal);
    return finish(core, n, 0.0, {wr});
}

SwKernels::Result
SwKernels::memcmpOp(Core &core, AddressSpace &as, Addr a, Addr b,
                    std::uint64_t n)
{
    const std::uint64_t mm = spanCompare(as, a, b, n);
    Result pre;
    pre.ok = mm == n;
    pre.diffOffset = mm;

    // A mismatch exits early: only the compared prefix is streamed
    // (rounded up to the vectorized block the comparison works in).
    std::uint64_t eff = pre.ok
        ? n
        : std::min<std::uint64_t>(n, (pre.diffOffset / 4096 + 1) *
                                         4096);
    RangeCost ra = touchRange(core, as, a, eff, false, true);
    RangeCost rb = touchRange(core, as, b, eff, false, true);
    Result r = finish(core, eff,
                      core.cpuParams().cmpNsPerByte *
                          static_cast<double>(eff),
                      {ra, rb});
    r.ok = pre.ok;
    r.diffOffset = pre.diffOffset;
    return r;
}

SwKernels::Result
SwKernels::comparePatternOp(Core &core, AddressSpace &as, Addr a,
                            std::uint64_t pattern, std::uint64_t n)
{
    const std::uint64_t mm = spanComparePattern(as, a, n, pattern);
    Result pre;
    pre.ok = mm == n;
    pre.diffOffset = mm;

    std::uint64_t eff = pre.ok
        ? n
        : std::min<std::uint64_t>(n, (pre.diffOffset / 4096 + 1) *
                                         4096);
    RangeCost ra = touchRange(core, as, a, eff, false, true);
    Result r = finish(core, eff,
                      core.cpuParams().cmpNsPerByte *
                          static_cast<double>(eff),
                      {ra});
    r.ok = pre.ok;
    r.diffOffset = pre.diffOffset;
    return r;
}

SwKernels::Result
SwKernels::deltaCreateOp(Core &core, AddressSpace &as, Addr original,
                         Addr modified, std::uint64_t n, Addr record,
                         std::uint64_t max_record_bytes)
{
    fatal_if(n > deltaMaxInputBytes,
             "delta create input too large (%llu bytes)",
             static_cast<unsigned long long>(n));
    std::vector<std::uint8_t> orig(n), mod(n);
    as.read(original, orig.data(), n);
    as.read(modified, mod.data(), n);
    DeltaResult dr = deltaCreate(orig.data(), mod.data(), n,
                                 max_record_bytes);
    if (!dr.record.empty())
        as.write(record, dr.record.data(), dr.record.size());

    RangeCost ra = touchRange(core, as, original, n, false, true);
    RangeCost rb = touchRange(core, as, modified, n, false, true);
    RangeCost wr = touchRange(core, as, record,
                              std::max<std::uint64_t>(dr.record.size(),
                                                      1),
                              true, true);
    Result r = finish(core, n,
                      core.cpuParams().deltaNsPerByte *
                          static_cast<double>(n),
                      {ra, rb, wr});
    r.recordBytes = dr.record.size();
    r.recordFits = dr.fits;
    r.ok = dr.mismatchedWords == 0;
    return r;
}

SwKernels::Result
SwKernels::deltaApplyOp(Core &core, AddressSpace &as, Addr dst,
                        Addr record, std::uint64_t record_bytes,
                        std::uint64_t n)
{
    std::vector<std::uint8_t> buf(n), rec(record_bytes);
    as.read(dst, buf.data(), n);
    as.read(record, rec.data(), record_bytes);
    bool ok = deltaApply(buf.data(), n, rec.data(), record_bytes);
    if (ok)
        as.write(dst, buf.data(), n);

    RangeCost rr = touchRange(core, as, record,
                              std::max<std::uint64_t>(record_bytes, 1),
                              false, true);
    RangeCost wr = touchRange(core, as, dst, n, true, true);
    Result r = finish(core, n,
                      core.cpuParams().deltaNsPerByte *
                          static_cast<double>(record_bytes),
                      {rr, wr});
    r.ok = ok;
    return r;
}

SwKernels::Result
SwKernels::crc32Op(Core &core, AddressSpace &as, Addr src,
                   std::uint64_t n, std::uint32_t seed)
{
    const std::uint32_t crc = spanCrc(as, src, n, seed);

    RangeCost rd = touchRange(core, as, src, n, false, true);
    Result r = finish(core, n,
                      core.cpuParams().crcNsPerByte *
                          static_cast<double>(n),
                      {rd});
    r.crc = crc32cFinish(crc);
    return r;
}

SwKernels::Result
SwKernels::difInsertOp(Core &core, AddressSpace &as, Addr src,
                       Addr dst, std::uint64_t block_bytes,
                       std::uint64_t nblocks, std::uint16_t app_tag,
                       std::uint32_t ref_tag)
{
    fatal_if(!difBlockSizeValid(block_bytes),
             "invalid DIF block size %llu",
             static_cast<unsigned long long>(block_bytes));
    std::uint64_t in_len = block_bytes * nblocks;
    std::uint64_t out_len = (block_bytes + difTupleBytes) * nblocks;
    std::vector<std::uint8_t> in(in_len), out(out_len);
    as.read(src, in.data(), in_len);
    difInsert(in.data(), out.data(), block_bytes, nblocks, app_tag,
              ref_tag);
    as.write(dst, out.data(), out_len);

    RangeCost rd = touchRange(core, as, src, in_len, false, true);
    RangeCost wr = touchRange(core, as, dst, out_len, true, true);
    return finish(core, in_len,
                  core.cpuParams().difNsPerByte *
                      static_cast<double>(in_len),
                  {rd, wr});
}

SwKernels::Result
SwKernels::difCheckOp(Core &core, AddressSpace &as, Addr src,
                      std::uint64_t block_bytes, std::uint64_t nblocks,
                      std::uint16_t app_tag, std::uint32_t ref_tag)
{
    fatal_if(!difBlockSizeValid(block_bytes),
             "invalid DIF block size %llu",
             static_cast<unsigned long long>(block_bytes));
    std::uint64_t in_len = (block_bytes + difTupleBytes) * nblocks;
    std::vector<std::uint8_t> in(in_len);
    as.read(src, in.data(), in_len);
    DifCheckResult chk = difCheck(in.data(), block_bytes, nblocks,
                                  app_tag, ref_tag);

    RangeCost rd = touchRange(core, as, src, in_len, false, true);
    Result r = finish(core, in_len,
                      core.cpuParams().difNsPerByte *
                          static_cast<double>(in_len),
                      {rd});
    r.ok = chk.ok;
    r.diffOffset = chk.failedBlock;
    return r;
}

SwKernels::Result
SwKernels::difStripOp(Core &core, AddressSpace &as, Addr src, Addr dst,
                      std::uint64_t block_bytes, std::uint64_t nblocks)
{
    fatal_if(!difBlockSizeValid(block_bytes),
             "invalid DIF block size %llu",
             static_cast<unsigned long long>(block_bytes));
    std::uint64_t in_len = (block_bytes + difTupleBytes) * nblocks;
    std::uint64_t out_len = block_bytes * nblocks;
    std::vector<std::uint8_t> in(in_len), out(out_len);
    as.read(src, in.data(), in_len);
    difStrip(in.data(), out.data(), block_bytes, nblocks);
    as.write(dst, out.data(), out_len);

    RangeCost rd = touchRange(core, as, src, in_len, false, true);
    RangeCost wr = touchRange(core, as, dst, out_len, true, true);
    return finish(core, in_len, 0.0, {rd, wr});
}

SwKernels::Result
SwKernels::difUpdateOp(Core &core, AddressSpace &as, Addr src,
                       Addr dst, std::uint64_t block_bytes,
                       std::uint64_t nblocks, std::uint16_t old_app,
                       std::uint32_t old_ref, std::uint16_t new_app,
                       std::uint32_t new_ref)
{
    fatal_if(!difBlockSizeValid(block_bytes),
             "invalid DIF block size %llu",
             static_cast<unsigned long long>(block_bytes));
    std::uint64_t len = (block_bytes + difTupleBytes) * nblocks;
    std::vector<std::uint8_t> in(len), out(len);
    as.read(src, in.data(), len);
    DifCheckResult chk = difUpdate(in.data(), out.data(), block_bytes,
                                   nblocks, old_app, old_ref, new_app,
                                   new_ref);
    if (chk.ok)
        as.write(dst, out.data(), len);

    RangeCost rd = touchRange(core, as, src, len, false, true);
    RangeCost wr = touchRange(core, as, dst, len, true, true);
    Result r = finish(core, len,
                      core.cpuParams().difNsPerByte *
                          static_cast<double>(len),
                      {rd, wr});
    r.ok = chk.ok;
    r.diffOffset = chk.failedBlock;
    return r;
}

SwKernels::Result
SwKernels::cacheFlushOp(Core &core, AddressSpace &as, Addr addr,
                        std::uint64_t n)
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
        as.pageTable().walk(addr, n, flush_page);
    panic_if(unmapped, "flush of unmapped va=0x%llx",
             static_cast<unsigned long long>(*unmapped));
    return finish(core, n, 0.0, {rc});
}

} // namespace dsasim
