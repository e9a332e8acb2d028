#include "cbdma/cbdma.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace dsasim
{

CbdmaDevice::CbdmaDevice(Simulation &s, MemSystem &ms,
                         const CbdmaParams &p, int device_id,
                         int socket_id)
    : sim(s), mem(ms), cfg(p), id(device_id), socketId(socket_id)
{
    fatal_if(cfg.channels == 0, "CBDMA needs at least one channel");
    for (unsigned c = 0; c < cfg.channels; ++c) {
        chans.push_back(std::make_unique<Channel>(s));
        channelLoop(c);
    }
}

std::vector<std::pair<Addr, std::uint64_t>>
CbdmaDevice::pinRange(AddressSpace &as, Addr va, std::uint64_t len)
{
    std::vector<std::pair<Addr, std::uint64_t>> segs;
    auto pin_page = [&](const PageTable::PageRun &pg) {
        fatal_if(!pg.present,
                 "CBDMA requires pinned (present) memory; "
                 "va=0x%llx is paged out",
                 static_cast<unsigned long long>(pg.va));
        if (!segs.empty() &&
            segs.back().first + segs.back().second == pg.pa) {
            segs.back().second += pg.len; // coalesce contiguous PAs
        } else {
            segs.emplace_back(pg.pa, pg.len);
        }
        return true;
    };
    const std::optional<Addr> unmapped =
        as.pageTable().walk(va, len, pin_page);
    fatal_if(unmapped, "CBDMA pin of unmapped va=0x%llx",
             static_cast<unsigned long long>(*unmapped));
    return segs;
}

bool
CbdmaDevice::post(unsigned channel, const CbdmaDescriptor &d)
{
    panic_if(channel >= chans.size(), "bad CBDMA channel %u", channel);
    Channel &ch = *chans[channel];
    if (ch.ring.size() >= cfg.ringEntries)
        return false;
    ch.ring.push_back(d);
    ch.pending.release();
    return true;
}

std::size_t
CbdmaDevice::ringOccupancy(unsigned channel) const
{
    panic_if(channel >= chans.size(), "bad CBDMA channel %u", channel);
    return chans[channel]->ring.size();
}

SimTask
CbdmaDevice::channelLoop(unsigned channel)
{
    Channel &ch = *chans[channel];
    for (;;) {
        co_await ch.pending.acquire();
        panic_if(ch.ring.empty(), "CBDMA channel woke without work");
        CbdmaDescriptor d = ch.ring.front();
        ch.ring.pop_front();

        const Tick start = sim.now();
        // The ring fetch pipelines with the previous descriptor's
        // data phase; it shows up in completion latency only.

        // Functional execution on physical memory.
        std::vector<std::uint8_t> buf(
            std::min<std::uint64_t>(d.size, 256 * 1024));
        if (d.op == CbdmaDescriptor::Op::Copy) {
            for (std::uint64_t off = 0; off < d.size;
                 off += buf.size()) {
                std::uint64_t run = std::min<std::uint64_t>(
                    buf.size(), d.size - off);
                mem.physRead(d.srcPa + off, buf.data(), run);
                mem.physWrite(d.dstPa + off, buf.data(), run);
            }
        } else {
            for (std::uint64_t i = 0; i < buf.size(); i += 8) {
                std::memcpy(buf.data() + i, &d.pattern,
                            std::min<std::size_t>(8, buf.size() - i));
            }
            for (std::uint64_t off = 0; off < d.size;
                 off += buf.size()) {
                std::uint64_t run = std::min<std::uint64_t>(
                    buf.size(), d.size - off);
                mem.physWrite(d.dstPa + off, buf.data(), run);
            }
        }

        // Timing: serial chunks over the channel's rate and the
        // memory links. CBDMA writes do not allocate in the LLC.
        Tick pace = sim.now();
        for (std::uint64_t off = 0; off < d.size;
             off += cfg.chunkBytes) {
            std::uint64_t run = std::min<std::uint64_t>(
                cfg.chunkBytes, d.size - off);
            Tick link_end = 0;
            if (d.op == CbdmaDescriptor::Op::Copy) {
                int src_node = MemSystem::paNode(d.srcPa + off);
                link_end = std::max(
                    link_end,
                    mem.occupyRead(src_node, socketId, run));
            }
            int dst_node = MemSystem::paNode(d.dstPa + off);
            // Invalidate any cached copies (coherent, non-alloc).
            mem.cache().evictSpan(d.dstPa + off, run);
            link_end = std::max(
                link_end, mem.occupyWrite(dst_node, socketId, run));
            pace = std::max(pace + transferTime(run, cfg.channelGBps),
                            link_end);
            if (sim.now() < pace)
                co_await sim.delayUntil(pace);
        }

        Tick min_end = start + cfg.descriptorGap;
        if (sim.now() < min_end)
            co_await sim.delayUntil(min_end);

        ++descriptorsProcessed;
        bytesCopied += d.size;

        CompletionRecord *cr = d.completion;
        sim.scheduleIn(cfg.descriptorFetch + cfg.completionWrite,
                       [cr] {
            if (cr)
                cr->complete(CompletionRecord::Status::Success);
        });
    }
}

} // namespace dsasim
