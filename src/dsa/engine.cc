#include "dsa/engine.hh"

#include <algorithm>

#include "dsa/device.hh"
#include "mem/address_space.hh"
#include "sim/logging.hh"

namespace dsasim
{

Engine::Engine(DsaDevice &device, Group &grp, int engine_id)
    : dev(device), group(grp), id(engine_id),
      bytesReadCtr(device.sim().stats().counter(
          strfmt("dsa%d.eng%d.bytes_read", device.deviceId(),
                 engine_id),
          "bytes this PE read from memory")),
      bytesWrittenCtr(device.sim().stats().counter(
          strfmt("dsa%d.eng%d.bytes_written", device.deviceId(),
                 engine_id),
          "bytes this PE wrote to memory")),
      pageFaultsCtr(device.sim().stats().counter(
          strfmt("dsa%d.eng%d.page_faults", device.deviceId(),
                 engine_id),
          "page faults taken by this PE's translations")),
      atcMissesCtr(device.sim().stats().counter(
          strfmt("dsa%d.eng%d.atc_misses", device.deviceId(),
                 engine_id),
          "device-ATC misses on this PE's translations"))
{
    // PE utilization: busy time over wall simulated time. A
    // supplier-backed gauge — evaluated only when a sampler or
    // exporter reads it.
    Simulation &s = device.sim();
    s.stats().gauge(
        strfmt("dsa%d.eng%d.utilization", device.deviceId(),
               engine_id),
        "fraction of simulated time this PE was busy", [this, &s] {
            const Tick t = s.now();
            return t == 0 ? 0.0
                          : static_cast<double>(busyTicks) /
                                static_cast<double>(t);
        });
}

void
Engine::start()
{
    run();
}

SimTask
Engine::run()
{
    for (;;) {
        co_await group.awaitWork();
        auto w = group.arbitrate();
        // A device disable/reset flushes the queues but leaves the
        // pending-work credits behind; waking to an empty arbiter is
        // then expected, not a protocol violation.
        if (!w)
            continue;
        co_await process(std::move(*w));
    }
}

Engine::XlateOutcome
Engine::translateRange(AddressSpace &as, Addr va, std::uint64_t len,
                       bool block_on_fault,
                       std::vector<PageTable::PageRun> &pages)
{
    XlateOutcome out;
    const DsaParams &p = dev.params();
    Iommu &iommu = dev.mem().iommu();
    Pasid pasid = as.pasid();

    auto xlate_page = [&](const PageTable::PageRun &pg) {
        if (dev.atc().lookup(pasid, pg.pageVa) && pg.present) {
            out.walkCost += p.atcHitLatency;
        } else {
            atcMissesCtr.inc();
            auto res = iommu.translate(as.pageTable(), pasid, pg,
                                       block_on_fault);
            if (res.faulted) {
                pageFaultsCtr.inc();
                if (!res.ok) {
                    // Not resolved (block-on-fault = 0): partial
                    // completion at this offset.
                    out.faulted = true;
                    out.faultVa = pg.va;
                    out.faultStall += res.latency;
                    return false;
                }
                // Resolved by the OS; the PE stalled meanwhile.
                out.faultStall += res.latency;
            } else {
                // Walks overlap in the PE pipeline.
                out.walkCost += res.latency / p.walkParallelism;
            }
            dev.atc().insert(pasid, pg.pageVa);
        }
        out.okBytes += pg.len;
        pages.push_back(pg);
        return true;
    };
    const std::optional<Addr> unmapped =
        as.pageTable().walk(va, len, xlate_page);
    if (unmapped) {
        // Unmapped: an unresolvable fault either way.
        out.faulted = true;
        out.faultVa = *unmapped;
        out.faultStall += iommu.cfg().pageWalkLatency;
    }
    return out;
}

double
Engine::effectiveRate(int src_node) const
{
    const DsaParams &p = dev.params();
    unsigned engines_sharing =
        std::max<std::size_t>(group.engines.size(), 1);
    unsigned buffers = std::max(1u, group.readBuffers / engines_sharing);
    double lat_ns =
        toNs(dev.mem().readLatencyOf(src_node, dev.socket()));
    if (lat_ns <= 0.0)
        return p.engineGBps;
    double buffered =
        static_cast<double>(buffers) * cacheLineSize / lat_ns;
    return std::min(p.engineGBps, buffered);
}

CoTask
Engine::process(Work w)
{
    if (w.desc.op == Opcode::Batch) {
        co_await processBatch(std::move(w));
        co_return;
    }
    ++group.inflight;
    struct InflightGuard
    {
        Group &g;
        ~InflightGuard() { --g.inflight; }
    } guard{group};

    Simulation &sim = dev.sim();
    const DsaParams &p = dev.params();
    WorkDescriptor d = w.desc;
    const Tick start = sim.now();
    const std::uint64_t epoch0 = dev.resetEpoch();

    OpOutcome out;

    // Completion publication, shared by all exit paths. Extra
    // latency covers the pieces that pipeline with the next
    // descriptor (setup, first-read fill, completion write). If the
    // device was disabled/reset while this descriptor was in flight
    // (epoch changed), its result is discarded and it publishes
    // Aborted — the hardware's complete-with-abort of in-flight work.
    auto publish = [this, &sim, &p, epoch0](
                       WorkDescriptor desc, OpOutcome fo,
                       std::shared_ptr<BatchTracker> par,
                       Tick extra_latency) {
        Tick when = p.engineSetup + p.completionWrite + extra_latency;
        if (desc.wantsInterrupt())
            when += p.interruptLatency;
        DsaDevice *devp = &dev;
        sim.scheduleIn(when, [desc, fo, par, devp, epoch0] {
            const bool aborted = devp->resetEpoch() != epoch0;
            CompletionRecord::Status st =
                aborted ? CompletionRecord::Status::Aborted : fo.status;
            if (desc.completion && !desc.completion->isDone()) {
                CompletionRecord &cr = *desc.completion;
                static_cast<OpOutcome &>(cr) = aborted ? OpOutcome{} : fo;
                cr.complete(st);
            }
            if (par) {
                if (st != CompletionRecord::Status::Success)
                    par->anyFailed = true;
                par->latch.arrive();
            }
        });
    };

    // ---- Fault injection (before validation: hardware-level) -------
    bool injected = false;
    if (FaultInjector *fi = dev.injector()) {
        FaultQuery q{dev.deviceId(), -1, id, static_cast<int>(d.op),
                     static_cast<std::int64_t>(d.pasid)};
        if (fi->fire(FaultSite::DeviceDisable, q)) {
            // A surprise disable mid-flight. Deferred a tick so the
            // disable is not reentrant with this engine's dispatch;
            // this descriptor then publishes Aborted via the epoch
            // check in publish().
            DsaDevice *devp = &dev;
            sim.scheduleIn(0, [devp] { devp->disable(); });
        }
        if (fi->fire(FaultSite::EngineHang, q)) {
            // The engine wedges on this descriptor and holds it until
            // a watchdog (abortHung) or device reset releases it.
            ++hangs;
            co_await dev.hangRelease().wait();
            out.status = CompletionRecord::Status::Aborted;
            ++descriptorsProcessed;
            publish(d, out, w.parent, 0);
            co_return;
        }
        if (const FaultRule *r = fi->query(FaultSite::CompletionError,
                                           q)) {
            ++injectedErrors;
            injected = true;
            switch (r->error) {
              case HwErrorKind::Read:
                out.status = CompletionRecord::Status::ReadError;
                break;
              case HwErrorKind::Write:
                out.status = CompletionRecord::Status::WriteError;
                break;
              case HwErrorKind::Decode:
                out.status = CompletionRecord::Status::DecodeError;
                break;
            }
        }
    }

    // ---- Validation, control ops, then the data path ---------------
    // Only the data path counts as PE busy time; every descriptor
    // holds the PE for at least descriptorGap.
    Tick first_lat = 0;
    bool data_path = false;
    if (injected) {
        // out.status carries the injected error.
    } else if (d.size > p.maxTransferSize || !opArgsValid(d)) {
        out.status = CompletionRecord::Status::Unsupported;
    } else if (d.op == Opcode::Nop) {
        out.status = CompletionRecord::Status::Success;
    } else if (d.op == Opcode::Drain) {
        // Completes once every previously submitted descriptor of
        // this group has finished. This engine holds the drain, so
        // the group is drained when no *other* work is in flight or
        // queued.
        while (group.inflight > 1 || group.hasQueuedWork())
            co_await sim.delay(p.dispatchLatency);
        out.status = CompletionRecord::Status::Success;
    } else {
        data_path = true;
        co_await execute(d, out, first_lat);
    }

    const Tick end = std::max(sim.now(), start + p.descriptorGap);
    if (sim.now() < end)
        co_await sim.delayUntil(end);
    if (data_path)
        busyTicks += sim.now() - start;
    ++descriptorsProcessed;
    publish(d, out, w.parent, first_lat);
}

CoTask
Engine::execute(const WorkDescriptor &d, OpOutcome &out,
                Tick &first_lat)
{
    Simulation &sim = dev.sim();
    MemSystem &mem = dev.mem();
    const DsaParams &p = dev.params();

    AddressSpace &as = mem.space(d.pasid);
    PageTable &pt = as.pageTable();

    OpStreams streams = streamsOf(d);

    // ---- Translation (ATC -> IOMMU -> page fault path) -------------
    Tick fault_stall = 0;
    Tick walk_cost = 0;
    bool faulted = false;
    Addr fault_va = 0;
    double ok_fraction = 1.0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        const OpStream &s = streams[i];
        streamPages[i].clear();
        if (s.len == 0)
            continue;
        auto xo = translateRange(as, s.va, s.len, d.blocksOnFault(),
                                 streamPages[i].runs);
        fault_stall += xo.faultStall;
        walk_cost += xo.walkCost;
        if (xo.faulted) {
            faulted = true;
            fault_va = xo.faultVa;
            ok_fraction = std::min(
                ok_fraction, static_cast<double>(xo.okBytes) /
                                 static_cast<double>(s.len));
        }
    }
    if (fault_stall > 0) {
        // Page faults genuinely block the PE (the G5 motivation).
        co_await sim.delay(fault_stall);
    }

    // The chunk walk reuses the recorded pages of every stream
    // translated above — all but CreateDelta's record, which joins
    // after runOp — unless a fault truncated the streams. Whenever a
    // page is non-present (evicted since, or left so by a fault), it
    // looks pages up afresh, so an evicted page still panics there.
    const std::size_t recorded = faulted ? 0 : streams.size();
    auto pagesOf = [&](std::size_t i) -> StreamPages * {
        return i < recorded && pt.allPresent() ? &streamPages[i]
                                               : nullptr;
    };

    std::uint64_t eff_size = d.size;
    if (faulted) {
        eff_size = static_cast<std::uint64_t>(
            static_cast<double>(d.size) * ok_fraction);
        // Partial progress stops at a page boundary.
        eff_size &= ~(pageBytes(PageSize::Size4K) - 1);
        // Truncate the timing streams to the completed prefix.
        for (OpStream &s : streams) {
            s.len = d.size ? static_cast<std::uint64_t>(
                                 static_cast<double>(s.len) *
                                 static_cast<double>(eff_size) /
                                 static_cast<double>(d.size))
                           : 0;
        }
    }

    // ---- Functional execution --------------------------------------
    // (Timed below; data is moved here so results are exact.)
    out = runOp(as, d, eff_size, faulted, scratch);
    if (faulted) {
        out.faultAddr = fault_va;
        if (out.status == CompletionRecord::Status::Success)
            out.status = CompletionRecord::Status::PageFault;
    }
    settleStreams(streams, d, out, p.chunkBytes);

    // ---- Timing: stream the chunks --------------------------------
    const bool llc_hint = d.wantsCacheControl();
    const int owner = dev.cacheOwnerId();
    CacheModel &llc = mem.cache();

    if (d.op == Opcode::CacheFlush) {
        Addr va = streams[0].va;
        Tick pace = sim.now();
        std::uint64_t remaining = eff_size;
        Addr cursor = va;
        while (remaining > 0) {
            std::uint64_t run =
                std::min<std::uint64_t>(remaining, p.chunkBytes);
            Addr pa0 = as.translate(cursor);
            std::uint64_t wb =
                llc.flushSpan(pa0, run).writebackBytes;
            Tick link_end = 0;
            if (wb > 0) {
                int nid = MemSystem::paNode(pa0);
                link_end = mem.occupyWrite(nid, dev.socket(), wb);
            }
            Tick lines = linesCovered(pa0, run);
            pace = std::max(pace + lines * p.flushPerLine, link_end);
            cursor += run;
            remaining -= run;
        }
        if (sim.now() < pace)
            co_await sim.delayUntil(pace);
    } else {
        // Primary stream length drives the engine pacing.
        std::uint64_t primary = 0;
        for (const OpStream &s : streams)
            primary = std::max(primary, s.len);

        int src_node = 0;
        bool first_is_hit = false;
        bool has_read = false;
        auto firstPa = [&](std::size_t i) {
            const StreamPages *sp = pagesOf(i);
            return sp ? sp->runs.front().pa : as.translate(streams[i].va);
        };
        for (std::size_t i = 0; i < streams.size(); ++i) {
            if (!streams[i].write && streams[i].len > 0) {
                has_read = true;
                Addr pa = firstPa(i);
                src_node = MemSystem::paNode(pa);
                first_is_hit = llc.probe(lineAlignDown(pa));
                break;
            }
        }
        if (!has_read && !streams.empty() && streams[0].len > 0)
            src_node = MemSystem::paNode(firstPa(0));

        const double rate = effectiveRate(src_node);
        Tick pace = sim.now();

        for (std::uint64_t off = 0; off < primary;
             off += p.chunkBytes) {
            std::uint64_t run =
                std::min<std::uint64_t>(p.chunkBytes, primary - off);
            // Page walks overlap the stream; they surface only when
            // slower than the data they translate for.
            Tick chunk_walk = primary
                ? static_cast<Tick>(
                      static_cast<double>(walk_cost) *
                      static_cast<double>(run) /
                      static_cast<double>(primary))
                : 0;
            Tick link_end = 0;
            for (std::size_t i = 0; i < streams.size(); ++i) {
                const OpStream &s = streams[i];
                if (s.len == 0)
                    continue;
                // Proportional slice of this stream for the chunk.
                std::uint64_t s_beg = off * s.len / primary;
                std::uint64_t s_end = (off + run) * s.len / primary;
                if (s_end <= s_beg)
                    continue;
                std::uint64_t slice = s_end - s_beg;
                Addr va = s.va + s_beg;

                // Stream the slice page by page (PAs are contiguous
                // only within a page).
                auto stream_page = [&](const PageTable::PageRun &pg) {
                    panic_if(!pg.present,
                             "stream touches untranslated page");
                    const Addr pa = pg.pa;
                    const std::uint64_t seg = pg.len;
                    int nid = MemSystem::paNode(pa);

                    if (!s.write) {
                        // One span call classifies every line the
                        // segment covers (DESIGN.md §13).
                        CacheModel::SpanResult sr =
                            llc.probeSpan(pa, seg);
                        link_end = std::max(
                            link_end, dev.fabricRead().occupy(seg));
                        if (sr.missBytes > 0) {
                            link_end = std::max(
                                link_end,
                                mem.occupyRead(nid, dev.socket(),
                                               sr.missBytes));
                        }
                        if (sr.hitBytes > 0) {
                            link_end = std::max(
                                link_end,
                                mem.llcLink().occupy(sr.hitBytes));
                        }
                        bytesReadCtr.add(seg);
                    } else {
                        // Allocating (DDIO) fill or non-allocating
                        // eviction, per the cache-control hint; the
                        // aggregate dirty-victim writeback is charged
                        // to the last victim's node below, as the
                        // per-line loop's single occupy did.
                        CacheModel::SpanResult sr = llc_hint
                            ? llc.fillSpan(pa, seg, owner)
                            : llc.evictSpan(pa, seg);
                        std::uint64_t evict_wb = sr.writebackBytes;
                        Addr evict_node_pa = sr.lastEvictedPa;
                        link_end = std::max(
                            link_end, dev.fabricWrite().occupy(seg));
                        if (llc_hint) {
                            link_end = std::max(
                                link_end, mem.llcLink().occupy(seg));
                        } else {
                            link_end = std::max(
                                link_end,
                                mem.occupyWrite(nid, dev.socket(),
                                                seg));
                        }
                        if (evict_wb > 0) {
                            int vn = MemSystem::paNode(evict_node_pa);
                            link_end = std::max(
                                link_end,
                                mem.node(vn).writeLink.occupy(
                                    evict_wb));
                        }
                        bytesWrittenCtr.add(seg);
                    }
                    return true;
                };
                if (StreamPages *sp = pagesOf(i)) {
                    sp->slice(va, slice, stream_page);
                } else {
                    const std::optional<Addr> unmapped =
                        pt.walk(va, slice, stream_page);
                    panic_if(unmapped,
                             "stream touches untranslated page");
                }
            }
            Tick step = std::max(transferTime(run, rate), chunk_walk);
            pace = std::max(pace + step, link_end);
            if (sim.now() < pace)
                co_await sim.delayUntil(pace);
        }

        // First-read fill latency is exposed in the completion time
        // (it pipelines with the next descriptor), handled below.
        if (has_read) {
            first_lat = first_is_hit
                ? mem.cfg().llcLatency
                : mem.readLatencyOf(src_node, dev.socket());
        }
    }
}


CoTask
Engine::processBatch(Work w)
{
    Simulation &sim = dev.sim();
    const DsaParams &p = dev.params();
    WorkDescriptor d = w.desc;

    bool nested = false;
    if (d.batch) {
        for (const WorkDescriptor &sub : *d.batch)
            nested |= sub.op == Opcode::Batch;
    }
    if (!d.batch || d.batch->empty() ||
        d.batch->size() > p.maxBatchSize || nested) {
        // The DSA spec forbids batch descriptors inside a batch.
        co_await sim.delay(p.batchOverhead);
        if (d.completion && !d.completion->isDone())
            d.completion->complete(
                CompletionRecord::Status::Unsupported);
        co_return;
    }

    const std::uint64_t n = d.batch->size();
    // Fetch the descriptor array from memory (64 B per descriptor).
    co_await sim.delay(p.batchOverhead + n * p.batchPerDescriptorFetch);

    auto tracker = std::make_shared<BatchTracker>(sim, n);
    for (const WorkDescriptor &sub : *d.batch) {
        Work sw;
        sw.desc = sub;
        // Sub-descriptors inherit the batch's PASID if unset.
        if (sw.desc.pasid == 0)
            sw.desc.pasid = d.pasid;
        sw.enqueuedAt = sim.now();
        sw.parent = tracker;
        group.redispatch(sw);
    }
    watchBatch(d, tracker);
}

SimTask
Engine::watchBatch(WorkDescriptor d,
                   std::shared_ptr<BatchTracker> tracker)
{
    Simulation &sim = dev.sim();
    const std::uint64_t epoch0 = dev.resetEpoch();
    co_await tracker->latch.wait();
    co_await sim.delay(dev.params().completionWrite);
    if (d.completion && !d.completion->isDone()) {
        CompletionRecord::Status st =
            tracker->anyFailed ? CompletionRecord::Status::BatchError
                               : CompletionRecord::Status::Success;
        if (dev.resetEpoch() != epoch0)
            st = CompletionRecord::Status::Aborted;
        d.completion->complete(st);
    }
}

} // namespace dsasim
