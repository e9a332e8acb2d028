#include "dsa/device.hh"

#include <numeric>

#include "dsa/qos.hh"
#include "sim/logging.hh"

namespace dsasim
{

DsaDevice::DsaDevice(Simulation &s, MemSystem &ms, const DsaParams &p,
                     int device_id, int socket_id)
    : simulation(s), memSys(ms), cfg(p), id(device_id),
      socketId(socket_id), atcCache(p.atcEntries),
      fabricRd(s, p.fabricGBps, "dsa" + std::to_string(device_id) +
                                ".fabric.rd"),
      fabricWr(s, p.fabricGBps, "dsa" + std::to_string(device_id) +
                                ".fabric.wr"),
      hangReleaseTrig(std::make_unique<Trigger>(s)),
      descriptorsSubmittedCtr(s.stats().counter(
          "dsa" + std::to_string(device_id) +
              ".descriptors_submitted",
          "descriptors accepted into a WQ on this device")),
      descriptorsRetriedCtr(s.stats().counter(
          "dsa" + std::to_string(device_id) + ".descriptors_retried",
          "ENQCMD retries (SWQ at threshold or admission throttle)"))
{}

Group &
DsaDevice::addGroup()
{
    fatal_if(isEnabled, "cannot reconfigure an enabled device");
    fatal_if(groups.size() >= cfg.maxGroups,
             "device %d supports at most %u groups", id, cfg.maxGroups);
    groups.push_back(std::make_unique<Group>(
        simulation, *this, static_cast<int>(groups.size())));
    return *groups.back();
}

WorkQueue &
DsaDevice::addWorkQueue(Group &grp, WorkQueue::Mode mode, unsigned size,
                        unsigned priority, unsigned threshold)
{
    fatal_if(isEnabled, "cannot reconfigure an enabled device");
    fatal_if(wqs.size() >= cfg.maxWqs,
             "device %d supports at most %u WQs", id, cfg.maxWqs);
    fatal_if(size == 0, "WQ size must be non-zero");
    fatal_if(threshold > size,
             "WQ threshold (%u) exceeds WQ size (%u)", threshold,
             size);
    unsigned used = 0;
    for (const auto &w : wqs)
        used += w->size;
    fatal_if(used + size > cfg.wqCapacityTotal,
             "WQ entries exhausted: %u in use, %u requested, %u total",
             used, size, cfg.wqCapacityTotal);
    wqs.push_back(std::make_unique<WorkQueue>(
        static_cast<int>(wqs.size()), mode, size, priority,
        threshold));
    wqs.back()->group = &grp;
    grp.attach(wqs.back().get());
    // Telemetry: supplier-backed views over the WQ's own state —
    // depth as a live gauge, accept/reject totals as counters.
    WorkQueue *q = wqs.back().get();
    const std::string prefix = "dsa" + std::to_string(id) + ".wq" +
                               std::to_string(q->id) + ".";
    simulation.stats().gauge(
        prefix + "depth", "descriptors currently queued",
        [q] { return static_cast<double>(q->occupancy()); });
    simulation.stats().counter(
        prefix + "accepted", "descriptors accepted by this WQ",
        [q] { return q->accepted; });
    simulation.stats().counter(
        prefix + "rejected",
        "descriptors rejected or retried at this WQ's portal",
        [q] { return q->rejected; });
    return *wqs.back();
}

Engine &
DsaDevice::addEngine(Group &grp)
{
    fatal_if(isEnabled, "cannot reconfigure an enabled device");
    fatal_if(engines.size() >= cfg.maxEngines,
             "device %d supports at most %u engines", id,
             cfg.maxEngines);
    engines.push_back(std::make_unique<Engine>(
        *this, grp, static_cast<int>(engines.size())));
    grp.attach(engines.back().get());
    return *engines.back();
}

void
DsaDevice::setGroupReadBuffers(Group &grp, unsigned buffers)
{
    fatal_if(isEnabled, "cannot reconfigure an enabled device");
    fatal_if(buffers > cfg.readBuffers,
             "group read buffers (%u) exceed device total (%u)",
             buffers, cfg.readBuffers);
    grp.readBuffers = buffers;
}

void
DsaDevice::enable()
{
    fatal_if(isEnabled, "device %d already enabled", id);
    fatal_if(groups.empty(), "device %d has no groups", id);

    unsigned claimed = 0;
    unsigned unset = 0;
    for (auto &g : groups) {
        fatal_if(g->wqs.empty(),
                 "group %d has no work queues", g->id);
        fatal_if(g->engines.empty(),
                 "group %d has no engines", g->id);
        if (g->readBuffers == 0)
            ++unset;
        else
            claimed += g->readBuffers;
    }
    fatal_if(claimed > cfg.readBuffers,
             "groups claim %u read buffers, device has %u",
             claimed, cfg.readBuffers);
    // Groups without an explicit allocation share the remainder.
    if (unset > 0) {
        unsigned share = (cfg.readBuffers - claimed) / unset;
        fatal_if(share == 0,
                 "no read buffers left for %u unconfigured groups",
                 unset);
        for (auto &g : groups)
            if (g->readBuffers == 0)
                g->readBuffers = share;
    }

    isEnabled = true;
    // A re-enable after disable()/reset() must not spawn a second
    // processing loop per engine; the loops survive the disable.
    if (!enginesStarted) {
        for (auto &e : engines)
            e->start();
        enginesStarted = true;
    }
}

void
DsaDevice::completeAborted(const WorkDescriptor &d)
{
    if (d.completion && !d.completion->isDone()) {
        d.completion->bytesCompleted = 0;
        d.completion->complete(CompletionRecord::Status::Aborted);
    }
}

void
DsaDevice::disable()
{
    if (!isEnabled)
        return;
    isEnabled = false;
    ++epoch;
    ++resets;
    // Flush queued descriptors: WQ entries first, then batch
    // sub-descriptors already fanned out into the groups. Their
    // pending-work credits stay behind; engines tolerate waking to
    // an empty arbiter.
    for (auto &w : wqs) {
        for (WorkQueue::Entry &e : w->drainAll())
            completeAborted(e.desc);
    }
    for (auto &g : groups) {
        for (Work &w : g->flushInternal()) {
            completeAborted(w.desc);
            if (w.parent) {
                w.parent->anyFailed = true;
                w.parent->latch.arrive();
            }
        }
    }
    // Release hung engines; their descriptors publish Aborted.
    abortHung();
}

void
DsaDevice::reset()
{
    disable();
    enable();
}

void
DsaDevice::abortHung()
{
    hangReleaseTrig->fire();
    // fire() clears the waiter list, so the trigger can re-arm
    // immediately for the next hang.
    hangReleaseTrig->reset();
}

void
DsaDevice::installAdmission(std::size_t qid, WqAdmission *adm)
{
    WorkQueue &q = wq(qid);
    q.admission = adm;
    if (adm) {
        adm->registerStats(simulation.stats(),
                           strfmt("dsa%d.wq%d.qos.", id, q.id));
    }
}

DsaDevice::SubmitStatus
DsaDevice::submit(WorkQueue &wq, const WorkDescriptor &d)
{
    panic_if(wq.group == nullptr, "WQ %d not attached to a group",
             wq.id);
    if (!isEnabled) {
        // The portal of a disabled device drops the write; the
        // descriptor is reported back as aborted.
        ++submitsWhileDisabled;
        completeAborted(d);
        return SubmitStatus::Rejected;
    }
    bool forcedReject =
        faultInjector &&
        faultInjector->fire(FaultSite::WqReject,
                            {id, wq.id, -1, static_cast<int>(d.op),
                             static_cast<std::int64_t>(d.pasid)});
    if (forcedReject)
        ++injectedRejects;
    if (!forcedReject && wq.mode == WorkQueue::Mode::Shared &&
        wq.admission) {
        // Per-tenant admission policy ahead of the portal occupancy
        // check; a non-Admit verdict looks exactly like a full SWQ
        // to the submitter (ENQCMD Retry), so clients need no new
        // protocol to live under a rate limit.
        auto v = wq.admission->admit(d.pasid, simulation.now(),
                                     wq.occupancy(), wq.threshold);
        if (v != WqAdmission::Verdict::Admit) {
            descriptorsRetriedCtr.inc();
            return SubmitStatus::Retry;
        }
    }
    if (forcedReject || (wq.mode == WorkQueue::Mode::Shared
                             ? wq.aboveThreshold()
                             : wq.full())) {
        if (wq.mode == WorkQueue::Mode::Dedicated) {
            // A MOVDIR64B past DWQ capacity means the client broke
            // its occupancy-tracking contract. Real hardware drops
            // the descriptor; we detect the drop and report it via
            // the completion record instead of leaving the client
            // waiting on a completion that never comes.
            ++dwqOverflows;
            ++wq.rejected;
            if (d.completion && !d.completion->isDone()) {
                d.completion->bytesCompleted = 0;
                d.completion->complete(
                    CompletionRecord::Status::WqOverflow);
            }
            return SubmitStatus::Rejected;
        }
        // ENQCMD reports retry (at the configured admission
        // threshold).
        descriptorsRetriedCtr.inc();
        ++wq.rejected;
        return SubmitStatus::Retry;
    }
    bool ok = wq.enqueue(d, simulation.now());
    panic_if(!ok, "enqueue failed on non-full WQ");
    descriptorsSubmittedCtr.inc();
    Group *grp = wq.group;
    simulation.scheduleIn(cfg.dispatchLatency,
                          [grp] { grp->signalWork(); });
    return SubmitStatus::Accepted;
}

std::uint64_t
DsaDevice::descriptorsProcessed() const
{
    std::uint64_t n = 0;
    for (const auto &e : engines)
        n += e->descriptorsProcessed;
    return n;
}

std::uint64_t
DsaDevice::bytesProcessed() const
{
    std::uint64_t n = 0;
    for (const auto &e : engines)
        n += e->bytesRead() + e->bytesWritten();
    return n;
}

} // namespace dsasim
