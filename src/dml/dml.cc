#include "dml/dml.hh"

#include "sim/logging.hh"

namespace dsasim::dml
{

namespace
{

WorkDescriptor
base(AddressSpace &as, Opcode op)
{
    WorkDescriptor d;
    d.op = op;
    d.pasid = as.pasid();
    return d;
}

} // namespace

Executor::Executor(Simulation &s, MemSystem &ms, SwKernels &k,
                   std::vector<DsaDevice *> devices,
                   ExecutorConfig config)
    : sim(s), mem(ms), kernels(k), cfg(config)
{
    for (DsaDevice *dev : devices) {
        fatal_if(!dev->enabled(),
                 "Executor requires enabled devices (dsa%d is not)",
                 dev->deviceId());
        for (std::size_t w = 0; w < dev->wqCount(); ++w) {
            WorkQueue &wq = dev->wq(w);
            targets.push_back(
                {dev, &wq,
                 std::make_unique<Semaphore>(s, wq.size)});
        }
    }
    fatal_if(targets.empty() && cfg.path == Path::Hardware,
             "hardware path requested but no WQs available");
}

WorkDescriptor
Executor::memMove(AddressSpace &as, Addr dst, Addr src,
                  std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::Memmove);
    d.src = src;
    d.dst = dst;
    d.size = n;
    return d;
}

WorkDescriptor
Executor::fill(AddressSpace &as, Addr dst, std::uint64_t pattern,
               std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::Fill);
    d.dst = dst;
    d.pattern = pattern;
    d.size = n;
    return d;
}

WorkDescriptor
Executor::fill16(AddressSpace &as, Addr dst, std::uint64_t lo,
                 std::uint64_t hi, std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::Fill);
    d.dst = dst;
    d.pattern = lo;
    d.pattern2 = hi;
    d.patternBytes = 16;
    d.size = n;
    return d;
}

WorkDescriptor
Executor::compare(AddressSpace &as, Addr a, Addr b, std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::Compare);
    d.src = a;
    d.src2 = b;
    d.size = n;
    return d;
}

WorkDescriptor
Executor::comparePattern(AddressSpace &as, Addr a,
                         std::uint64_t pattern, std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::ComparePattern);
    d.src = a;
    d.pattern = pattern;
    d.size = n;
    return d;
}

WorkDescriptor
Executor::crc32(AddressSpace &as, Addr src, std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::CrcGen);
    d.src = src;
    d.size = n;
    return d;
}

WorkDescriptor
Executor::copyCrc(AddressSpace &as, Addr dst, Addr src,
                  std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::CopyCrc);
    d.src = src;
    d.dst = dst;
    d.size = n;
    return d;
}

WorkDescriptor
Executor::dualcast(AddressSpace &as, Addr dst1, Addr dst2, Addr src,
                   std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::Dualcast);
    d.src = src;
    d.dst = dst1;
    d.dst2 = dst2;
    d.size = n;
    return d;
}

WorkDescriptor
Executor::createDelta(AddressSpace &as, Addr original, Addr modified,
                      std::uint64_t n, Addr record,
                      std::uint64_t max_record)
{
    WorkDescriptor d = base(as, Opcode::CreateDelta);
    d.src = original;
    d.src2 = modified;
    d.dst = record;
    d.size = n;
    d.maxRecordBytes = max_record;
    return d;
}

WorkDescriptor
Executor::applyDelta(AddressSpace &as, Addr dst, Addr record,
                     std::uint64_t record_bytes, std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::ApplyDelta);
    d.src = record;
    d.dst = dst;
    d.size = n;
    d.recordBytes = record_bytes;
    return d;
}

WorkDescriptor
Executor::difInsert(AddressSpace &as, Addr src, Addr dst,
                    std::uint32_t block, std::uint64_t data_bytes,
                    std::uint16_t app_tag, std::uint32_t ref_tag)
{
    WorkDescriptor d = base(as, Opcode::DifInsert);
    d.src = src;
    d.dst = dst;
    d.size = data_bytes;
    d.difBlockBytes = block;
    d.appTag = app_tag;
    d.refTag = ref_tag;
    return d;
}

WorkDescriptor
Executor::difCheck(AddressSpace &as, Addr src, std::uint32_t block,
                   std::uint64_t data_bytes, std::uint16_t app_tag,
                   std::uint32_t ref_tag)
{
    WorkDescriptor d = base(as, Opcode::DifCheck);
    d.src = src;
    d.size = data_bytes;
    d.difBlockBytes = block;
    d.appTag = app_tag;
    d.refTag = ref_tag;
    return d;
}

WorkDescriptor
Executor::difStrip(AddressSpace &as, Addr src, Addr dst,
                   std::uint32_t block, std::uint64_t data_bytes)
{
    WorkDescriptor d = base(as, Opcode::DifStrip);
    d.src = src;
    d.dst = dst;
    d.size = data_bytes;
    d.difBlockBytes = block;
    return d;
}

WorkDescriptor
Executor::difUpdate(AddressSpace &as, Addr src, Addr dst,
                    std::uint32_t block, std::uint64_t data_bytes,
                    std::uint16_t old_app_tag,
                    std::uint32_t old_ref_tag,
                    std::uint16_t new_app_tag,
                    std::uint32_t new_ref_tag)
{
    WorkDescriptor d = base(as, Opcode::DifUpdate);
    d.src = src;
    d.dst = dst;
    d.size = data_bytes;
    d.difBlockBytes = block;
    d.appTag = old_app_tag;
    d.refTag = old_ref_tag;
    d.newAppTag = new_app_tag;
    d.newRefTag = new_ref_tag;
    return d;
}

WorkDescriptor
Executor::cacheFlush(AddressSpace &as, Addr addr, std::uint64_t n)
{
    WorkDescriptor d = base(as, Opcode::CacheFlush);
    d.src = addr;
    d.size = n;
    return d;
}

WorkDescriptor
Executor::drain(AddressSpace &as)
{
    return base(as, Opcode::Drain);
}

Executor::Target &
Executor::pickTarget()
{
    fatal_if(targets.empty(), "no hardware targets configured");
    Target &t = targets[rr % targets.size()];
    ++rr;
    return t;
}

bool
Executor::shouldOffload(const WorkDescriptor &d) const
{
    if (targets.empty())
        return false;
    switch (cfg.path) {
      case Path::Software: return false;
      case Path::Hardware: return true;
      case Path::Auto: return d.size >= autoHwThreshold;
    }
    return false;
}

std::unique_ptr<Job>
Executor::prepare(const WorkDescriptor &d)
{
    auto job = std::make_unique<Job>(sim);
    job->desc = d;
    job->desc.completion = &job->cr;
    return job;
}

SimTask
Executor::releaseOnDone(CompletionRecord &cr, Semaphore &credits)
{
    if (!cr.isDone())
        co_await cr.done.wait();
    credits.release();
}

CoTask
Executor::submit(Core &core, Job &job)
{
    Target &t = pickTarget();
    job.usedHardware = true;
    job.targetDev = t.dev;
    job.submittedAt = sim.now();
    ++hwJobs;
    bytesOffloaded += job.desc.size;

    Submitter sub(core, t.dev->params());
    if (t.wq->mode == WorkQueue::Mode::Dedicated) {
        // The credit models the client-side occupancy tracking a
        // MOVDIR64B user must do.
        co_await t.credits->acquire();
        releaseOnDone(job.cr, *t.credits);
        co_await sub.movdir64b(*t.dev, *t.wq, job.desc);
    } else if (cfg.enqcmdMaxRetries == 0) {
        co_await sub.enqcmdRetry(*t.dev, *t.wq, job.desc);
    } else {
        Submitter::Enqueue outcome{};
        std::uint64_t retries = 0;
        co_await sub.enqcmdBackoff(
            *t.dev, *t.wq, job.desc,
            {.maxRetries = cfg.enqcmdMaxRetries,
             .base = enqcmdBackoffBase,
             .cap = enqcmdBackoffCap},
            outcome, retries);
        if (outcome == Submitter::Enqueue::GaveUp) {
            // Backoff exhausted with the SWQ still full: the job
            // never reached the device, so the driver writes the
            // terminal status (a Rejected portal write has already
            // completed the record with its cause).
            ++submitGiveUps;
            job.cr.bytesCompleted = 0;
            job.cr.complete(CompletionRecord::Status::QueueFull);
        }
    }
}

void
Executor::harvest(const CompletionRecord &cr, OpResult &out)
{
    static_cast<OpOutcome &>(out) = cr;
    out.ok = cr.status == CompletionRecord::Status::Success &&
             cr.result == 0;
    out.usedHardware = true;
}

std::shared_ptr<Executor::WatchdogArm>
Executor::armWatchdog(CompletionRecord &cr, DsaDevice *dev)
{
    auto arm = std::make_shared<WatchdogArm>();
    CompletionRecord *crp = &cr;
    Executor *self = this;
    const Tick grace = cfg.watchdogGrace;
    sim.scheduleIn(cfg.watchdogTimeout, [arm, crp, dev, self, grace] {
        if (arm->cancelled || crp->isDone())
            return;
        ++self->watchdogFires;
        // Release anything hung on the device; the descriptor then
        // publishes Aborted on its own.
        if (dev)
            dev->abortHung();
        // If even that produced no completion within the grace
        // window, the driver declares the job dead itself so the
        // waiter can never hang.
        self->sim.scheduleIn(grace, [arm, crp, self] {
            if (arm->cancelled || crp->isDone())
                return;
            ++self->watchdogForced;
            crp->bytesCompleted = 0;
            crp->complete(CompletionRecord::Status::Aborted);
        });
    });
    return arm;
}

CoTask
Executor::awaitCompletion(Core &core, CompletionRecord &cr,
                          DsaDevice *dev)
{
    std::shared_ptr<WatchdogArm> arm;
    if (cfg.watchdogTimeout > 0 && !cr.isDone())
        arm = armWatchdog(cr, dev);
    Submitter sub(core, targets.empty() ? DsaParams{}
                                        : targets[0].dev->params());
    co_await sub.umwait(cr);
    if (arm)
        arm->cancelled = true;
}

CoTask
Executor::wait(Core &core, Job &job, OpResult &out)
{
    panic_if(!job.usedHardware, "wait() on a non-submitted job");
    co_await awaitCompletion(core, job.cr, job.targetDev);
    harvest(job.cr, out);
    out.latency = sim.now() - job.submittedAt;
}

CoTask
Executor::execute(Core &core, const WorkDescriptor &d, OpResult &out)
{
    if (shouldOffload(d))
        co_await executeHardware(core, d, out);
    else
        co_await executeSoftware(core, d, out);
}

CoTask
Executor::executeHardware(Core &core, const WorkDescriptor &d,
                          OpResult &out)
{
    Tick t0 = sim.now();
    auto job = prepare(d);
    co_await submit(core, *job);
    co_await wait(core, *job, out);
    out.latency = sim.now() - t0;
}

CoTask
Executor::executeSoftware(Core &core, const WorkDescriptor &d,
                          OpResult &out)
{
    Tick t0 = sim.now();
    ++swJobs;
    // Cache-control off selects the non-temporal fill, keeping the
    // software baseline symmetric with the device's non-allocating
    // write path (Fig. 2's two fill series).
    SwKernels::Result r =
        kernels.run(core, mem.space(d.pasid), d,
                    d.op == Opcode::Fill && !d.wantsCacheControl());
    co_await core.busyFor(r.duration, "kernel");
    static_cast<OpOutcome &>(out) = r;
    out.ok = r.status == CompletionRecord::Status::Success &&
             r.result == 0;
    out.usedHardware = false;
    out.latency = sim.now() - t0;
}

bool
Executor::touchFaultPage(Pasid pasid, Addr va)
{
    PageTable &pt = mem.space(pasid).pageTable();
    if (!pt.lookup(va))
        return false;
    pt.setPresent(va, true);
    return true;
}

bool
Executor::advancePastCompleted(WorkDescriptor &d, std::uint64_t n,
                               const OpResult &partial)
{
    if (n > d.size)
        return false;
    const std::uint64_t blk = d.difBlockBytes;
    switch (d.op) {
      case Opcode::Memmove:
        d.src += n;
        d.dst += n;
        break;
      case Opcode::CopyCrc:
        d.src += n;
        d.dst += n;
        // The published CRC is finalized; undo the final inversion
        // to recover the running state as the remainder's seed.
        d.crcSeed = partial.crc ^ 0xffffffffu;
        break;
      case Opcode::CrcGen:
        d.src += n;
        d.crcSeed = partial.crc ^ 0xffffffffu;
        break;
      case Opcode::Dualcast:
        d.src += n;
        d.dst += n;
        d.dst2 += n;
        break;
      case Opcode::Fill:
        // Partial completions stop on a 4 KiB boundary, which is a
        // multiple of both pattern widths, so the phase is kept.
        d.dst += n;
        break;
      case Opcode::Compare:
        d.src += n;
        d.src2 += n;
        break;
      case Opcode::ComparePattern:
      case Opcode::CacheFlush:
        d.src += n;
        break;
      case Opcode::DifInsert:
      case Opcode::DifCheck:
      case Opcode::DifStrip:
      case Opcode::DifUpdate: {
        // n (bytesCompleted) counts data bytes of whole blocks.
        if (blk == 0 || n % blk != 0)
            return false;
        const std::uint64_t blocks = n / blk;
        const DifUnits u = difUnits(d);
        d.src += blocks * u.in;
        if (d.op != Opcode::DifCheck)
            d.dst += blocks * u.out;
        // Reference tags increment per block; the remainder starts
        // where the completed prefix left off.
        d.refTag += static_cast<std::uint32_t>(blocks);
        d.newRefTag += static_cast<std::uint32_t>(blocks);
        break;
      }
      default:
        // CreateDelta/ApplyDelta record offsets are absolute, and
        // Nop/Drain/Batch have no byte stream: restart from scratch.
        return false;
    }
    d.size -= n;
    return true;
}

CoTask
Executor::executeRecover(Core &core, const WorkDescriptor &d,
                         OpResult &out)
{
    if (!shouldOffload(d)) {
        co_await executeSoftware(core, d, out);
        co_return;
    }
    const Tick t0 = sim.now();
    WorkDescriptor cur = d;
    std::uint64_t done = 0;
    unsigned attempts = 0;
    using St = CompletionRecord::Status;
    for (;;) {
        auto job = prepare(cur);
        co_await submit(core, *job);
        OpResult r;
        co_await wait(core, *job, r);

        if (r.status == St::Success) {
            out = r;
            out.bytesCompleted += done;
            out.latency = sim.now() - t0;
            co_return;
        }
        if (attempts++ >= maxRecoveryAttempts)
            break;
        if (r.status == St::PageFault) {
            // A mismatch inside the completed prefix is a final
            // answer; the unread suffix cannot change it.
            if ((cur.op == Opcode::Compare ||
                 cur.op == Opcode::ComparePattern) && r.result == 1) {
                out = r;
                out.status = St::Success;
                out.bytesCompleted += done;
                out.latency = sim.now() - t0;
                co_return;
            }
            // block-on-fault = 0 partial completion: touch the
            // faulting page (the OS repage the spec prescribes) and
            // re-issue only the remainder.
            if (!touchFaultPage(cur.pasid, r.faultAddr))
                break; // truly unmapped; no retry can progress
            ++pageFaultResumes;
            co_await core.busyFor(faultTouchCost, "fault-touch");
            if (r.bytesCompleted > 0 &&
                advancePastCompleted(cur, r.bytesCompleted, r))
                done += r.bytesCompleted;
            continue;
        }
        if (r.status == St::Aborted) {
            // Mid-flight disable or watchdog abort: bring the device
            // back (abort/drain already ran in disable()) and
            // resubmit the same remainder.
            if (job->targetDev && !job->targetDev->enabled()) {
                job->targetDev->enable();
                ++deviceResets;
            }
            continue;
        }
        // Hardware error, WQ overflow, queue-full: a retry cannot
        // succeed; degrade straight to software.
        break;
    }
    // Finish the remainder on the CPU — the terminal fallback that
    // makes every job reach a final state.
    ++recoveryFallbacks;
    co_await executeSoftware(core, cur, out);
    out.bytesCompleted += done;
    out.latency = sim.now() - t0;
}

std::unique_ptr<Job>
Executor::prepareBatch(Pasid pasid,
                       const std::vector<WorkDescriptor> &subs)
{
    fatal_if(subs.empty(), "empty batch");
    auto job = std::make_unique<Job>(sim);
    job->desc.op = Opcode::Batch;
    job->desc.pasid = pasid;
    job->desc.completion = &job->cr;
    job->desc.batch =
        std::make_shared<std::vector<WorkDescriptor>>(subs);
    for (auto &sub : *job->desc.batch) {
        job->subCrs.push_back(std::make_unique<CompletionRecord>(sim));
        sub.completion = job->subCrs.back().get();
        job->desc.size += sub.size;
    }
    return job;
}

CoTask
Executor::executeBatch(Core &core,
                       const std::vector<WorkDescriptor> &subs,
                       OpResult &out)
{
    fatal_if(subs.empty(), "empty batch");
    auto job = prepareBatch(subs.front().pasid, subs);
    co_await submit(core, *job);
    co_await wait(core, *job, out);
    out.ok = job->cr.status == CompletionRecord::Status::Success;
}

} // namespace dsasim::dml
