#include "apps/nvmetcp.hh"

#include "ops/crc32.hh"
#include "ops/dif.hh"
#include "sim/random.hh"
#include "sim/logging.hh"

namespace dsasim::apps
{

NvmeTcpTarget::NvmeTcpTarget(Platform &p, AddressSpace &space,
                             dml::Executor *exec, const Config &cfg)
    : plat(p), as(space), executor(exec), config(cfg)
{
    fatal_if(cfg.digest == Digest::Dsa && !exec,
             "DSA digest mode needs an executor");
    fatal_if(cfg.targetCores == 0, "need at least one target core");
    freeCores = std::make_unique<Mailbox<int>>(plat.sim());
    for (unsigned c = 0; c < cfg.targetCores; ++c)
        freeCores->put(static_cast<int>(c));
    for (unsigned s = 0; s < cfg.ssdCount; ++s) {
        ssds.push_back(std::make_unique<LinkResource>(
            plat.sim(), cfg.ssdGBpsEach,
            "ssd" + std::to_string(s)));
    }
    net = std::make_unique<LinkResource>(plat.sim(), cfg.netGBps,
                                         "nvmetcp.net");
    // Payload staging buffers, one per outstanding request.
    dataPool =
        as.alloc(static_cast<std::uint64_t>(cfg.queueDepth) *
                 cfg.ioBytes);
    if (cfg.kind == Kind::Write) {
        fatal_if(cfg.ioBytes % cfg.difBlock != 0,
                 "write I/O size must be a multiple of the DIF "
                 "block size");
        protStride = (cfg.ioBytes / cfg.difBlock) *
                     (cfg.difBlock + difTupleBytes);
        protPool =
            as.alloc(static_cast<std::uint64_t>(cfg.queueDepth) *
                     protStride);
    }
    // Deterministic disk contents.
    std::vector<std::uint8_t> block(cfg.ioBytes);
    Rng rng(7);
    for (auto &b : block)
        b = static_cast<std::uint8_t>(rng.next32());
    for (unsigned q = 0; q < cfg.queueDepth; ++q)
        as.write(dataPool + q * cfg.ioBytes, block.data(),
                 block.size());
}

CoTask
NvmeTcpTarget::acquireCore(int &core_idx)
{
    core_idx = co_await freeCores->get();
}

void
NvmeTcpTarget::releaseCore(int core_idx)
{
    freeCores->put(core_idx);
}

SimTask
NvmeTcpTarget::handleIo(std::uint64_t id, Latch &done)
{
    Simulation &sim = plat.sim();
    const Tick issue = sim.now();
    const std::uint64_t slot = id % config.queueDepth;
    const Addr buf = dataPool + slot * config.ioBytes;
    const Tick pdu_cost = plat.core(0).cpuParams().cyclesToTicks(
        config.pduCycles / 2.0 +
        config.pduCyclesPerByte *
            static_cast<double>(config.ioBytes) / 2.0);

    if (config.kind == Kind::Write) {
        co_await handleWrite(id, slot, buf, pdu_cost, issue, done);
        co_return;
    }

    // ---- Receive/parse the command PDU on a target core ----------
    int core_idx = -1;
    co_await acquireCore(core_idx);
    {
        Core &core = plat.core(static_cast<std::size_t>(core_idx));
        co_await core.busyFor(pdu_cost, "nvmetcp-recv");
    }
    releaseCore(core_idx);

    // ---- Read the block from an SSD (off-core, polled) ------------
    LinkResource &ssd = *ssds[id % ssds.size()];
    Tick ssd_done = ssd.occupy(config.ioBytes) + config.ssdLatency;
    co_await sim.delayUntil(ssd_done);

    // ---- Data Digest + response PDU build/send ---------------------
    co_await acquireCore(core_idx);
    std::uint32_t digest = 0;
    switch (config.digest) {
      case Digest::None:
        break;
      case Digest::IsaL: {
        Core &core =
            plat.core(static_cast<std::size_t>(core_idx));
        auto r = plat.kernels().run(
            core, as, dml::Executor::crc32(as, buf, config.ioBytes),
            false);
        digest = r.crc;
        co_await core.busyFor(r.duration, "nvmetcp-crc");
        break;
      }
      case Digest::Dsa: {
        // Submit the CRC descriptor, then release the reactor core:
        // SPDK's accel framework polls for the completion while the
        // core serves other I/Os.
        Core &core =
            plat.core(static_cast<std::size_t>(core_idx));
        co_await core.busyFor(
            core.cpuParams().cyclesToTicks(config.offloadCycles),
            "nvmetcp-crc-submit");
        auto job = executor->prepare(
            dml::Executor::crc32(as, buf, config.ioBytes));
        co_await executor->submit(core, *job);
        releaseCore(core_idx);
        if (!job->cr.isDone())
            co_await job->cr.done.wait();
        digest = job->cr.crc;
        co_await acquireCore(core_idx);
        break;
      }
    }
    {
        Core &core =
            plat.core(static_cast<std::size_t>(core_idx));
        co_await core.busyFor(pdu_cost, "nvmetcp-send");
    }
    releaseCore(core_idx);

    // Initiator-side verification of the digest.
    if (config.digest != Digest::None) {
        std::vector<std::uint8_t> data(config.ioBytes);
        as.read(buf, data.data(), data.size());
        if (crc32cFull(data.data(), data.size()) != digest)
            ++crcErrors;
    }

    // ---- Ship the data PDU over the wire ---------------------------
    co_await net->transfer(config.ioBytes);

    latency.add(toUs(sim.now() - issue));
    ++completed;

    // Closed loop: reissue immediately unless we are done.
    if (sim.now() < deadline) {
        handleIo(id + config.queueDepth, done);
    } else {
        done.arrive();
    }
}

CoTask
NvmeTcpTarget::handleWrite(std::uint64_t id, std::uint64_t slot,
                           Addr buf, Tick pdu_cost, Tick issue,
                           Latch &done)
{
    Simulation &sim = plat.sim();
    const std::uint64_t nblocks = config.ioBytes / config.difBlock;
    const Addr prot = protPool + slot * protStride;

    // ---- Data lands from the wire, then the command PDU parses ----
    co_await net->transfer(config.ioBytes);
    int core_idx = -1;
    co_await acquireCore(core_idx);
    {
        Core &core = plat.core(static_cast<std::size_t>(core_idx));
        co_await core.busyFor(pdu_cost, "nvmetcp-recv");
    }

    // ---- Protect the blocks with T10-DIF before they hit media ----
    switch (config.digest) {
      case Digest::None:
        // Unprotected write: blocks go to media as received.
        break;
      case Digest::IsaL: {
        Core &core = plat.core(static_cast<std::size_t>(core_idx));
        auto r = plat.kernels().run(
            core, as,
            dml::Executor::difInsert(
                as, buf, prot, config.difBlock, config.ioBytes, 0,
                static_cast<std::uint32_t>(slot * nblocks)),
            false);
        co_await core.busyFor(r.duration, "nvmetcp-dif");
        break;
      }
      case Digest::Dsa: {
        Core &core = plat.core(static_cast<std::size_t>(core_idx));
        co_await core.busyFor(
            core.cpuParams().cyclesToTicks(config.offloadCycles),
            "nvmetcp-dif-submit");
        auto job = executor->prepare(dml::Executor::difInsert(
            as, buf, prot, config.difBlock, config.ioBytes, 0,
            static_cast<std::uint32_t>(slot * nblocks)));
        co_await executor->submit(core, *job);
        releaseCore(core_idx);
        if (!job->cr.isDone())
            co_await job->cr.done.wait();
        co_await acquireCore(core_idx);
        break;
      }
    }
    {
        Core &core = plat.core(static_cast<std::size_t>(core_idx));
        co_await core.busyFor(pdu_cost / 4, "nvmetcp-ack");
    }
    releaseCore(core_idx);

    // ---- Media write of the (protected) blocks ---------------------
    LinkResource &ssd = *ssds[id % ssds.size()];
    std::uint64_t media_bytes =
        config.digest == Digest::None
            ? config.ioBytes
            : nblocks * (config.difBlock + difTupleBytes);
    Tick ssd_done = ssd.occupy(media_bytes) + config.ssdLatency;
    co_await sim.delayUntil(ssd_done);

    latency.add(toUs(sim.now() - issue));
    ++completed;
    if (sim.now() < deadline) {
        handleIo(id + config.queueDepth, done);
    } else {
        done.arrive();
    }
}

SimTask
NvmeTcpTarget::run(Tick until)
{
    Simulation &sim = plat.sim();
    deadline = until;
    Tick t0 = sim.now();
    Latch done(sim, config.queueDepth);
    for (unsigned q = 0; q < config.queueDepth; ++q)
        handleIo(q, done);
    co_await done.wait();
    measuredTicks = sim.now() - t0;
}

} // namespace dsasim::apps
