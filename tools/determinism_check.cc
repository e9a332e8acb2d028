/**
 * @file
 * determinism_check — end-to-end guard for the invariant simlint
 * enforces statically (DESIGN.md §9): a scenario simulated twice must
 * execute the exact same event stream.
 *
 * The harness builds a platform, drives a deterministic mix of
 * offloaded operations (memMove/fill/crc32/compare across transfer
 * sizes, with occasional page evictions to exercise the fault/resume
 * path), and records three fingerprints per run:
 *
 *   - the kernel's event-stream hash: FNV-1a over the (tick, seq) of
 *     every executed event (Simulation::enableStreamHash);
 *   - a completion hash over every descriptor's terminal record
 *     (status, bytesCompleted, crc, result, latency);
 *   - the final virtual time and executed-event count.
 *
 * It then re-runs the identical scenario from scratch and fails
 * loudly if any fingerprint differs. Wall-clock reads, host entropy,
 * unordered-container iteration or address-dependent ordering in sim
 * code all show up here as a hash mismatch.
 *
 * With --fork the harness instead guards the snapshot contract
 * (DESIGN.md §10): it runs the first half of the mix, captures a
 * Snapshot of the quiesced platform, then plays the second half two
 * ways — continuing on the original platform ("cold") and on two
 * independent Snapshot::fork() continuations — and requires all
 * three fingerprints to be identical. A divergence means fork()
 * failed to reproduce some piece of platform state.
 *
 * With --partitions=K the harness guards the partitioning contract
 * (DESIGN.md §11): a 4-socket SocketCluster — per-socket descriptor
 * mixes plus cross-socket RemotePort push/pull traffic over the UPI
 * ring — is simulated once on 1 worker thread and once on K, and the
 * cross-domain fingerprints (combined stream hash, completion hashes
 * folded in socket order, event count, end tick) must match exactly.
 * Composes with --faults (per-socket injectors) and with --fork
 * (a ClusterSnapshot is continued cold, rewound in place, and
 * restored into a freshly built cluster, on differing thread
 * counts).
 *
 * With --serving the harness guards the serving-stack contract
 * (DESIGN.md §12): a 2-socket cluster of open-loop PASID-isolated
 * tenants runs through the full degradation ladder — WQ admission
 * (token buckets + class limits), bounded jittered ENQCMD backoff,
 * circuit breakers, CPU fallback — on 1 worker thread and on K
 * (--partitions, default 4), and the fingerprints must be
 * bit-identical mid-overload. Composes with --faults (per-socket
 * injectors, e.g. pasid=-scoped rules).
 *
 * With --telemetry the harness guards the observer contract of the
 * stats subsystem (DESIGN.md §15): the same run with sampling off,
 * at a 1 ns period, and at the default 1 us period must produce
 * bit-identical fingerprints — the sample hook observes the
 * schedule, it never participates in it.
 *
 * Usage: determinism_check [--n=2000] [--seed=42] [--faults=SPEC]
 *                          [--fork] [--partitions=K] [--serving]
 *                          [--telemetry]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dml/dml.hh"
#include "dml/serving.hh"
#include "driver/cluster.hh"
#include "driver/platform.hh"
#include "driver/snapshot.hh"
#include "dsa/qos.hh"
#include "sim/random.hh"
#include "sim/traffic.hh"

using namespace dsasim;

namespace
{

struct Options
{
    std::uint64_t n = 2000;
    std::uint64_t seed = 42;
    std::string faults; ///< empty = no injection
    bool fork = false;  ///< cold-vs-forked instead of run-vs-rerun
    unsigned partitions = 0; ///< >0: 1-thread vs K-thread cluster
    bool serving = false; ///< serving-stack scenario (DESIGN.md §12)
    bool telemetry = false; ///< sampling on/off/period purity (§15)
};

struct Fingerprint
{
    std::uint64_t streamHash = 0;
    std::uint64_t completionHash = 0;
    std::uint64_t eventsExecuted = 0;
    Tick endTick = 0;

    bool
    operator==(const Fingerprint &o) const
    {
        return streamHash == o.streamHash &&
               completionHash == o.completionHash &&
               eventsExecuted == o.eventsExecuted &&
               endTick == o.endTick;
    }
};

void
fnv1a(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

SimTask
driver(Platform &plat, dml::Executor &exec, AddressSpace &as,
       std::uint64_t seed, std::uint64_t count, Addr src, Addr dst,
       std::uint64_t span, std::uint64_t &completion_hash,
       RemotePort *remote = nullptr)
{
    Rng rng(seed);
    Core &core = plat.core(0);
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!plat.dsa(0).enabled())
            plat.dsa(0).enable();
        if (remote && rng.chance(0.2)) {
            // Cross-socket traffic over the UPI ring, interleaved
            // with the local descriptor mix so link events race
            // against DSA completions in both domains.
            if (rng.chance(0.3))
                co_await remote->pull(rng.range(1 << 10, 1 << 14));
            else
                co_await remote->push(rng.range(1 << 10, 1 << 16));
        }
        std::uint64_t n = rng.range(64, 64 << 10);
        std::uint64_t so = rng.range(0, span - n);
        std::uint64_t dof = rng.range(0, span - n);
        unsigned kind = static_cast<unsigned>(rng.below(4));
        if (rng.chance(0.05))
            as.evictPage(src + rng.below(span / 4096) * 4096);

        WorkDescriptor d;
        switch (kind) {
          case 0:
            d = dml::Executor::memMove(as, dst + dof, src + so, n);
            break;
          case 1:
            d = dml::Executor::fill(as, dst + dof, rng.next64(), n);
            break;
          case 2:
            d = dml::Executor::crc32(as, src + so, n);
            break;
          default:
            d = dml::Executor::compare(as, src + so, dst + dof, n);
            break;
        }
        d.flags &= ~descflags::blockOnFault;

        dml::OpResult r;
        co_await exec.executeRecover(core, d, r);
        fnv1a(completion_hash, static_cast<std::uint64_t>(r.status));
        fnv1a(completion_hash, r.bytesCompleted);
        fnv1a(completion_hash, r.crc);
        fnv1a(completion_hash, r.result);
        fnv1a(completion_hash, r.latency);
    }
}

Fingerprint
runScenario(const Options &opt)
{
    Simulation sim;
    sim.enableStreamHash(true);
    PlatformConfig cfg = PlatformConfig::spr();
    cfg.numCores = 2;
    cfg.numDsaDevices = 1;
    for (auto &node : cfg.mem.nodes)
        node.capacityBytes = 1ull << 30;
    Platform plat(sim, cfg);
    DsaTopology::basic(32, 2).apply(plat.dsa(0));

    if (!opt.faults.empty()) {
        plat.setFaultInjector(
            FaultInjector::fromSpec(opt.faults, opt.seed));
    }

    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    ec.watchdogTimeout = fromUs(500);
    dml::Executor exec(sim, plat.mem(), plat.kernels(),
                       std::vector<DsaDevice *>{&plat.dsa(0)}, ec);

    AddressSpace &as = plat.mem().createSpace();
    const std::uint64_t span = 1 << 20;
    Addr src = as.alloc(span);
    Addr dst = as.alloc(span);
    {
        Rng init(opt.seed ^ 0x9e3779b97f4a7c15ull);
        std::vector<std::uint8_t> buf(span);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(init.next32());
        as.write(src, buf.data(), span);
        as.write(dst, buf.data(), span);
    }

    Fingerprint fp;
    driver(plat, exec, as, opt.seed, opt.n, src, dst, span,
           fp.completionHash);
    sim.run();
    fp.streamHash = sim.streamHash();
    fp.eventsExecuted = sim.eventsExecuted();
    fp.endTick = sim.now();
    return fp;
}

void
print(const char *label, const Fingerprint &fp)
{
    std::printf("%s: stream=%016llx completions=%016llx "
                "events=%llu end=%.3fus\n",
                label,
                static_cast<unsigned long long>(fp.streamHash),
                static_cast<unsigned long long>(fp.completionHash),
                static_cast<unsigned long long>(fp.eventsExecuted),
                toUs(fp.endTick));
}

/**
 * Snapshot-contract guard (--fork): run half the mix, capture a
 * Snapshot of the quiesced platform, then play the second half three
 * ways — continuing cold on the source platform and on two
 * independent Snapshot::fork() continuations (the second forked
 * *after* the first fork and the cold run have both mutated their
 * copies, exercising copy-on-write isolation). All three
 * fingerprints must be identical.
 */
int
runForkCheck(const Options &opt)
{
    const std::uint64_t n_a = opt.n / 2;
    const std::uint64_t n_b = opt.n - n_a;
    const std::uint64_t seed_b = opt.seed ^ 0xb5c0ffeeull;

    Simulation sim;
    sim.enableStreamHash(true);
    PlatformConfig cfg = PlatformConfig::spr();
    cfg.numCores = 2;
    cfg.numDsaDevices = 1;
    for (auto &node : cfg.mem.nodes)
        node.capacityBytes = 1ull << 30;
    Platform plat(sim, cfg);
    DsaTopology::basic(32, 2).apply(plat.dsa(0));

    if (!opt.faults.empty()) {
        plat.setFaultInjector(
            FaultInjector::fromSpec(opt.faults, opt.seed));
    }

    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    ec.watchdogTimeout = fromUs(500);
    dml::Executor exec(sim, plat.mem(), plat.kernels(),
                       std::vector<DsaDevice *>{&plat.dsa(0)}, ec);

    AddressSpace &as = plat.mem().createSpace();
    const std::uint64_t span = 1 << 20;
    Addr src = as.alloc(span);
    Addr dst = as.alloc(span);
    {
        Rng init(opt.seed ^ 0x9e3779b97f4a7c15ull);
        std::vector<std::uint8_t> buf(span);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(init.next32());
        as.write(src, buf.data(), span);
        as.write(dst, buf.data(), span);
    }

    // Phase A, then checkpoint the drained platform.
    std::uint64_t hash_a = 0;
    driver(plat, exec, as, opt.seed, n_a, src, dst, span, hash_a);
    sim.run();
    Snapshot snap = Snapshot::capture(plat);
    dml::Executor::State exec_state = exec.saveState();

    auto phaseB = [&](Simulation &s, Platform &p, dml::Executor &e,
                      AddressSpace &space) {
        Fingerprint fp;
        driver(p, e, space, seed_b, n_b, src, dst, span,
               fp.completionHash);
        s.run();
        fp.streamHash = s.streamHash();
        fp.eventsExecuted = s.eventsExecuted();
        fp.endTick = s.now();
        return fp;
    };
    auto forkArm = [&]() {
        auto f = snap.fork();
        dml::Executor fe(f->sim, f->plat().mem(),
                         f->plat().kernels(),
                         std::vector<DsaDevice *>{&f->plat().dsa(0)},
                         ec);
        fe.restoreState(exec_state);
        return phaseB(f->sim, f->plat(), fe,
                      f->plat().mem().space(1));
    };

    Fingerprint fork1 = forkArm();
    Fingerprint cold = phaseB(sim, plat, exec, as);
    Fingerprint fork2 = forkArm();
    print("cold  ", cold);
    print("fork 1", fork1);
    print("fork 2", fork2);

    if (!(cold == fork1) || !(cold == fork2)) {
        std::fprintf(stderr,
                     "FAIL: a forked continuation diverged from the "
                     "cold run — Snapshot::fork() did not reproduce "
                     "the captured platform state\n");
        return 1;
    }
    std::printf("determinism_check --fork: PASS (%llu+%llu "
                "descriptors, seed %llu)\n",
                static_cast<unsigned long long>(n_a),
                static_cast<unsigned long long>(n_b),
                static_cast<unsigned long long>(opt.seed));
    return 0;
}

/**
 * A 4-socket SocketCluster plus the per-socket harness state
 * (executor, address space, buffers) the partition checks drive.
 * The cluster shape is fixed; --partitions only picks how many
 * worker threads execute it.
 */
struct ClusterRig
{
    static constexpr std::uint64_t span = 1 << 20;

    SocketCluster cl;
    std::vector<std::unique_ptr<dml::Executor>> execs;
    std::vector<Addr> src, dst;

    static ClusterConfig
    clusterConfig()
    {
        ClusterConfig cc;
        cc.sockets = 4;
        cc.socket = PlatformConfig::spr();
        cc.socket.numCores = 2;
        cc.socket.numDsaDevices = 1;
        // Devices come up configured straight from the config so a
        // freshly built cluster is a valid Snapshot restore target.
        cc.socket.dsaTopology = DsaTopology::basic(32, 2);
        for (auto &node : cc.socket.mem.nodes)
            node.capacityBytes = 1ull << 30;
        return cc;
    }

    /**
     * @p restore_target builds only the bare cluster: spaces,
     * buffers, injectors and executor state all arrive with the
     * ClusterSnapshot (restore() installs the captured injectors,
     * RNG position included).
     */
    explicit ClusterRig(const Options &opt, bool restore_target = false)
        : cl(clusterConfig())
    {
        cl.enableStreamHash(true);
        if (restore_target)
            return;
        for (unsigned s = 0; s < cl.socketCount(); ++s) {
            Platform &p = cl.plat(s);
            if (!opt.faults.empty()) {
                p.setFaultInjector(
                    FaultInjector::fromSpec(opt.faults,
                                            opt.seed + s));
            }
            AddressSpace &as = p.mem().createSpace();
            src.push_back(as.alloc(span));
            dst.push_back(as.alloc(span));
            Rng init(opt.seed ^ 0x9e3779b97f4a7c15ull ^ s);
            std::vector<std::uint8_t> buf(span);
            for (auto &b : buf)
                b = static_cast<std::uint8_t>(init.next32());
            as.write(src[s], buf.data(), span);
            as.write(dst[s], buf.data(), span);
        }
        buildExecutors();
    }

    void
    buildExecutors()
    {
        execs.clear();
        for (unsigned s = 0; s < cl.socketCount(); ++s) {
            Platform &p = cl.plat(s);
            dml::ExecutorConfig ec;
            ec.path = dml::Path::Hardware;
            ec.watchdogTimeout = fromUs(500);
            execs.push_back(std::make_unique<dml::Executor>(
                cl.domainSim(s), p.mem(), p.kernels(),
                std::vector<DsaDevice *>{&p.dsa(0)}, ec));
        }
    }

    /**
     * Drive @p per_socket descriptors on every socket (each with its
     * own seed lane and a RemotePort to its ring neighbor) and run
     * the cluster on @p threads workers. The fingerprint folds the
     * per-socket completion hashes in socket order on top of the
     * cross-domain stream hash.
     */
    Fingerprint
    phase(std::uint64_t seed, std::uint64_t per_socket,
          unsigned threads)
    {
        const unsigned n = cl.socketCount();
        std::vector<std::uint64_t> chash(n, 0);
        for (unsigned s = 0; s < n; ++s) {
            driver(cl.plat(s), *execs[s], cl.plat(s).mem().space(1),
                   seed ^ (s * 0x9e3779b97f4a7c15ull), per_socket,
                   src[s], dst[s], span, chash[s],
                   &cl.port(s, (s + 1) % n));
        }
        cl.run(threads);
        Fingerprint fp;
        fp.streamHash = cl.streamHash();
        for (std::uint64_t h : chash)
            fnv1a(fp.completionHash, h);
        fp.eventsExecuted = cl.eventsExecuted();
        fp.endTick = cl.endTick();
        return fp;
    }
};

/**
 * Partitioning-contract guard: the identical 4-socket scenario on 1
 * worker thread and on K must produce identical fingerprints.
 */
int
runPartitionCheck(const Options &opt)
{
    const std::uint64_t per =
        std::max<std::uint64_t>(1, opt.n / 4);
    auto once = [&](unsigned threads) {
        ClusterRig rig(opt);
        return rig.phase(opt.seed, per, threads);
    };
    Fingerprint serial = once(1);
    print("1 thread ", serial);
    Fingerprint par = once(opt.partitions);
    char label[32];
    std::snprintf(label, sizeof(label), "%u threads",
                  opt.partitions);
    print(label, par);

    if (!(serial == par)) {
        std::fprintf(stderr,
                     "FAIL: the %u-thread run diverged from the "
                     "serial run — cross-domain event order leaked "
                     "the worker-thread count\n",
                     opt.partitions);
        return 1;
    }
    std::printf("determinism_check --partitions=%u: PASS (4 sockets "
                "x %llu descriptors, seed %llu)\n",
                opt.partitions,
                static_cast<unsigned long long>(per),
                static_cast<unsigned long long>(opt.seed));
    return 0;
}

/**
 * Partition + snapshot guard (--fork --partitions=K): run phase A on
 * K threads, capture a ClusterSnapshot of the drained cluster, then
 * play phase B three ways — restored into a freshly built cluster
 * (K threads), continued cold on the source cluster (1 thread), and
 * rewound in place on the source cluster (K threads). All three
 * fingerprints must match.
 */
int
runPartitionForkCheck(const Options &opt)
{
    const std::uint64_t per = std::max<std::uint64_t>(1, opt.n / 4);
    const std::uint64_t per_a = per / 2;
    const std::uint64_t per_b = per - per_a;
    const std::uint64_t seed_b = opt.seed ^ 0xb5c0ffeeull;

    ClusterRig rig(opt);
    rig.phase(opt.seed, per_a, opt.partitions);
    SocketCluster::ClusterSnapshot snap = rig.cl.capture();
    std::vector<dml::Executor::State> est;
    for (auto &e : rig.execs)
        est.push_back(e->saveState());

    auto rewind = [&](ClusterRig &r) {
        r.cl.restore(snap);
        for (unsigned s = 0; s < r.cl.socketCount(); ++s)
            r.execs[s]->restoreState(est[s]);
    };

    // Restore into a brand-new cluster built from the same config
    // (exercising snapshot portability across cluster instances),
    // and run phase B on K threads.
    ClusterRig fresh(opt, /*restore_target=*/true);
    fresh.cl.restore(snap);
    fresh.src = rig.src;
    fresh.dst = rig.dst;
    fresh.buildExecutors();
    for (unsigned s = 0; s < fresh.cl.socketCount(); ++s)
        fresh.execs[s]->restoreState(est[s]);
    Fingerprint restored = fresh.phase(seed_b, per_b,
                                       opt.partitions);

    // Cold continuation of the source cluster, serially.
    Fingerprint cold = rig.phase(seed_b, per_b, 1);

    // Rewind the source cluster in place and replay on K threads.
    rewind(rig);
    Fingerprint rewound = rig.phase(seed_b, per_b, opt.partitions);

    print("cold    ", cold);
    print("restored", restored);
    print("rewound ", rewound);

    if (!(cold == restored) || !(cold == rewound)) {
        std::fprintf(stderr,
                     "FAIL: a snapshot continuation diverged — "
                     "ClusterSnapshot did not reproduce the captured "
                     "cluster state, or delivery order leaked the "
                     "thread count\n");
        return 1;
    }
    std::printf("determinism_check --fork --partitions=%u: PASS "
                "(4 sockets x %llu+%llu descriptors, seed %llu)\n",
                opt.partitions,
                static_cast<unsigned long long>(per_a),
                static_cast<unsigned long long>(per_b),
                static_cast<unsigned long long>(opt.seed));
    return 0;
}

/**
 * Serving-stack guard (--serving): the full overload degradation
 * ladder — open-loop tenants, WQ admission, jittered backoff,
 * breakers, CPU fallback — simulated on a 2-socket cluster at 1
 * worker thread and at K. The fingerprint folds the cross-domain
 * stream hash with per-tenant terminal counters, so a single retry
 * or shed decided differently on the K-thread run fails the check.
 */
Fingerprint
runServingScenario(const Options &opt, unsigned threads)
{
    const unsigned tenants = 64;
    const std::uint64_t requests =
        std::max<std::uint64_t>(1, opt.n / tenants);

    ClusterConfig cc;
    cc.sockets = 2;
    cc.socket = PlatformConfig::spr();
    cc.socket.numCores = 4;
    cc.socket.numDsaDevices = 1;
    cc.socket.dsaTopology =
        DsaTopology::basic(32, 2, WorkQueue::Mode::Shared);
    for (auto &node : cc.socket.mem.nodes)
        node.capacityBytes = 1ull << 30;
    SocketCluster cl(cc);
    cl.enableStreamHash(true);

    struct Rig
    {
        std::unique_ptr<dml::Executor> exec;
        std::unique_ptr<dml::ServingNode> node;
        std::unique_ptr<WqAdmission> admission;
        std::unique_ptr<Latch> done;
    };
    std::vector<Rig> rigs(cl.socketCount());

    dml::ServingConfig sc;
    sc.maxRetries = 4;
    sc.backoffBase = fromNs(200);
    sc.backoffCap = fromUs(2);
    sc.outstandingCap = 12;
    sc.watchdogTimeout = fromUs(500);
    sc.breaker.window = 16;
    sc.breaker.cooldown = fromUs(150);
    sc.seed = opt.seed;

    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        Platform &p = cl.plat(s);
        if (!opt.faults.empty()) {
            p.setFaultInjector(
                FaultInjector::fromSpec(opt.faults, opt.seed + s));
        }
        Rig &rig = rigs[s];
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        rig.exec = std::make_unique<dml::Executor>(
            cl.domainSim(s), p.mem(), p.kernels(),
            std::vector<DsaDevice *>{&p.dsa(0)}, ec);
        rig.node = std::make_unique<dml::ServingNode>(cl.domainSim(s),
                                                      *rig.exec, sc);
        WqAdmission::Config ac;
        ac.bucket = {3000, 8};
        rig.admission = std::make_unique<WqAdmission>(ac);
        p.dsa(0).installAdmission(0, rig.admission.get());
        const std::uint64_t onSocket =
            (tenants - s + cl.socketCount() - 1) / cl.socketCount();
        rig.done = std::make_unique<Latch>(cl.domainSim(s),
                                           onSocket * requests);
    }

    const ArrivalMix mix = ArrivalMix::parse(
        "poisson:rate=2000,weight=3,bytes=1024;"
        "bursty:rate=4000,factor=16,period=24,duty=0.25,weight=1,"
        "bytes=16384");
    for (unsigned t = 0; t < tenants; ++t) {
        const unsigned s = t % cl.socketCount();
        Platform &p = cl.plat(s);
        const ArrivalClass &cls = mix.classFor(t);
        AddressSpace &as = p.mem().createSpace();
        const std::uint64_t bytes = cls.payloadBytes;
        Addr src = as.alloc(bytes);
        Addr dst = as.alloc(bytes);
        auto make = [&as, src, dst,
                     bytes](std::uint64_t k) -> WorkDescriptor {
            switch (k % 3) {
              case 0:
                return dml::Executor::memMove(as, dst, src, bytes);
              case 1:
                return dml::Executor::crc32(as, src, bytes);
              default:
                return dml::Executor::comparePattern(as, src, 0,
                                                     bytes);
            }
        };
        dml::TenantSession &sess = rigs[s].node->addTenant(
            as.pasid(), p.core(t % 4), p.dsa(0), p.dsa(0).wq(0),
            make);
        rigs[s].node->openLoop(sess, ArrivalStream(opt.seed, t, cls),
                               requests, *rigs[s].done);
    }
    cl.run(threads);

    Fingerprint fp;
    fp.streamHash = cl.streamHash();
    fp.eventsExecuted = cl.eventsExecuted();
    fp.endTick = cl.endTick();
    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        if (!rigs[s].done->done()) {
            std::fprintf(stderr,
                         "FAIL: serving scenario hung on socket %u "
                         "(%llu request(s) unaccounted)\n",
                         s,
                         static_cast<unsigned long long>(
                             rigs[s].done->pending()));
            std::exit(1);
        }
        const dml::TenantStats total = rigs[s].node->aggregate();
        fnv1a(fp.completionHash, total.completed());
        fnv1a(fp.completionHash, total.retries);
        fnv1a(fp.completionHash, total.giveUps);
        fnv1a(fp.completionHash, total.fallbacks);
        fnv1a(fp.completionHash, total.dropped);
        fnv1a(fp.completionHash, total.shedBreaker);
        fnv1a(fp.completionHash,
              rigs[s].admission->totalThrottled +
                  rigs[s].admission->totalBusy);
    }
    return fp;
}

/**
 * Telemetry-purity guard (--telemetry): the sample hook must be a
 * pure observer. The same scenario runs with sampling off, with
 * DSASIM_STATS at a 1 ns period (a sample opportunity at every
 * event), and at the default 1 us period; all three fingerprints
 * must be bit-identical (DESIGN.md §15). Composes with --faults.
 */
int
runTelemetryCheck(const Options &opt)
{
    unsetenv("DSASIM_STATS");
    Fingerprint off = runScenario(opt);
    print("stats off   ", off);

    setenv("DSASIM_STATS", "determinism-telemetry-", 1);
    setenv("DSASIM_STATS_PERIOD", "1", 1);
    Fingerprint fine = runScenario(opt);
    print("period 1ns  ", fine);

    setenv("DSASIM_STATS_PERIOD", "1000", 1);
    Fingerprint coarse = runScenario(opt);
    print("period 1us  ", coarse);

    unsetenv("DSASIM_STATS");
    unsetenv("DSASIM_STATS_PERIOD");

    if (!(off == fine) || !(off == coarse)) {
        std::fprintf(stderr,
                     "FAIL: telemetry sampling perturbed the event "
                     "stream — the sample hook scheduled an event, "
                     "consumed a sequence number, or mutated "
                     "simulated state (DESIGN.md §15)\n");
        return 1;
    }
    std::printf("determinism_check --telemetry: PASS (%llu "
                "descriptors, seed %llu%s)\n",
                static_cast<unsigned long long>(opt.n),
                static_cast<unsigned long long>(opt.seed),
                opt.faults.empty() ? "" : ", faulted");
    return 0;
}

int
runServingCheck(const Options &opt)
{
    const unsigned k = opt.partitions ? opt.partitions : 4;
    Fingerprint serial = runServingScenario(opt, 1);
    print("1 thread ", serial);
    Fingerprint par = runServingScenario(opt, k);
    char label[32];
    std::snprintf(label, sizeof(label), "%u threads", k);
    print(label, par);

    if (!(serial == par)) {
        std::fprintf(stderr,
                     "FAIL: the %u-thread serving run diverged from "
                     "the serial run — an admission, backoff, or "
                     "breaker decision leaked the worker-thread "
                     "count\n",
                     k);
        return 1;
    }
    std::printf("determinism_check --serving --partitions=%u: PASS "
                "(64 tenants, seed %llu)\n",
                k, static_cast<unsigned long long>(opt.seed));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *key) -> const char * {
            std::size_t klen = std::strlen(key);
            if (a.compare(0, klen, key) == 0)
                return a.c_str() + klen;
            return nullptr;
        };
        if (const char *v1 = val("--n="))
            opt.n = std::strtoull(v1, nullptr, 0);
        else if (const char *v2 = val("--seed="))
            opt.seed = std::strtoull(v2, nullptr, 0);
        else if (const char *v3 = val("--faults="))
            opt.faults = v3;
        else if (const char *v4 = val("--partitions="))
            opt.partitions =
                static_cast<unsigned>(std::strtoul(v4, nullptr, 0));
        else if (a == "--fork")
            opt.fork = true;
        else if (a == "--serving")
            opt.serving = true;
        else if (a == "--telemetry")
            opt.telemetry = true;
        else {
            std::fprintf(stderr,
                         "usage: determinism_check [--n=N] "
                         "[--seed=S] [--faults=SPEC] [--fork] "
                         "[--partitions=K] [--serving] "
                         "[--telemetry]\n");
            return 2;
        }
    }

    if (opt.telemetry)
        return runTelemetryCheck(opt);
    if (opt.serving)
        return runServingCheck(opt);
    if (opt.partitions > 0)
        return opt.fork ? runPartitionForkCheck(opt)
                        : runPartitionCheck(opt);
    if (opt.fork)
        return runForkCheck(opt);

    Fingerprint first = runScenario(opt);
    print("run 1", first);
    Fingerprint second = runScenario(opt);
    print("run 2", second);

    if (!(first == second)) {
        std::fprintf(stderr,
                     "FAIL: event streams diverged — the simulator "
                     "consumed non-deterministic input (host time, "
                     "entropy, iteration order, or addresses)\n");
        return 1;
    }
    std::printf("determinism_check: PASS (%llu descriptors, seed "
                "%llu)\n",
                static_cast<unsigned long long>(opt.n),
                static_cast<unsigned long long>(opt.seed));
    return 0;
}
