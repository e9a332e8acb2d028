/**
 * @file
 * Open-loop multi-tenant serving under overload: the "millions of
 * users" scenario the ROADMAP names, on a 2-socket cluster.
 *
 * N tenants (--tenants=N, default 1024) split across the sockets,
 * each PASID-isolated in its own address space, submit to one shared
 * (ENQCMD) WQ per socket through the dml::ServingNode degradation
 * ladder (serving.hh). The arrival mix (DSASIM_ARRIVALS) blends a
 * large population of small poisson "victim" tenants with a few
 * bursty large-payload aggressors whose on-phases overload the SWQ:
 * ENQCMD retry storms, bounded jittered backoff, circuit-breaker
 * sheds and CPU fallback all happen mid-run, while a cross-socket
 * UPI digest stream keeps the partition barrier honest.
 *
 * Two policy arms run back to back:
 *   no-qos: the bare SWQ threshold (the paper's Fig. 9 world) —
 *           aggressor bursts collapse victim tail latency;
 *   qos:    WqAdmission installed (per-tenant token buckets +
 *           Opportunistic class for aggressors) — victims keep
 *           their tail while aggressors throttle/shed.
 *
 * Each arm runs at 1 and 4 worker threads; the simulated fingerprint
 * (events, end_us, stream_hash) must be bit-identical across thread
 * counts even mid-overload — asserted on every run.
 *
 * Usage:
 *   bench_serving [--n=REQ/TENANT] [--tenants=N] [--seed=S]
 *                 [--json=PATH] [--check=PATH]
 *
 * Prints the metrics as a JSON object and --json writes it to PATH.
 * --check compares against a committed JSON (the Gate in common.hh):
 * fingerprints, counters and end_us exactly, latencies and goodput
 * within a 25% band, and enforces the robustness invariants (zero
 * hangs, degradation actually engaged, retries bounded, qos arm
 * protects the victim tail). Every gated value is simulated.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "dml/serving.hh"
#include "driver/cluster.hh"
#include "dsa/qos.hh"
#include "sim/traffic.hh"

namespace dsasim::bench
{
namespace
{

/// Band for simulated latency and goodput, and the slack the qos arm's
/// victim p99 may have over the no-qos arm's.
constexpr double kTolerance = 0.25;

constexpr const char *kDefaultMix =
    "poisson:rate=1200,weight=14,bytes=2048;"
    "bursty:rate=2500,factor=24,period=32,duty=0.25,weight=2,"
    "bytes=32768";

struct Params
{
    unsigned tenants = 1024; ///< across the cluster
    std::uint64_t requests = 16; ///< per tenant
    std::uint64_t seed = 1;
    std::string mixSpec = kDefaultMix;
};

ClusterConfig
clusterConfig()
{
    ClusterConfig cc;
    cc.sockets = 2;
    cc.socket = PlatformConfig::spr();
    cc.socket.numCores = 4;
    cc.socket.numDsaDevices = 1;
    // Two shared WQs in one group, deliberately modest so overload
    // is provable, not theoretical: WQ0 is the high-priority portal
    // (the qos arm reserves it for victims), WQ1 the low-priority
    // bulk portal with a reduced ENQCMD threshold. The no-qos arm
    // sends every tenant through WQ0, so the second portal idles
    // there and both arms share one hardware capacity.
    DsaTopology topo;
    topo.groups = {{}};
    topo.wqs = {{0, WorkQueue::Mode::Shared, 32, 8, 0},
                {0, WorkQueue::Mode::Shared, 32, 1, 24}};
    topo.engines = {0, 0};
    cc.socket.dsaTopology = topo;
    for (auto &node : cc.socket.mem.nodes)
        node.capacityBytes = 1ull << 30;
    cc.lookaheadBytes = 16 << 10;
    return cc;
}

dml::ServingConfig
servingConfig(const Params &p)
{
    dml::ServingConfig sc;
    sc.maxRetries = 3;
    sc.backoffBase = fromNs(200);
    sc.backoffCap = fromUs(2);
    sc.backoffJitter = 0.5;
    sc.outstandingCap = 24;
    sc.cpuFallback = true;
    sc.breaker.window = 16;
    sc.breaker.openThreshold = 0.5;
    sc.breaker.cooldown = fromUs(150);
    sc.breaker.probes = 4;
    sc.seed = p.seed;
    return sc;
}

/** Cross-socket digest stream: keeps UPI traffic mid-overload. */
SimTask
digestLoad(Simulation &sim, RemotePort &port, int blocks)
{
    for (int i = 0; i < blocks; ++i) {
        co_await sim.delay(fromUs(120));
        co_await port.push(16 << 10);
    }
}

/** Per-socket serving rig (host-side bookkeeping). */
struct SocketRig
{
    std::unique_ptr<dml::Executor> exec;
    std::unique_ptr<dml::ServingNode> node;
    std::unique_ptr<WqAdmission> admission;
    std::unique_ptr<Latch> done;
};

struct ArmResult
{
    double secs = 0;
    std::uint64_t streamHash = 0;
    std::uint64_t events = 0;
    Tick endTick = 0;

    dml::TenantStats total;
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerCloses = 0;
    std::uint64_t breakerShed = 0;
    std::uint64_t admissionThrottled = 0;
    std::uint64_t admissionBusy = 0;

    double p50 = 0, p99 = 0, p999 = 0; ///< all tenants, us
    double victimP99 = 0;              ///< poisson class
    double aggressorP99 = 0;           ///< bursty class
    double goodputMBps = 0;
};

/**
 * Build and run the scenario once. Tenant t lives on socket t%2,
 * its arrival stream and backoff jitter are counter-based functions
 * of (seed, t), so nothing here depends on the worker thread count.
 */
ArmResult
runArm(const Params &p, bool qos, unsigned threads)
{
    const ArrivalMix mix = ArrivalMix::parse(p.mixSpec);
    SocketCluster cl(clusterConfig());
    cl.enableStreamHash(true);

    std::vector<SocketRig> rigs(cl.socketCount());
    const dml::ServingConfig sc = servingConfig(p);

    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        Platform &plat = cl.plat(s);
        SocketRig &rig = rigs[s];
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        rig.exec = std::make_unique<dml::Executor>(
            cl.domainSim(s), plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
        rig.node = std::make_unique<dml::ServingNode>(cl.domainSim(s),
                                                      *rig.exec, sc);
        if (qos) {
            // Admission on the bulk portal only: every tenant routed
            // there runs Opportunistic under a token bucket sized
            // below the aggressors' burst appetite.
            WqAdmission::Config ac;
            ac.bucket = {1500, 6};
            ac.defaultClass = QosClass::Opportunistic;
            ac.opportunisticFraction = 0.5;
            rig.admission = std::make_unique<WqAdmission>(ac);
            plat.dsa(0).installAdmission(1, rig.admission.get());
        }
    }

    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        // Socket s hosts tenants {s, s+K, s+2K, ...}.
        const std::uint64_t onSocket =
            (p.tenants - s + cl.socketCount() - 1) /
            cl.socketCount();
        rigs[s].done = std::make_unique<Latch>(
            cl.domainSim(s), onSocket * p.requests);
    }

    for (unsigned t = 0; t < p.tenants; ++t) {
        const unsigned s = t % cl.socketCount();
        Platform &plat = cl.plat(s);
        SocketRig &rig = rigs[s];
        const ArrivalClass &cls = mix.classFor(t);
        const bool aggressor = cls.pattern == ArrivalPattern::Bursty;

        AddressSpace &as = plat.mem().createSpace();
        const std::uint64_t bytes = cls.payloadBytes;
        Addr src = as.alloc(bytes);
        Addr dst = as.alloc(bytes);

        // Tenant workload: KV value copy / integrity scan / columnar
        // pattern scan, cycling by request index (the span opcode
        // kernels of src/ops, per the ROADMAP's serving item).
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

        // qos arm: aggressors route to the low-priority admitted
        // bulk portal; victims keep the high-priority WQ to
        // themselves. no-qos arm: everyone fights over WQ0.
        WorkQueue &wq =
            plat.dsa(0).wq(qos && aggressor ? 1 : 0);
        dml::TenantSession &sess = rig.node->addTenant(
            as.pasid(), plat.core(t % 4), plat.dsa(0), wq, make);

        rig.node->openLoop(sess, ArrivalStream(p.seed, t, cls),
                           p.requests, *rig.done);
    }

    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        digestLoad(cl.domainSim(s),
                   cl.port(s, (s + 1) % cl.socketCount()), 48);
    }

    const auto t0 = Clock::now();
    cl.run(threads);
    const double secs = secondsSince(t0);

    ArmResult r;
    r.secs = secs;
    r.streamHash = cl.streamHash();
    r.events = cl.eventsExecuted();
    r.endTick = cl.endTick();

    Histogram victims;
    Histogram aggressors;
    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        const SocketRig &rig = rigs[s];
        if (!rig.done->done()) {
            std::fprintf(stderr,
                         "bench_serving: HANG — socket %u finished "
                         "with %llu request(s) unaccounted\n",
                         s,
                         static_cast<unsigned long long>(
                             rig.done->pending()));
            std::exit(1);
        }
        r.total.merge(rig.node->aggregate());
        for (const auto &sess : rig.node->sessions()) {
            r.breakerOpens += sess->breaker.opens;
            r.breakerCloses += sess->breaker.closes;
            r.breakerShed += sess->breaker.shed;
        }
        if (rig.admission) {
            r.admissionThrottled += rig.admission->totalThrottled;
            r.admissionBusy += rig.admission->totalBusy;
        }
    }
    // Per-class tails: tenant t's class is mix.classFor(t); sessions
    // were added in tenant order, socket-interleaved.
    for (unsigned t = 0; t < p.tenants; ++t) {
        const unsigned s = t % cl.socketCount();
        const auto &sess =
            *rigs[s].node->sessions()[t / cl.socketCount()];
        const bool aggressor =
            mix.classFor(t).pattern == ArrivalPattern::Bursty;
        (aggressor ? aggressors : victims)
            .merge(sess.stats.latencyUs);
    }

    r.p50 = r.total.latencyUs.percentile(50);
    r.p99 = r.total.latencyUs.percentile(99);
    r.p999 = r.total.latencyUs.percentile(99.9);
    r.victimP99 = victims.percentile(99);
    r.aggressorP99 = aggressors.percentile(99);
    r.goodputMBps = static_cast<double>(r.total.goodputBytes) /
                    1e6 / toSec(r.endTick);
    return r;
}

/** Run one arm at 1 and 4 threads; the fingerprints must agree. */
ArmResult
runArmChecked(const Params &p, bool qos)
{
    ArmResult r1 = runArm(p, qos, 1);
    ArmResult r4 = runArm(p, qos, 4);
    if (r1.streamHash != r4.streamHash || r1.events != r4.events ||
        r1.endTick != r4.endTick) {
        std::fprintf(stderr,
                     "bench_serving: FAIL — DSASIM_PARTITIONS "
                     "changed the %s simulation mid-overload "
                     "(hash %016llx vs %016llx, events %llu vs "
                     "%llu)\n",
                     qos ? "qos" : "no-qos",
                     static_cast<unsigned long long>(r1.streamHash),
                     static_cast<unsigned long long>(r4.streamHash),
                     static_cast<unsigned long long>(r1.events),
                     static_cast<unsigned long long>(r4.events));
        std::exit(1);
    }
    return r1;
}

void
declareArm(Gate &gate, const std::string &arm, const ArmResult &r)
{
    auto key = [&](const char *name) { return arm + "_" + name; };
    gate.add(Gate::Exact, key("stream_hash"), hex64(r.streamHash));
    gate.add(Gate::Exact, key("events"), r.events);
    gate.add(Gate::Exact, key("end_us"), toUs(r.endTick), 3);
    gate.add(Gate::Exact, key("arrivals"), r.total.arrivals);
    gate.add(Gate::Exact, key("completed"), r.total.completed());
    gate.add(Gate::Exact, key("hw_ok"), r.total.hwOk);
    gate.add(Gate::Exact, key("fallbacks"), r.total.fallbacks);
    gate.add(Gate::Exact, key("dropped"), r.total.dropped);
    gate.add(Gate::Exact, key("retries"), r.total.retries);
    gate.add(Gate::Exact, key("give_ups"), r.total.giveUps);
    gate.add(Gate::Exact, key("shed_breaker"), r.total.shedBreaker);
    gate.add(Gate::Exact, key("breaker_opens"), r.breakerOpens);
    gate.add(Gate::Exact, key("breaker_closes"), r.breakerCloses);
    gate.add(Gate::Exact, key("admission_throttled"), r.admissionThrottled);
    gate.add(Gate::Exact, key("admission_busy"), r.admissionBusy);
    gate.add(Gate::Band, key("p50_us"), r.p50, 3);
    gate.add(Gate::Band, key("p99_us"), r.p99, 3);
    gate.add(Gate::Band, key("p999_us"), r.p999, 3);
    gate.add(Gate::Band, key("victim_p99_us"), r.victimP99, 3);
    gate.add(Gate::Band, key("aggressor_p99_us"), r.aggressorP99, 3);
    gate.add(Gate::Band, key("goodput_mbps"), r.goodputMBps, 1);
}

/** Robustness invariants, independent of the committed file. */
void
requireInvariants(Gate &gate, const Params &p, const ArmResult &noqos,
                  const ArmResult &qos)
{
    const std::uint64_t offered =
        static_cast<std::uint64_t>(p.tenants) * p.requests;
    for (const ArmResult *r : {&noqos, &qos}) {
        const std::string tag = r == &qos ? "qos" : "noqos";
        gate.require(tag + ": every arrival terminal (zero hangs)",
                     r->total.arrivals == offered &&
                         r->total.completed() + r->total.dropped ==
                             offered);
        gate.require(tag + ": overload engaged degradation",
                     r->total.fallbacks > 0 && r->total.retries > 0 &&
                         r->breakerOpens > 0);
        gate.require(tag + ": retries bounded by policy",
                     r->total.retries <=
                         r->total.issued * servingConfig(p).maxRetries);
    }
    gate.require("qos: admission policy exercised",
                 qos.admissionThrottled + qos.admissionBusy > 0);
    gate.require("qos: victim p99 no worse than no-qos",
                 qos.victimP99 <= noqos.victimP99 * (1.0 + kTolerance));
}

/** Run both arms and declare the metrics and invariants on @p gate. */
void
measure(const Params &p, Gate &gate)
{
    const ArmResult noqos = runArmChecked(p, false);
    const ArmResult qos = runArmChecked(p, true);
    gate.add(Gate::Info, "sockets", 2);
    gate.add(Gate::Info, "tenants", p.tenants);
    gate.add(Gate::Info, "hw_threads",
             std::max(1u, std::thread::hardware_concurrency()));
    declareArm(gate, "noqos", noqos);
    declareArm(gate, "qos", qos);
    gate.add(Gate::Info, "serial_events_per_sec",
             static_cast<double>(noqos.events) / noqos.secs);
    gate.add(Gate::Info, "note",
             "all *_stream_hash/*_events/counters are simulated "
             "quantities, bit-identical for any DSASIM_PARTITIONS "
             "(asserted at 1 vs 4 threads every run); latency/goodput "
             "are simulated too but gated within a 25% band for "
             "cross-compiler slack; serial_events_per_sec is host "
             "wall-clock");
    requireInvariants(gate, p, noqos, qos);
}

} // namespace
} // namespace dsasim::bench

int
main(int argc, char **argv)
{
    using namespace dsasim::bench;
    Params p;
    if (const char *s = std::getenv("DSASIM_ARRIVALS"); s && *s)
        p.mixSpec = s;
    // A malformed spec is fatal here, before any simulation runs.
    dsasim::ArrivalMix::parse(p.mixSpec);

    Gate gate("serving", kTolerance);
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (gate.parseArg(a))
            continue;
        if (a.rfind("--n=", 0) == 0)
            p.requests = std::strtoull(a.c_str() + 4, nullptr, 0);
        else if (a.rfind("--tenants=", 0) == 0)
            p.tenants = static_cast<unsigned>(
                std::strtoul(a.c_str() + 10, nullptr, 0));
        else if (a.rfind("--seed=", 0) == 0)
            p.seed = std::strtoull(a.c_str() + 7, nullptr, 0);
        else {
            std::fprintf(stderr,
                         "usage: bench_serving [--n=REQ] [--tenants=N] "
                         "[--seed=S] [--json=PATH] [--check=PATH]\n");
            return 2;
        }
    }
    if (p.tenants < 2) {
        std::fprintf(stderr,
                     "bench_serving: need at least 2 tenants\n");
        return 2;
    }

    measure(p, gate);
    return gate.finish();
}
