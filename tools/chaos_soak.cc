/**
 * @file
 * chaos_soak — long-running fault-injection soak over the simulated
 * platform. Drives a stream of random operations through the full
 * recovery path (executeRecover) while every injection site fires:
 * hardware completion errors, engine hangs, mid-flight device
 * disables, WQ rejections and extra IOMMU page faults.
 *
 * Invariants checked per descriptor:
 *   - every job reaches a terminal state (no hangs: the event loop
 *     drains and the job count matches);
 *   - recovered data is byte-identical to a host-side golden model;
 *   - CRC results match a host-side computation.
 *
 * The run is deterministic: a replay with the same --seed produces an
 * identical event sequence, which the tool proves by hashing every
 * completion (status, bytes, crc, result) plus the final virtual time
 * and comparing two runs.
 *
 * With --overload the soak instead drives the multi-tenant serving
 * path (dml/serving.hh): an open-loop tenant population whose offered
 * load exceeds the SWQ's capacity, with engine hangs and portal
 * rejections injected mid-storm. Invariants: every arrival reaches a
 * terminal outcome (zero hangs), ENQCMD retries stay within the
 * bounded-backoff policy, degradation actually engages (CPU
 * fallbacks), and a replay produces the identical event-stream hash.
 *
 * Usage: chaos_soak [--n=100000] [--seed=1] [--faults=SPEC]
 *                   [--no-replay] [--overload]
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dml/dml.hh"
#include "dml/serving.hh"
#include "driver/platform.hh"
#include "dsa/qos.hh"
#include "ops/crc32.hh"
#include "sim/random.hh"
#include "sim/traffic.hh"

using namespace dsasim;

namespace
{

constexpr const char *kDefaultFaults =
    "hw-error:p=0.002,error=read;"
    "hw-error:p=0.001,error=write;"
    "hw-error:p=0.0005,error=decode;"
    "page-fault:p=0.05;"
    "wq-reject:p=0.01;"
    "hang:every=7001;"
    "disable:every=23003";

/** Overload-mode default: storms, not data corruption. */
constexpr const char *kOverloadFaults =
    "hang:every=401;"
    "wq-reject:p=0.005";

struct Options
{
    std::uint64_t n = 100000;
    std::uint64_t seed = 1;
    std::string faults = kDefaultFaults;
    bool faultsOverridden = false;
    bool replay = true;
    bool overload = false;
};

struct RunStats
{
    std::uint64_t completed = 0;
    std::uint64_t recovered = 0; ///< needed >= 1 recovery action
    std::uint64_t hash = 0;
    Tick endTick = 0;
    std::string injectorSummary;
    std::uint64_t pageFaultResumes = 0;
    std::uint64_t watchdogFires = 0;
    std::uint64_t deviceResets = 0;
    std::uint64_t recoveryFallbacks = 0;
    std::uint64_t injectedFaults = 0;
    std::uint64_t injectedRejects = 0;
    std::uint64_t injectedErrors = 0;
    std::uint64_t hangs = 0;
};

void
fnv1a(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

/** One worker: issues descriptors back-to-back through recovery. */
SimTask
worker(Platform &plat, dml::Executor &exec,
       AddressSpace &as, int core_id, std::uint64_t seed,
       std::uint64_t count, Addr src, Addr dst, std::uint64_t span,
       std::vector<std::uint8_t> &g_src, std::vector<std::uint8_t> &g_dst,
       RunStats &stats)
{
    Rng rng(seed);
    Core &core = plat.core(static_cast<std::size_t>(core_id));
    using St = CompletionRecord::Status;
    for (std::uint64_t i = 0; i < count; ++i) {
        // Keep the stream flowing through injected disables.
        if (!plat.dsa(0).enabled())
            plat.dsa(0).enable();
        std::uint64_t n = rng.range(64, 32 << 10);
        std::uint64_t so = rng.range(0, span - n);
        std::uint64_t dof = rng.range(0, span - n);
        unsigned kind = static_cast<unsigned>(rng.below(4));

        // Occasionally page out part of the working set so organic
        // partial completions (and their resume path) are exercised
        // alongside the injected faults.
        if (rng.chance(0.02))
            as.evictPage(src + rng.below(span / 4096) * 4096);
        if (rng.chance(0.02))
            as.evictPage(dst + rng.below(span / 4096) * 4096);

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

        std::uint64_t before = exec.pageFaultResumes +
                               exec.deviceResets +
                               exec.recoveryFallbacks;
        dml::OpResult r;
        co_await exec.executeRecover(core, d, r);

        // Invariant: recovery always lands on a terminal, correct
        // result — data ops finish fully and match the golden model.
        if (r.status != St::Success) {
            std::fprintf(stderr,
                         "FATAL: op %llu kind %u non-terminal status "
                         "%s\n",
                         static_cast<unsigned long long>(i), kind,
                         CompletionRecord::statusName(r.status));
            std::abort();
        }
        switch (kind) {
          case 0:
            std::memcpy(g_dst.data() + dof, g_src.data() + so, n);
            break;
          case 1:
            // Descriptor pattern replay on the golden image.
            for (std::uint64_t k = 0; k < n; ++k) {
                g_dst[dof + k] = static_cast<std::uint8_t>(
                    d.pattern >> (8 * (k % 8)));
            }
            break;
          case 2:
            if (r.crc != crc32cFull(g_src.data() + so, n)) {
                std::fprintf(stderr, "FATAL: crc mismatch op %llu\n",
                             static_cast<unsigned long long>(i));
                std::abort();
            }
            break;
          default: {
            bool equal = std::memcmp(g_src.data() + so,
                                     g_dst.data() + dof, n) == 0;
            if ((r.result == 0) != equal) {
                std::fprintf(stderr,
                             "FATAL: compare mismatch op %llu\n",
                             static_cast<unsigned long long>(i));
                std::abort();
            }
            break;
          }
        }
        ++stats.completed;
        if (exec.pageFaultResumes + exec.deviceResets +
                exec.recoveryFallbacks != before)
            ++stats.recovered;
        fnv1a(stats.hash, static_cast<std::uint64_t>(r.status));
        fnv1a(stats.hash, r.bytesCompleted);
        fnv1a(stats.hash, r.crc);
        fnv1a(stats.hash, r.result);
        fnv1a(stats.hash, r.latency);
    }
}

RunStats
soak(const Options &opt)
{
    Simulation sim;
    PlatformConfig cfg = PlatformConfig::spr();
    cfg.numCores = 4;
    cfg.numDsaDevices = 1;
    cfg.mem.llc.sizeBytes = 8 << 20;
    for (auto &node : cfg.mem.nodes)
        node.capacityBytes = 2ull << 30;
    Platform plat(sim, cfg);
    DsaTopology::basic(32, 2).apply(plat.dsa(0));

    auto fi = FaultInjector::fromSpec(opt.faults, opt.seed);
    plat.setFaultInjector(std::move(fi));

    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    ec.watchdogTimeout = fromUs(500);
    ec.enqcmdMaxRetries = 8;
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
    std::vector<std::uint8_t> g_src(span), g_dst(span);
    as.read(src, g_src.data(), span);
    as.read(dst, g_dst.data(), span);

    RunStats stats;
    worker(plat, exec, as, 0, opt.seed, opt.n, src, dst, span,
           g_src, g_dst, stats);
    sim.run();

    // Invariant: nothing left behind — every descriptor was terminal.
    if (stats.completed != opt.n) {
        std::fprintf(stderr,
                     "FATAL: %llu of %llu descriptors completed "
                     "(hang?)\n",
                     static_cast<unsigned long long>(stats.completed),
                     static_cast<unsigned long long>(opt.n));
        std::abort();
    }

    // Final data sweep against the golden model.
    std::vector<std::uint8_t> got(span);
    as.read(dst, got.data(), span);
    if (std::memcmp(got.data(), g_dst.data(), span) != 0) {
        std::fprintf(stderr, "FATAL: destination diverged from the "
                             "golden model\n");
        std::abort();
    }

    stats.endTick = sim.now();
    fnv1a(stats.hash, stats.endTick);
    stats.injectorSummary = plat.injector()->summary();
    stats.pageFaultResumes = exec.pageFaultResumes;
    stats.watchdogFires = exec.watchdogFires;
    stats.deviceResets = exec.deviceResets;
    stats.recoveryFallbacks = exec.recoveryFallbacks;
    stats.injectedFaults = plat.mem().iommu().injectedFaults;
    stats.injectedRejects = plat.dsa(0).injectedRejects;
    for (std::size_t e = 0; e < 2; ++e) {
        stats.injectedErrors += plat.dsa(0).engine(e).injectedErrors;
        stats.hangs += plat.dsa(0).engine(e).hangs;
    }
    return stats;
}

/** Aggregated outcome of one overload-soak run. */
struct OverloadStats
{
    std::uint64_t hash = 0;
    Tick endTick = 0;
    dml::TenantStats total;
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerCloses = 0;
    std::uint64_t admissionThrottled = 0;
    std::uint64_t admissionBusy = 0;
    std::uint64_t watchdogFires = 0;
    std::uint64_t offered = 0;
    unsigned maxRetries = 0;
};

/**
 * Overload soak: an open-loop tenant population whose offered load
 * exceeds one 32-deep SWQ, with hangs and portal rejections injected
 * mid-storm. Everything is seeded/counter-based, so two runs must
 * produce identical event streams.
 */
OverloadStats
overloadSoak(const Options &opt)
{
    const unsigned tenants = 192;
    const std::uint64_t requests =
        std::max<std::uint64_t>(2, opt.n / tenants);

    Simulation sim;
    sim.enableStreamHash(true);
    PlatformConfig cfg = PlatformConfig::spr();
    cfg.numCores = 4;
    cfg.numDsaDevices = 1;
    cfg.mem.llc.sizeBytes = 8 << 20;
    for (auto &node : cfg.mem.nodes)
        node.capacityBytes = 2ull << 30;
    Platform plat(sim, cfg);
    DsaTopology::basic(32, 2, WorkQueue::Mode::Shared).apply(plat.dsa(0));

    const std::string spec =
        opt.faultsOverridden ? opt.faults : kOverloadFaults;
    if (!spec.empty()) {
        plat.setFaultInjector(
            FaultInjector::fromSpec(spec, opt.seed));
    }

    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    ec.watchdogTimeout = fromUs(500); // injected hangs must unwedge
    ec.watchdogGrace = fromUs(50);
    dml::Executor exec(sim, plat.mem(), plat.kernels(),
                       std::vector<DsaDevice *>{&plat.dsa(0)}, ec);

    dml::ServingConfig sc;
    sc.maxRetries = 4;
    sc.backoffBase = fromNs(200);
    sc.backoffCap = fromUs(2);
    sc.outstandingCap = 16;
    sc.cpuFallback = true;
    sc.breaker.window = 16;
    sc.breaker.cooldown = fromUs(150);
    sc.seed = opt.seed;
    dml::ServingNode node(sim, exec, sc);

    WqAdmission::Config ac;
    ac.bucket = {3000, 8};
    WqAdmission admission(ac);
    plat.dsa(0).installAdmission(0, &admission);

    const ArrivalMix mix = ArrivalMix::parse(
        "poisson:rate=2000,weight=3,bytes=1024;"
        "bursty:rate=4000,factor=16,period=24,duty=0.25,weight=1,"
        "bytes=16384");

    Latch done(sim, tenants * requests);
    for (unsigned t = 0; t < tenants; ++t) {
        const ArrivalClass &cls = mix.classFor(t);
        AddressSpace &as = plat.mem().createSpace();
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
        dml::TenantSession &sess = node.addTenant(
            as.pasid(), plat.core(t % 4), plat.dsa(0),
            plat.dsa(0).wq(0), make);
        node.openLoop(sess, ArrivalStream(opt.seed, t, cls),
                      requests, done);
    }
    sim.run();

    OverloadStats st;
    st.offered = static_cast<std::uint64_t>(tenants) * requests;
    st.maxRetries = sc.maxRetries;
    if (!done.done()) {
        std::fprintf(stderr,
                     "FATAL: overload soak hung — %llu request(s) "
                     "never reached a terminal outcome\n",
                     static_cast<unsigned long long>(done.pending()));
        std::abort();
    }
    st.total = node.aggregate();
    for (const auto &sess : node.sessions()) {
        st.breakerOpens += sess->breaker.opens;
        st.breakerCloses += sess->breaker.closes;
    }
    st.admissionThrottled = admission.totalThrottled;
    st.admissionBusy = admission.totalBusy;
    st.watchdogFires = exec.watchdogFires;
    st.endTick = sim.now();

    st.hash = sim.streamHash();
    fnv1a(st.hash, st.endTick);
    fnv1a(st.hash, st.total.completed());
    fnv1a(st.hash, st.total.retries);
    fnv1a(st.hash, st.total.fallbacks);
    fnv1a(st.hash, st.total.dropped);
    fnv1a(st.hash, st.breakerOpens);
    fnv1a(st.hash, st.admissionThrottled + st.admissionBusy);
    return st;
}

int
overloadMain(const Options &opt)
{
    OverloadStats first = overloadSoak(opt);
    std::printf("chaos_soak --overload: %llu offered requests, "
                "seed %llu\n",
                static_cast<unsigned long long>(first.offered),
                static_cast<unsigned long long>(opt.seed));
    std::printf("  completed/dropped:   %llu / %llu\n",
                static_cast<unsigned long long>(
                    first.total.completed()),
                static_cast<unsigned long long>(first.total.dropped));
    std::printf("  hw ok / fallbacks:   %llu / %llu\n",
                static_cast<unsigned long long>(first.total.hwOk),
                static_cast<unsigned long long>(
                    first.total.fallbacks));
    std::printf("  retries / give-ups:  %llu / %llu\n",
                static_cast<unsigned long long>(first.total.retries),
                static_cast<unsigned long long>(first.total.giveUps));
    std::printf("  breaker opens/closes: %llu / %llu\n",
                static_cast<unsigned long long>(first.breakerOpens),
                static_cast<unsigned long long>(first.breakerCloses));
    std::printf("  admission throttled/busy: %llu / %llu\n",
                static_cast<unsigned long long>(
                    first.admissionThrottled),
                static_cast<unsigned long long>(first.admissionBusy));
    std::printf("  watchdog fires:      %llu\n",
                static_cast<unsigned long long>(first.watchdogFires));
    std::printf("  virtual end time:    %.3f ms\n",
                toUs(first.endTick) / 1000.0);
    std::printf("  event hash:          %016llx\n",
                static_cast<unsigned long long>(first.hash));

    // Invariant: every arrival accounted, terminally.
    if (first.total.arrivals != first.offered ||
        first.total.completed() + first.total.dropped !=
            first.offered) {
        std::fprintf(stderr,
                     "FATAL: request accounting leaked (%llu arrivals "
                     "of %llu offered)\n",
                     static_cast<unsigned long long>(
                         first.total.arrivals),
                     static_cast<unsigned long long>(first.offered));
        return 1;
    }
    // Invariant: retry storms stay bounded by the backoff policy.
    if (first.total.retries >
        first.total.issued * first.maxRetries) {
        std::fprintf(stderr, "FATAL: retry count exceeds the bounded "
                             "backoff policy\n");
        return 1;
    }
    // Invariant: the scenario is an actual overload — degradation
    // must have engaged, or the soak proves nothing.
    if (first.total.retries == 0 || first.total.fallbacks == 0) {
        std::fprintf(stderr, "FATAL: overload never engaged "
                             "(no retries or no fallbacks)\n");
        return 1;
    }

    if (opt.replay) {
        OverloadStats second = overloadSoak(opt);
        if (second.hash != first.hash ||
            second.endTick != first.endTick) {
            std::fprintf(stderr,
                         "FATAL: overload replay diverged (hash "
                         "%016llx vs %016llx)\n",
                         static_cast<unsigned long long>(first.hash),
                         static_cast<unsigned long long>(
                             second.hash));
            return 1;
        }
        std::printf("replay: identical event sequence (hash "
                    "match)\n");
    }
    std::printf("chaos_soak --overload: PASS\n");
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
        else if (const char *v3 = val("--faults=")) {
            opt.faults = v3;
            opt.faultsOverridden = true;
        } else if (a == "--no-replay")
            opt.replay = false;
        else if (a == "--overload")
            opt.overload = true;
        else {
            std::fprintf(stderr,
                         "usage: chaos_soak [--n=N] [--seed=S] "
                         "[--faults=SPEC] [--no-replay] "
                         "[--overload]\n");
            return 2;
        }
    }

    if (opt.overload)
        return overloadMain(opt);

    RunStats first = soak(opt);
    std::printf("chaos_soak: %llu descriptors, seed %llu\n",
                static_cast<unsigned long long>(first.completed),
                static_cast<unsigned long long>(opt.seed));
    std::printf("  recovered ops:       %llu\n",
                static_cast<unsigned long long>(first.recovered));
    std::printf("  page-fault resumes:  %llu\n",
                static_cast<unsigned long long>(
                    first.pageFaultResumes));
    std::printf("  watchdog fires:      %llu\n",
                static_cast<unsigned long long>(first.watchdogFires));
    std::printf("  device resets:       %llu\n",
                static_cast<unsigned long long>(first.deviceResets));
    std::printf("  cpu fallbacks:       %llu\n",
                static_cast<unsigned long long>(
                    first.recoveryFallbacks));
    std::printf("  injected: %llu errors, %llu hangs, %llu rejects, "
                "%llu faults\n",
                static_cast<unsigned long long>(first.injectedErrors),
                static_cast<unsigned long long>(first.hangs),
                static_cast<unsigned long long>(first.injectedRejects),
                static_cast<unsigned long long>(first.injectedFaults));
    std::printf("  virtual end time:    %.3f ms\n",
                toUs(first.endTick) / 1000.0);
    std::printf("  event hash:          %016llx\n",
                static_cast<unsigned long long>(first.hash));
    std::printf("%s", first.injectorSummary.c_str());

    if (opt.replay) {
        RunStats second = soak(opt);
        if (second.hash != first.hash ||
            second.endTick != first.endTick) {
            std::fprintf(stderr,
                         "FATAL: replay diverged (hash %016llx vs "
                         "%016llx)\n",
                         static_cast<unsigned long long>(first.hash),
                         static_cast<unsigned long long>(second.hash));
            return 1;
        }
        std::printf("replay: identical event sequence (hash match)\n");
    }
    std::printf("chaos_soak: PASS\n");
    return 0;
}
