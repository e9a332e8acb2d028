/**
 * @file
 * determinism_check — the end-to-end determinism contracts as one
 * matrix. simlint enforces the invariant statically (DESIGN.md §9);
 * this tool proves it on live runs.
 *
 * Each row is a scenario run several ways (its arms), and every arm
 * must print the same fingerprint as the first: the event-stream hash
 * (FNV-1a over the (tick, seq) of every executed event), a hash of
 * every terminal completion record, the executed-event count and the
 * end tick. Every row runs twice: clean, and under its workload's
 * fixed fault spec.
 *
 *   row           guards (DESIGN.md section)
 *   mix           replay: host state never leaks into the run (§9)
 *   mix/sampled   the stats sampler is a pure observer (§15)
 *   cluster       4-socket event order ignores the thread count (§11)
 *   serving       the overload ladder ignores the thread count and
 *                 the per-socket samplers (§12, §15)
 *
 * Sampled arms export into a private mkdtemp directory under $TMPDIR,
 * removed before exit. A failure names its row, column and arm. Exit
 * 0 when every arm matches, 1 on a mismatch, 2 on a usage or temp-dir
 * error.
 *
 * Usage: determinism_check [--n=2000] [--seed=42] [--cell=ROW:COLUMN]
 *
 * --cell runs one row x column (e.g. --cell=cluster:faulted) instead
 * of the whole matrix, so ctest can run the cells as separate cases.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "dml/dml.hh"
#include "dml/serving.hh"
#include "driver/cluster.hh"
#include "driver/platform.hh"
#include "dsa/qos.hh"
#include "sim/random.hh"
#include "sim/traffic.hh"

using namespace dsasim;

namespace
{

/** Fault spec of the faulted column for the mix and cluster rows. */
constexpr const char *kFaults =
    "page-fault:p=0.05;hang:every=701;wq-reject:p=0.01";
/** Fault spec of the faulted column for the serving row. */
constexpr const char *kServingFaults =
    "page-fault:p=0.05,pasid=3;wq-reject:p=0.01";

constexpr std::uint64_t kSpan = 1 << 20;
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

/** What every arm of one row x column shares. */
struct Scenario
{
    std::uint64_t n;
    std::uint64_t seed;
    const char *faults; ///< "" in the clean column
    std::string statsDir;
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

/**
 * One row x column: prints each arm's fingerprint and fails every arm
 * that differs from the first.
 */
struct Arms
{
    const char *row;
    const char *column;
    std::optional<Fingerprint> ref{};
    std::string refArm{};
    unsigned failed = 0;

    void
    add(const std::string &arm, const Fingerprint &fp)
    {
        std::printf("%-12s %-7s %-16s stream=%016llx "
                    "completions=%016llx events=%llu end=%.3fus\n",
                    row, column, arm.c_str(),
                    static_cast<unsigned long long>(fp.streamHash),
                    static_cast<unsigned long long>(fp.completionHash),
                    static_cast<unsigned long long>(fp.eventsExecuted),
                    toUs(fp.endTick));
        if (!ref) {
            ref = fp;
            refArm = arm;
        } else if (!(fp == *ref)) {
            fail(arm, "diverged from '" + refArm + "'");
        }
    }

    void
    fail(const std::string &arm, const std::string &why)
    {
        std::fflush(stdout);
        std::fprintf(stderr, "FAIL: row %s, column %s, arm '%s' %s\n",
                     row, column, arm.c_str(), why.c_str());
        ++failed;
    }
};

std::string
threadsLabel(unsigned threads)
{
    return std::to_string(threads) +
           (threads == 1 ? " thread" : " threads");
}

/**
 * DSASIM_STATS armed, at @p period_ns, for every platform built in
 * this scope; exports land in the scenario's private directory.
 */
struct Sampling
{
    Sampling(const Scenario &sc, unsigned period_ns)
    {
        setenv("DSASIM_STATS", (sc.statsDir + "/").c_str(), 1);
        setenv("DSASIM_STATS_PERIOD",
               std::to_string(period_ns).c_str(), 1);
    }
    ~Sampling()
    {
        unsetenv("DSASIM_STATS");
        unsetenv("DSASIM_STATS_PERIOD");
    }
    Sampling(const Sampling &) = delete;
    Sampling &operator=(const Sampling &) = delete;
};

/** The socket every row is built from. */
PlatformConfig
socketConfig()
{
    PlatformConfig cfg = PlatformConfig::spr();
    cfg.numCores = 2;
    cfg.numDsaDevices = 1;
    cfg.dsaTopology = DsaTopology::basic(32, 2);
    for (auto &node : cfg.mem.nodes)
        node.capacityBytes = 1ull << 30;
    return cfg;
}

std::unique_ptr<dml::Executor>
executor(Simulation &sim, Platform &p)
{
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    ec.watchdogTimeout = fromUs(500);
    return std::make_unique<dml::Executor>(
        sim, p.mem(), p.kernels(), std::vector<DsaDevice *>{&p.dsa(0)},
        ec);
}

/**
 * One socket's harness: the executor and the two buffers the mix
 * drives, in the socket's first address space.
 */
struct Lane
{
    std::unique_ptr<dml::Executor> exec;
    Addr src = 0;
    Addr dst = 0;
};

/**
 * Set up socket @p s of a fresh scenario: its fault injector, then an
 * address space whose two buffers hold the same seeded bytes.
 */
Lane
seedLane(Simulation &sim, Platform &p, const Scenario &sc, unsigned s)
{
    if (*sc.faults != '\0') {
        p.setFaultInjector(
            FaultInjector::fromSpec(sc.faults, sc.seed + s));
    }
    AddressSpace &as = p.mem().createSpace();
    Lane lane{executor(sim, p), as.alloc(kSpan), as.alloc(kSpan)};
    Rng init(sc.seed ^ kGolden ^ s);
    std::vector<std::uint8_t> buf(kSpan);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(init.next32());
    as.write(lane.src, buf.data(), kSpan);
    as.write(lane.dst, buf.data(), kSpan);
    return lane;
}

/**
 * Drive @p count descriptors of the mix through @p lane, folding each
 * terminal record into @p completion_hash. With @p remote, a fifth of
 * the iterations also push or pull over the UPI ring, so link events
 * race DSA completions in both domains.
 */
SimTask
driver(Platform &plat, Lane &lane, std::uint64_t seed,
       std::uint64_t count, std::uint64_t &completion_hash,
       RemotePort *remote = nullptr)
{
    Rng rng(seed);
    Core &core = plat.core(0);
    AddressSpace &as = plat.mem().space(1);
    const Addr src = lane.src;
    const Addr dst = lane.dst;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!plat.dsa(0).enabled())
            plat.dsa(0).enable();
        if (remote && rng.chance(0.2)) {
            if (rng.chance(0.3))
                co_await remote->pull(rng.range(1 << 10, 1 << 14));
            else
                co_await remote->push(rng.range(1 << 10, 1 << 16));
        }
        std::uint64_t n = rng.range(64, 64 << 10);
        std::uint64_t so = rng.range(0, kSpan - n);
        std::uint64_t dof = rng.range(0, kSpan - n);
        unsigned kind = static_cast<unsigned>(rng.below(4));
        if (rng.chance(0.05))
            as.evictPage(src + rng.below(kSpan / 4096) * 4096);

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
        co_await lane.exec->executeRecover(core, d, r);
        fnv1a(completion_hash, static_cast<std::uint64_t>(r.status));
        fnv1a(completion_hash, r.bytesCompleted);
        fnv1a(completion_hash, r.crc);
        fnv1a(completion_hash, r.result);
        fnv1a(completion_hash, r.latency);
    }
}

/** The one-socket mix scenario. */
struct MixRig
{
    Simulation sim;
    Platform plat;
    Lane lane;

    explicit MixRig(const Scenario &sc) : plat(sim, socketConfig())
    {
        sim.enableStreamHash(true);
        lane = seedLane(sim, plat, sc, 0);
    }

    /** Run @p count descriptors of the mix to completion. */
    Fingerprint
    run(std::uint64_t seed, std::uint64_t count)
    {
        Fingerprint fp;
        driver(plat, lane, seed, count, fp.completionHash);
        sim.run();
        fp.streamHash = sim.streamHash();
        fp.eventsExecuted = sim.eventsExecuted();
        fp.endTick = sim.now();
        return fp;
    }
};

/** The 4-socket cluster scenario, one lane per socket. */
struct ClusterRig
{
    SocketCluster cl;
    std::vector<Lane> lanes;

    static ClusterConfig
    clusterConfig()
    {
        ClusterConfig cc;
        cc.sockets = 4;
        cc.socket = socketConfig();
        return cc;
    }

    explicit ClusterRig(const Scenario &sc) : cl(clusterConfig())
    {
        cl.enableStreamHash(true);
        for (unsigned s = 0; s < cl.socketCount(); ++s)
            lanes.push_back(seedLane(cl.domainSim(s), cl.plat(s), sc, s));
    }

    /**
     * Drive @p per_socket descriptors on every socket (each with its
     * own seed lane and a RemotePort to its ring neighbor) on
     * @p threads workers. Per-socket completion hashes fold in socket
     * order on top of the cross-domain stream hash.
     */
    Fingerprint
    run(std::uint64_t seed, std::uint64_t per_socket, unsigned threads)
    {
        const unsigned n = cl.socketCount();
        std::vector<std::uint64_t> chash(n, 0);
        for (unsigned s = 0; s < n; ++s) {
            driver(cl.plat(s), lanes[s], seed ^ (s * kGolden),
                   per_socket, chash[s], &cl.port(s, (s + 1) % n));
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
 * 64 open-loop PASID-isolated tenants on two sockets, through WQ
 * admission, jittered ENQCMD backoff, breakers and CPU fallback, on
 * @p threads workers. Per-socket terminal counters fold over the
 * stream hash, so one retry or shed decided differently shows. Empty
 * when a socket left requests unaccounted (a hang).
 */
std::optional<Fingerprint>
runServing(const Scenario &sc, unsigned threads)
{
    const unsigned tenants = 64;
    const std::uint64_t requests =
        std::max<std::uint64_t>(1, sc.n / tenants);

    ClusterConfig cc;
    cc.sockets = 2;
    cc.socket = socketConfig();
    cc.socket.numCores = 4;
    cc.socket.dsaTopology =
        DsaTopology::basic(32, 2, WorkQueue::Mode::Shared);
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

    dml::ServingConfig sv;
    sv.maxRetries = 4;
    sv.backoffBase = fromNs(200);
    sv.backoffCap = fromUs(2);
    sv.outstandingCap = 12;
    sv.breaker.window = 16;
    sv.breaker.cooldown = fromUs(150);
    sv.seed = sc.seed;

    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        Platform &p = cl.plat(s);
        if (*sc.faults != '\0') {
            p.setFaultInjector(
                FaultInjector::fromSpec(sc.faults, sc.seed + s));
        }
        Rig &rig = rigs[s];
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        ec.watchdogTimeout = fromUs(500);
        ec.watchdogGrace = fromUs(50);
        rig.exec = std::make_unique<dml::Executor>(
            cl.domainSim(s), p.mem(), p.kernels(),
            std::vector<DsaDevice *>{&p.dsa(0)}, ec);
        rig.node = std::make_unique<dml::ServingNode>(cl.domainSim(s),
                                                      *rig.exec, sv);
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
        rigs[s].node->openLoop(sess, ArrivalStream(sc.seed, t, cls),
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
                         "serving: socket %u hung with %llu "
                         "request(s) unaccounted\n",
                         s,
                         static_cast<unsigned long long>(
                             rigs[s].done->pending()));
            return std::nullopt;
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
 * One socket, run twice. A mismatch means host time, entropy,
 * iteration order or addresses leaked in.
 */
void
mixRow(const Scenario &sc, Arms &arms)
{
    arms.add("run", MixRig(sc).run(sc.seed, sc.n));
    arms.add("rerun", MixRig(sc).run(sc.seed, sc.n));
}

/**
 * One socket with the sampler off, at a 1 ns period (a sample
 * opportunity at every event) and at the default 1 us. A mismatch
 * means the sample hook scheduled an event, consumed a sequence
 * number or mutated simulated state.
 */
void
mixSampledRow(const Scenario &sc, Arms &arms)
{
    arms.add("off", MixRig(sc).run(sc.seed, sc.n));
    {
        Sampling on(sc, 1);
        arms.add("sampled 1 ns", MixRig(sc).run(sc.seed, sc.n));
    }
    Sampling on(sc, 1000);
    arms.add("sampled 1 us", MixRig(sc).run(sc.seed, sc.n));
}

/**
 * The 4-socket cluster on 1, 2 and 4 worker threads, and on 4 with
 * every socket's sampler armed at 1 us.
 */
void
clusterRow(const Scenario &sc, Arms &arms)
{
    const std::uint64_t per = std::max<std::uint64_t>(1, sc.n / 4);
    for (unsigned threads : {1u, 2u, 4u}) {
        arms.add(threadsLabel(threads),
                 ClusterRig(sc).run(sc.seed, per, threads));
    }
    Sampling on(sc, 1000);
    arms.add("4 threads, 1 us", ClusterRig(sc).run(sc.seed, per, 4));
}

/**
 * The 2-socket serving overload on 1 and 4 worker threads, and on 4
 * with every socket's sampler armed at 1 us (the samplers read the
 * serving<N> views over the live tenant records).
 */
void
servingRow(const Scenario &sc, Arms &arms)
{
    const auto add = [&](const std::string &arm, unsigned threads) {
        if (std::optional<Fingerprint> fp = runServing(sc, threads))
            arms.add(arm, *fp);
        else
            arms.fail(arm, "hung");
    };
    for (unsigned threads : {1u, 4u})
        add(threadsLabel(threads), threads);
    Sampling on(sc, 1000);
    add("4 threads, 1 us", 4);
}

struct Row
{
    const char *name;
    const char *faults; ///< the faulted column's spec
    void (*run)(const Scenario &, Arms &);
};

/** The contract table; the file comment says what each row guards. */
const Row kRows[] = {
    {"mix", kFaults, mixRow},
    {"mix/sampled", kFaults, mixSampledRow},
    {"cluster", kFaults, clusterRow},
    {"serving", kServingFaults, servingRow},
};

/** Parse "<key><unsigned>" into @p out; false if @p arg is not that. */
bool
parseFlag(const char *arg, const char *key, std::uint64_t &out)
{
    const std::size_t klen = std::strlen(key);
    if (std::strncmp(arg, key, klen) != 0 || arg[klen] == '\0')
        return false;
    char *end = nullptr;
    out = std::strtoull(arg + klen, &end, 0);
    return *end == '\0';
}

/** A private mkdtemp directory, removed with its contents. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        std::error_code ec;
        std::string tpl =
            (std::filesystem::temp_directory_path(ec) /
             "determinism_check.XXXXXX")
                .string();
        if (!ec && mkdtemp(tpl.data()) != nullptr)
            path = tpl;
    }
    ~TempDir()
    {
        std::error_code ec;
        if (!path.empty())
            std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
};

int
usage()
{
    std::fprintf(stderr, "usage: determinism_check [--n=N] [--seed=S] "
                         "[--cell=ROW:COLUMN]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t n = 2000;
    std::uint64_t seed = 42;
    std::string cell; ///< "" runs every cell
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--cell=", 7) == 0)
            cell = argv[i] + 7;
        else if (!parseFlag(argv[i], "--n=", n) &&
                 !parseFlag(argv[i], "--seed=", seed))
            return usage();
    }

    // The unsampled arms must run with the sampler off whatever the
    // caller's environment says.
    unsetenv("DSASIM_STATS");
    unsetenv("DSASIM_STATS_PERIOD");
    const TempDir stats;
    if (stats.path.empty()) {
        std::perror("determinism_check: mkdtemp");
        return 2;
    }

    unsigned failed = 0;
    unsigned cells = 0;
    for (const Row &row : kRows) {
        for (const char *faults : {"", row.faults}) {
            const char *column = *faults ? "faulted" : "clean";
            if (!cell.empty() &&
                cell != std::string(row.name) + ":" + column)
                continue;
            const Scenario sc{n, seed, faults, stats.path};
            Arms arms{row.name, column};
            row.run(sc, arms);
            failed += arms.failed;
            ++cells;
        }
    }
    if (cells == 0)
        return usage(); // --cell named no row x column
    std::fflush(stdout);
    if (failed > 0) {
        std::fprintf(stderr,
                     "determinism_check: FAIL (%u arm(s) failed; "
                     "n %llu, seed %llu)\n",
                     failed, static_cast<unsigned long long>(n),
                     static_cast<unsigned long long>(seed));
        return 1;
    }
    std::printf("determinism_check: PASS (%u cell(s), n %llu, seed "
                "%llu)\n",
                cells, static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(seed));
    return 0;
}
