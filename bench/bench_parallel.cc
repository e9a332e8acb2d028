/**
 * @file
 * Host-side payoff of partitioned parallel simulation (DESIGN.md
 * §11): one Fig. 6-style 4-socket scenario — dense per-socket DSA
 * memmove pipelines at queue depth 32 plus cross-socket UPI push
 * traffic — simulated on 1, 2 and 4 worker threads, self-relative
 * wall-clock. The scenario, its event streams and its stream hash
 * are identical for every thread count (that equality is asserted on
 * every run, and is the part of the gate that runs everywhere); the
 * only thing the thread count may change is how long the host takes.
 *
 * The cross-link protocol ships 256 KiB blocks, and
 * ClusterConfig::lookaheadBytes raises the channel lookahead floor
 * by that serialization time (~4.4 us at 60 GB/s), so conservative
 * epochs are long enough to amortize the two barriers each costs.
 *
 * Metrics:
 *   events_per_sec at 1/2/4 threads (best of --trials), and
 *   speedup_2 / speedup_4 relative to the 1-thread run. events,
 *   end_us and stream_hash are simulated quantities — bit-identical
 *   across thread counts, trials and hosts.
 *
 * Usage:
 *   bench_parallel [--n=DESC] [--trials=3] [--json=PATH]
 *                  [--check=PATH]
 *
 * Prints the metrics as a JSON object and --json writes it to PATH.
 * --check compares against a committed JSON (the Gate in common.hh)
 * and fails if (a) the simulated fingerprint (events, end_us,
 * stream_hash) differs at all, or (b) — only on hosts with >= 4
 * hardware threads, since speedup on fewer cores measures the
 * scheduler, not the simulator — speedup_4 is below 2.5x. The event
 * rates are recorded, never compared.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "driver/cluster.hh"
#include "sim/random.hh"

namespace dsasim::bench
{
namespace
{

struct Params
{
    int descriptors = 1500; ///< per socket
    int depth = 32;         ///< outstanding descriptors per socket
    int trials = 3;
    std::uint64_t descSize = 64 << 10;
    std::uint64_t blockBytes = 256 << 10; ///< UPI push block
    int blocks = 96;                      ///< pushes per socket
};

ClusterConfig
clusterConfig(const Params &p)
{
    ClusterConfig cc;
    cc.sockets = 4;
    cc.socket = PlatformConfig::spr();
    cc.socket.numCores = 2;
    cc.socket.numDsaDevices = 1;
    cc.socket.dsaTopology = DsaTopology::basic(32, 4);
    for (auto &node : cc.socket.mem.nodes)
        node.capacityBytes = 1ull << 30;
    // The protocol ships blockBytes per push; declaring that to the
    // channels buys epochs long enough to amortize barrier cost.
    cc.lookaheadBytes = p.blockBytes;
    return cc;
}

/** Depth-@p windowed memmove pipeline on one socket. */
SimTask
socketLoad(Simulation &sim, Platform &plat, dml::Executor &exec,
           std::vector<WorkDescriptor> ring, int total, int depth)
{
    Core &core = plat.core(0);
    Semaphore window(sim, static_cast<std::uint64_t>(depth));
    Latch all(sim, static_cast<std::uint64_t>(total));

    struct Waiter
    {
        static SimTask
        drain(std::unique_ptr<dml::Job> job, Semaphore &win,
              Latch &done)
        {
            if (!job->cr.isDone())
                co_await job->cr.done.wait();
            win.release();
            done.arrive();
        }
    };

    for (int i = 0; i < total; ++i) {
        const WorkDescriptor &d =
            ring[static_cast<std::size_t>(i) % ring.size()];
        if (i > 0 && static_cast<std::size_t>(i) % ring.size() == 0)
            plat.mem().cache().invalidateAll();
        co_await window.acquire();
        auto job = exec.prepare(d);
        co_await exec.submit(core, *job);
        Waiter::drain(std::move(job), window, all);
    }
    co_await all.wait();
}

/** Cross-socket stream: @p blocks pushes to the ring neighbor. */
SimTask
remoteLoad(RemotePort &port, std::uint64_t block, int blocks)
{
    for (int i = 0; i < blocks; ++i)
        co_await port.push(block);
}

struct RunResult
{
    double secs = 0; ///< best-of-trials wall clock
    std::uint64_t streamHash = 0;
    std::uint64_t events = 0;
    Tick endTick = 0;
    std::uint64_t epochs = 0;
};

RunResult
runAt(unsigned threads, const Params &p)
{
    RunResult best;
    for (int trial = 0; trial < p.trials; ++trial) {
        SocketCluster cl(clusterConfig(p));
        cl.enableStreamHash(true);
        std::vector<std::unique_ptr<dml::Executor>> execs;
        for (unsigned s = 0; s < cl.socketCount(); ++s) {
            Platform &plat = cl.plat(s);
            dml::ExecutorConfig ec;
            ec.path = dml::Path::Hardware;
            execs.push_back(std::make_unique<dml::Executor>(
                cl.domainSim(s), plat.mem(), plat.kernels(),
                std::vector<DsaDevice *>{&plat.dsa(0)}, ec));
            dml::Executor *e = execs.back().get();
            AddressSpace &as = plat.mem().createSpace();
            const int count = 16;
            Addr src = as.alloc(p.descSize * count);
            Addr dst = as.alloc(p.descSize * count);
            std::vector<WorkDescriptor> ring;
            for (int i = 0; i < count; ++i) {
                ring.push_back(dml::Executor::memMove(
                    as, dst + static_cast<Addr>(i) * p.descSize,
                    src + static_cast<Addr>(i) * p.descSize,
                    p.descSize));
            }
            socketLoad(cl.domainSim(s), plat, *e, std::move(ring),
                       p.descriptors, p.depth);
            remoteLoad(cl.port(s, (s + 1) % cl.socketCount()),
                       p.blockBytes, p.blocks);
        }

        const auto t0 = Clock::now();
        cl.run(threads);
        const double secs = secondsSince(t0);

        RunResult r;
        r.secs = secs;
        r.streamHash = cl.streamHash();
        r.events = cl.eventsExecuted();
        r.endTick = cl.endTick();
        r.epochs = cl.partitions().epochsRun();
        if (trial == 0) {
            best = r;
        } else {
            // Trials are fresh identical clusters: simulated results
            // must be bit-identical, only wall-clock may move.
            if (r.streamHash != best.streamHash ||
                r.events != best.events ||
                r.endTick != best.endTick) {
                std::fprintf(stderr,
                             "bench_parallel: trial %d diverged at "
                             "%u threads (hash %016llx vs %016llx)\n",
                             trial, threads,
                             static_cast<unsigned long long>(
                                 r.streamHash),
                             static_cast<unsigned long long>(
                                 best.streamHash));
                std::exit(1);
            }
            best.secs = std::min(best.secs, r.secs);
        }
    }
    return best;
}

/** Run at 1, 2 and 4 threads and declare the metrics on @p gate. */
void
measure(const Params &p, Gate &gate)
{
    const unsigned hw_threads =
        std::max(1u, std::thread::hardware_concurrency());
    RunResult r1 = runAt(1, p);
    RunResult r2 = runAt(2, p);
    RunResult r4 = runAt(4, p);

    // The determinism gate proper: thread count must not leak into
    // the simulation. This holds (and is enforced) on every host.
    if (r1.streamHash != r2.streamHash ||
        r1.streamHash != r4.streamHash || r1.events != r2.events ||
        r1.events != r4.events || r1.endTick != r2.endTick ||
        r1.endTick != r4.endTick) {
        std::fprintf(stderr,
                     "bench_parallel: FAIL — thread count changed "
                     "the simulation (hashes %016llx / %016llx / "
                     "%016llx)\n",
                     static_cast<unsigned long long>(r1.streamHash),
                     static_cast<unsigned long long>(r2.streamHash),
                     static_cast<unsigned long long>(r4.streamHash));
        std::exit(1);
    }

    const double ev = static_cast<double>(r1.events);
    const double speedup4 = r1.secs / r4.secs;
    gate.add(Gate::Info, "sockets", 4);
    gate.add(Gate::Info, "hw_threads", hw_threads);
    gate.add(Gate::Exact, "events", ev);
    gate.add(Gate::Exact, "end_us", toUs(r1.endTick), 3);
    gate.add(Gate::Exact, "stream_hash", hex64(r1.streamHash));
    gate.add(Gate::Info, "epochs", r4.epochs);
    gate.add(Gate::Info, "serial_events_per_sec", ev / r1.secs);
    gate.add(Gate::Info, "t2_events_per_sec", ev / r2.secs);
    gate.add(Gate::Info, "t4_events_per_sec", ev / r4.secs);
    gate.add(Gate::Info, "speedup_2", r1.secs / r2.secs, 3);
    gate.add(Gate::Info, "speedup_4", speedup4, 3);
    gate.add(Gate::Info, "note",
             "speedups are self-relative wall-clock and only "
             "meaningful when hw_threads >= 4; events/end_us/"
             "stream_hash are simulated quantities, identical on "
             "every host and thread count");
    // Parallel payoff: only meaningful with the cores to show it.
    if (hw_threads >= 4)
        gate.require("speedup_4 " + fmt(speedup4, 3) + " >= 2.5",
                     speedup4 >= 2.5, "speedup_4");
    else if (gate.checking())
        std::fprintf(stderr,
                     "speedup_4 not gated: host has %u hardware "
                     "thread(s)\n",
                     hw_threads);
}

} // namespace
} // namespace dsasim::bench

int
main(int argc, char **argv)
{
    using namespace dsasim::bench;
    Params p;
    Gate gate("parallel");
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (gate.parseArg(a))
            continue;
        if (a.rfind("--n=", 0) == 0)
            p.descriptors =
                static_cast<int>(std::strtol(a.c_str() + 4,
                                             nullptr, 0));
        else if (a.rfind("--trials=", 0) == 0)
            p.trials =
                static_cast<int>(std::strtol(a.c_str() + 9,
                                             nullptr, 0));
        else {
            std::fprintf(stderr,
                         "usage: bench_parallel [--n=DESC] "
                         "[--trials=T] [--json=PATH] "
                         "[--check=PATH]\n");
            return 2;
        }
    }

    measure(p, gate);
    return gate.finish();
}
