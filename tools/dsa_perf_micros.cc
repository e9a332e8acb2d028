/**
 * @file
 * dsa_perf_micros — a command-line microbenchmark over the simulated
 * platform, in the spirit of Intel's dsa-perf-micros tool the paper
 * uses (§4.1): pick an operation, transfer size, batch size, queue
 * depth, WQ mode, device/engine counts and buffer placements, and
 * get latency percentiles and throughput.
 *
 * Examples:
 *   dsa_perf_micros --op=memcpy --ts=4096 --mode=async --qd=32
 *   dsa_perf_micros --op=crc --ts=65536 --mode=sync --iters=200
 *   dsa_perf_micros --op=memcpy --ts=1048576 --src=cxl --dst=dram
 *   dsa_perf_micros --op=memcpy --ts=16384 --bs=32 --engines=4
 *   dsa_perf_micros --op=memcpy --wq=swq --threads=4 --ts=8192
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/common.hh"

using namespace dsasim;
using namespace dsasim::bench;

namespace
{

struct Options
{
    std::string op = "memcpy";
    std::uint64_t ts = 4096;
    int bs = 1;
    int qd = 32;
    int iters = 0; // 0 = auto
    int threads = 1;
    std::string mode = "async";
    std::string wq = "dwq";
    unsigned engines = 1;
    unsigned devices = 1;
    std::string src = "dram";
    std::string dst = "dram";
    bool cacheControl = false;
    std::string pages = "4k";
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: dsa_perf_micros [--op=memcpy|fill|compare|cmppat|crc|"
        "copycrc|dualcast|cflush]\n"
        "  [--ts=BYTES] [--bs=N] [--qd=N] [--iters=N] [--threads=N]\n"
        "  [--mode=sync|async] [--wq=dwq|swq] [--engines=N] "
        "[--devices=N]\n"
        "  [--src=dram|remote|cxl] [--dst=dram|remote|cxl]\n"
        "  [--cache-control=0|1] [--pages=4k|2m]\n");
    std::exit(2);
}

MemKind
kindOf(const std::string &s)
{
    if (s == "dram")
        return MemKind::DramLocal;
    if (s == "remote")
        return MemKind::DramRemote;
    if (s == "cxl")
        return MemKind::Cxl;
    usage();
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto eat = [&](const char *key, std::string &out) {
            std::string k = std::string("--") + key + "=";
            if (a.rfind(k, 0) == 0) {
                out = a.substr(k.size());
                return true;
            }
            return false;
        };
        std::string v;
        if (eat("op", o.op) || eat("mode", o.mode) ||
            eat("wq", o.wq) || eat("src", o.src) ||
            eat("dst", o.dst) || eat("pages", o.pages)) {
            continue;
        } else if (eat("ts", v)) {
            o.ts = std::stoull(v);
        } else if (eat("bs", v)) {
            o.bs = std::stoi(v);
        } else if (eat("qd", v)) {
            o.qd = std::stoi(v);
        } else if (eat("iters", v)) {
            o.iters = std::stoi(v);
        } else if (eat("threads", v)) {
            o.threads = std::stoi(v);
        } else if (eat("engines", v)) {
            o.engines = static_cast<unsigned>(std::stoul(v));
        } else if (eat("devices", v)) {
            o.devices = static_cast<unsigned>(std::stoul(v));
        } else if (eat("cache-control", v)) {
            o.cacheControl = v == "1";
        } else if (a == "--help" || a == "-h") {
            usage();
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage();
        }
    }
    return o;
}

WorkDescriptor
makeDesc(const Options &o, Rig &rig, Addr src, Addr dst,
         std::uint64_t n)
{
    using E = dml::Executor;
    WorkDescriptor d;
    if (o.op == "memcpy")
        d = E::memMove(*rig.as, dst, src, n);
    else if (o.op == "fill")
        d = E::fill(*rig.as, dst, 0xa5a5a5a5a5a5a5a5ull, n);
    else if (o.op == "compare")
        d = E::compare(*rig.as, src, dst, n);
    else if (o.op == "cmppat")
        d = E::comparePattern(*rig.as, src, 0, n);
    else if (o.op == "crc")
        d = E::crc32(*rig.as, src, n);
    else if (o.op == "copycrc")
        d = E::copyCrc(*rig.as, dst, src, n);
    else if (o.op == "dualcast")
        d = E::dualcast(*rig.as, dst, dst + n, src, n);
    else if (o.op == "cflush")
        d = E::cacheFlush(*rig.as, src, n);
    else
        usage();
    if (o.cacheControl)
        d.flags |= descflags::cacheControl;
    return d;
}

struct ThreadStats
{
    Histogram lat;
    std::uint64_t bytes = 0;
};

SimTask
worker(const Options &o, Rig &rig, int thread_id, int iters,
       Latch &done, ThreadStats &st)
{
    Core &core = rig.plat.core(static_cast<std::size_t>(thread_id));
    PageSize ps =
        o.pages == "2m" ? PageSize::Size2M : PageSize::Size4K;
    const std::uint64_t span =
        o.ts * static_cast<std::uint64_t>(o.bs);
    const int slots = 8;
    Addr src = rig.as->alloc(span * slots * 2 + 4096, kindOf(o.src),
                             ps);
    Addr dst = rig.as->alloc(span * slots * 2 + 8192, kindOf(o.dst),
                             ps);

    if (o.mode == "sync") {
        for (int i = 0; i < iters; ++i) {
            rig.plat.mem().cache().invalidateAll();
            Addr so = src + static_cast<Addr>(i % slots) * span;
            Addr dk = dst + static_cast<Addr>(i % slots) * span;
            dml::OpResult r;
            if (o.bs == 1) {
                co_await rig.exec->executeHardware(
                    core, makeDesc(o, rig, so, dk, o.ts), r);
            } else {
                std::vector<WorkDescriptor> subs;
                for (int b = 0; b < o.bs; ++b) {
                    subs.push_back(makeDesc(
                        o, rig, so + static_cast<Addr>(b) * o.ts,
                        dk + static_cast<Addr>(b) * o.ts, o.ts));
                }
                co_await rig.exec->executeBatch(core, subs, r);
            }
            st.lat.add(toNs(r.latency));
            st.bytes += span;
        }
        done.arrive();
        co_return;
    }

    // Async: keep `qd` jobs outstanding.
    Semaphore window(rig.sim, static_cast<std::uint64_t>(
                                  std::max(1, o.qd / o.bs)));
    Latch all(rig.sim, static_cast<std::uint64_t>(iters));
    struct W
    {
        static SimTask
        drain(Simulation &sim, std::unique_ptr<dml::Job> j,
              Semaphore &win, Latch &a, Histogram &h)
        {
            if (!j->cr.isDone())
                co_await j->cr.done.wait();
            h.add(toNs(sim.now() - j->submittedAt));
            win.release();
            a.arrive();
        }
    };
    for (int i = 0; i < iters; ++i) {
        if (i > 0 && i % slots == 0)
            rig.plat.mem().cache().invalidateAll();
        Addr so = src + static_cast<Addr>(i % slots) * span;
        Addr dk = dst + static_cast<Addr>(i % slots) * span;
        co_await window.acquire();
        std::unique_ptr<dml::Job> job;
        if (o.bs == 1) {
            job = rig.exec->prepare(makeDesc(o, rig, so, dk, o.ts));
        } else {
            std::vector<WorkDescriptor> subs;
            for (int b = 0; b < o.bs; ++b) {
                subs.push_back(makeDesc(
                    o, rig, so + static_cast<Addr>(b) * o.ts,
                    dk + static_cast<Addr>(b) * o.ts, o.ts));
            }
            job = rig.exec->prepareBatch(rig.as->pasid(), subs);
        }
        co_await rig.exec->submit(core, *job);
        st.bytes += span;
        W::drain(rig.sim, std::move(job), window, all, st.lat);
    }
    co_await all.wait();
    done.arrive();
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);

    Rig::Options ro;
    ro.devices = o.devices;
    ro.engines = o.engines;
    ro.wqMode = o.wq == "swq" ? WorkQueue::Mode::Shared
                              : WorkQueue::Mode::Dedicated;
    Rig rig(ro);

    int iters = o.iters
                    ? o.iters
                    : itersFor(o.ts * static_cast<std::uint64_t>(
                                          o.bs),
                               o.mode == "sync" ? 100 : 300);

    std::vector<ThreadStats> stats(
        static_cast<std::size_t>(o.threads));
    Latch done(rig.sim, static_cast<std::uint64_t>(o.threads));
    Tick t0 = rig.sim.now();
    for (int t = 0; t < o.threads; ++t)
        worker(o, rig, t, iters, done, stats[static_cast<std::size_t>(t)]);
    rig.sim.run();
    Tick elapsed = rig.sim.now() - t0;

    std::uint64_t bytes = 0;
    for (auto &st : stats)
        bytes += st.bytes;

    std::printf("op=%s ts=%llu bs=%d qd=%d mode=%s wq=%s "
                "devices=%u engines=%u threads=%d src=%s dst=%s "
                "cc=%d pages=%s\n",
                o.op.c_str(),
                static_cast<unsigned long long>(o.ts), o.bs, o.qd,
                o.mode.c_str(), o.wq.c_str(), o.devices, o.engines,
                o.threads, o.src.c_str(), o.dst.c_str(),
                o.cacheControl ? 1 : 0, o.pages.c_str());
    std::printf("iterations=%d elapsed=%.2f us throughput=%.2f "
                "GB/s\n",
                iters * o.threads, toUs(elapsed),
                achievedGBps(bytes, elapsed));
    if (o.threads == 1) {
        // sync: per-op round trip; async: submit-to-completion.
        Histogram &h = stats[0].lat;
        std::printf("latency ns: mean=%.0f p50=%.0f p99=%.0f "
                    "max=%.0f\n",
                    h.mean(), h.percentile(50), h.percentile(99),
                    h.max());
    }
    return 0;
}
