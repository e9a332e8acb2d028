/**
 * @file
 * cpu-pollution: the Fig. 13 "Software" arm at a 4 MB working set.
 * Eight apps::XMemProbe dependent-random-read probes run on cores
 * 0-7 while four cores (8-11) stream 4 KiB SwKernels::memcpyOp
 * copies over 32 MiB spans, as bench_fig13_pollution does. A warm-up
 * walks every probe line and lets the copiers fill the LLC; the
 * measured window is a fixed simulated time. One op is one probe
 * access. There is no DSA and no CRC on the simulated side: this
 * workload exercises the CPU-side line-at-a-time LLC path and link
 * occupancy only.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "apps/xmem.hh"
#include "driver/platform.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using namespace dsasim;

constexpr int probeCount = 8;
constexpr int copierCount = 4;
constexpr std::uint64_t workingSet = 4ull << 20;
constexpr std::uint64_t copySpan = 32ull << 20;
constexpr std::uint64_t copyBytes = 4096;
const Tick warmup = fromUs(1500);
/** Measured simulated microseconds per requested host second
 *  (sized on a 4-vCPU Xeon virtual machine). */
constexpr double simUsPerSecond = 5200.0;
const Tick slice = fromUs(100);

struct Copier
{
    int core = 0;
    Addr src = 0, dst = 0;
    std::uint64_t off = 0;
    std::uint64_t copies = 0;
};

struct Rig
{
    Simulation sim;
    std::unique_ptr<Platform> plat;
    AddressSpace *as = nullptr;
    std::vector<std::unique_ptr<apps::XMemProbe>> probes;
    /** XMemProbe::run's caller-side latency sink; each probe keeps
     *  its own full histogram, so one sample is enough here. */
    Histogram sink{1};
    std::vector<Copier> copiers;
    Tick windowStart = 0, windowEnd = 0;
    std::uint64_t kernelCalls = 0;
    std::uint64_t kernelBytes = 0;
};

SimTask
copierLoop(Rig &rig, Copier &c, Tracer &tr)
{
    Core &core = rig.plat->core(static_cast<std::size_t>(c.core));
    SwKernels &k = rig.plat->kernels();
    while (rig.sim.now() < rig.windowEnd) {
        SwKernels::Result r;
        {
            Tracer::Span sp(tr, Layer::Cpu, "memcpyOp");
            r = k.memcpyOp(core, *rig.as, c.dst + c.off, c.src + c.off,
                           copyBytes);
        }
        ++rig.kernelCalls;
        rig.kernelBytes += copyBytes;
        ++c.copies;
        co_await core.busyFor(r.duration, "memcpy-bg");
        c.off = (c.off + copyBytes) % copySpan;
    }
}

struct VerifyOut
{
    std::uint64_t badCopies = 0;
    std::uint64_t checkedCopies = 0;
};

/** Every copied 4 KiB block must equal its source. */
VerifyOut
verify(Rig &rig, Tracer &tr, RefCrc &crc)
{
    VerifyOut v;
    std::vector<std::uint8_t> src, dst;
    for (const Copier &c : rig.copiers) {
        const std::uint64_t n =
            std::min<std::uint64_t>(c.copies * copyBytes, copySpan);
        src.resize(n);
        dst.resize(n);
        rig.as->read(c.src, src.data(), n);
        rig.as->read(c.dst, dst.data(), n);
        for (std::uint64_t off = 0; off < n; off += copyBytes) {
            ++v.checkedCopies;
            if (std::memcmp(src.data() + off, dst.data() + off,
                            copyBytes) != 0)
                ++v.badCopies;
        }
        // The ops reference CRC must agree on both images too.
        if (crc(src, tr) != crc(dst, tr) && v.badCopies == 0)
            ++v.badCopies;
    }
    return v;
}

class CpuPollution : public Workload
{
  public:
    CpuPollution(const Options &o, Tracer &t)
        : opt(o), tr(t),
          window(fromUs(
              std::max(50.0, std::round(o.seconds * simUsPerSecond))))
    {}

    void
    setUp() override
    {
        rig = std::make_unique<Rig>();
        rig->sim.enableStreamHash(true);
        {
            Tracer::Span sp(tr, Layer::Driver, "build");
            PlatformConfig cfg = PlatformConfig::spr();
            cfg.numDsaDevices = 0;
            rig->plat = std::make_unique<Platform>(rig->sim, cfg);
        }
        {
            Tracer::Span sp(tr, Layer::Mem, "space_setup");
            AddressSpace &as = rig->plat->mem().createSpace();
            rig->as = &as;
            for (int i = 0; i < probeCount; ++i)
                rig->probes.push_back(std::make_unique<apps::XMemProbe>(
                    *rig->plat, as,
                    rig->plat->core(static_cast<std::size_t>(i)),
                    workingSet,
                    mix64(opt.seed * 64 + static_cast<unsigned>(i))));
            for (int i = 0; i < copierCount; ++i) {
                Copier c;
                c.core = probeCount + i;
                c.src = as.alloc(copySpan);
                c.dst = as.alloc(copySpan);
                seedBytes(as, c.src, copySpan,
                          opt.seed * 16 + static_cast<unsigned>(i));
                rig->copiers.push_back(c);
            }
        }
        // Warm-up: every probe line touched once, then the copiers
        // stream until the LLC is full of their lines.
        for (auto &p : rig->probes) {
            Tracer::Span sp(tr, Layer::Mem, "warmAll");
            p->warmAll();
        }
        rig->windowStart = rig->sim.now() + warmup;
        rig->windowEnd = rig->windowStart + window;
        for (Copier &c : rig->copiers)
            copierLoop(*rig, c, tr);
        while (rig->sim.now() < rig->windowStart) {
            Tracer::Span sp(tr, Layer::Sim, "warmup");
            rig->sim.runUntil(
                std::min(rig->windowStart, rig->sim.now() + slice));
        }
    }

    std::uint64_t
    fingerprint() override
    {
        return rig->sim.streamHash() ^ rig->sim.eventsExecuted();
    }

    void
    beforeMeasure() override
    {
        const CacheModel &llc = rig->plat->mem().cache();
        fill = static_cast<double>(llc.totalOccupancyBytes()) /
               static_cast<double>(llc.sizeBytes());
        before = counters(rig->sim.stats());
        events0 = rig->sim.eventsExecuted();
        calls0 = rig->kernelCalls;
        bytes0 = rig->kernelBytes;
    }

    std::uint64_t
    measure(Laps &laps) override
    {
        for (auto &p : rig->probes)
            p->run(rig->windowEnd, rig->sink);
        while (rig->sim.now() < rig->windowEnd) {
            {
                Tracer::Span sp(tr, Layer::Sim, "run");
                rig->sim.runUntil(
                    std::min(rig->windowEnd, rig->sim.now() + slice));
            }
            laps.mark(accesses());
        }
        // Let the last probe batches and copies finish.
        Tracer::Span sp(tr, Layer::Sim, "drain");
        rig->sim.run();
        return accesses();
    }

    void
    report(Result &res) override
    {
        res.events = rig->sim.eventsExecuted() - events0;
        res.registryDelta = delta(before, counters(rig->sim.stats()));
        // Each probe access is one translate + cpuAccess call.
        const std::uint64_t accessCalls = res.ops;
        const std::uint64_t kernelCalls = rig->kernelCalls - calls0;
        const std::uint64_t kernelBytes = rig->kernelBytes - bytes0;
        double latencyNs = 0;
        for (const auto &p : rig->probes)
            latencyNs += p->latencyHistogram().sum();
        const double meanNs =
            res.ops ? latencyNs / static_cast<double>(res.ops) : 0.0;
        const MemSystem &mem = rig->plat->mem();
        const double hitNs =
            toNs(mem.cfg().llcLatency +
                 rig->plat->core(0).cpuParams().cyclesToTicks(4));
        RefCrc crc;
        const VerifyOut v = verify(*rig, tr, crc);

        res.check("warmup_fills_llc", fill >= 0.9);
        res.check("copiers_write_back",
                  sumCounters(res.registryDelta, "llc.writeback_bytes") >
                      0);
        res.check("probe_mean_above_llc_hit", meanNs > hitNs);

        res.attempted = res.ops + v.checkedCopies;
        res.failed = v.badCopies;
        res.exactU("ops", res.ops);
        res.exactU("sim.events", res.events);
        res.exactU("model.stream_hash", rig->sim.streamHash());
        res.exactU("model.end_tick", rig->sim.now());
        res.exactF("model.probe_latency_ns", latencyNs);
        res.exactU("mem.cpu_access_calls", accessCalls);
        res.exactU("cpu.kernel_calls", kernelCalls);
        res.exactU("cpu.kernel_bytes", kernelBytes);
        reportRegistryCounts(res, res.registryDelta, 0);
        res.layer("mem.cpu_access_calls",
                  static_cast<double>(accessCalls));
        res.layer("cpu.kernel_calls", static_cast<double>(kernelCalls));
        res.layer("cpu.kernel_bytes", static_cast<double>(kernelBytes));
        res.layer("sim.events", static_cast<double>(res.events));
        res.layer("model.end_us", toUs(rig->sim.now()));
        res.layer("model.probe_mean_ns", meanNs);
        res.layer("ops.crc32c_gbps", crc.gbps());
    }

    void tearDown() override { rig.reset(); }

  private:
    std::uint64_t
    accesses() const
    {
        std::uint64_t n = 0;
        for (const auto &p : rig->probes)
            n += p->accesses();
        return n;
    }

    const Options &opt;
    Tracer &tr;
    const Tick window;
    std::unique_ptr<Rig> rig;
    double fill = 0;
    CounterMap before;
    std::uint64_t events0 = 0, calls0 = 0, bytes0 = 0;
};

} // namespace

std::unique_ptr<Workload>
makeCpuPollution(const Options &o, Tracer &tr)
{
    return std::make_unique<CpuPollution>(o, tr);
}

} // namespace perfbench
