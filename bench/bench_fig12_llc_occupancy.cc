/**
 * @file
 * Figure 12: per-core LLC occupancy over time while eight X-Mem
 * probes (4 MB working sets) co-run with four background copy
 * streams, either on cores (memcpy) or offloaded to DSA.
 *
 * The timeline mirrors the paper's: the background copiers run for
 * the whole window, the probes from ~1/12 to ~3/4 of it. With
 * software copies the copier cores dominate LLC occupancy; with DSA
 * offload the device's footprint stays pinned inside the small DDIO
 * partition.
 */

#include "apps/xmem.hh"
#include "bench/common.hh"
#include "sim/logging.hh"

namespace dsasim::bench
{
namespace
{

constexpr Tick epoch = fromUs(100);
constexpr int epochs = 60;

SimTask
softwareCopier(Rig &rig, int core_id, Tick until)
{
    Core &core = rig.plat.core(static_cast<std::size_t>(core_id));
    const std::uint64_t ts = 4096;
    const std::uint64_t span = 32ull << 20;
    Addr src = rig.as->alloc(span);
    Addr dst = rig.as->alloc(span);
    std::uint64_t off = 0;
    while (rig.sim.now() < until) {
        auto r = rig.plat.kernels().memcpyOp(core, *rig.as, dst + off,
                                             src + off, ts);
        co_await core.busyFor(r.duration, "memcpy-bg");
        off = (off + ts) % span;
    }
}

SimTask
dsaCopier(Rig &rig, int core_id, Tick until)
{
    Core &core = rig.plat.core(static_cast<std::size_t>(core_id));
    const std::uint64_t ts = 4096;
    const int bs = 128;
    const std::uint64_t span = 32ull << 20;
    Addr src = rig.as->alloc(span);
    Addr dst = rig.as->alloc(span);
    std::uint64_t off = 0;
    while (rig.sim.now() < until) {
        std::vector<WorkDescriptor> subs;
        for (int b = 0; b < bs; ++b) {
            WorkDescriptor d = dml::Executor::memMove(
                *rig.as, dst + off, src + off, ts);
            d.flags |= descflags::cacheControl;
            subs.push_back(d);
            off = (off + ts) % span;
        }
        dml::OpResult r;
        co_await rig.exec->executeBatch(core, subs, r);
    }
}

SimTask
sampler(Rig &rig, TimeSeries &xmem_mb, TimeSeries &bg_mb,
        bool dsa_mode)
{
    CacheModel &llc = rig.plat.mem().cache();
    for (int e = 0; e <= epochs; ++e) {
        std::uint64_t xmem = 0, bg = 0;
        for (int c = 0; c < 8; ++c)
            xmem += llc.occupancyBytes(c);
        if (dsa_mode) {
            for (std::size_t d = 0; d < rig.plat.dsaCount(); ++d)
                bg += llc.occupancyBytes(
                    rig.plat.dsa(d).cacheOwnerId());
        } else {
            for (int c = 8; c < 12; ++c)
                bg += llc.occupancyBytes(c);
        }
        xmem_mb.add(rig.sim.now(),
                    static_cast<double>(xmem) / (1 << 20));
        bg_mb.add(rig.sim.now(),
                  static_cast<double>(bg) / (1 << 20));
        co_await rig.sim.delay(epoch);
    }
}

/** One panel's timeline, as the text it prints. */
std::string
runPanel(const std::string &kind)
{
    Rig::Options o;
    o.devices = 4;
    Rig rig(o);
    const bool dsa = kind == "DSA";

    // Background copies: epochs 0..60; probes: epochs 5..45.
    Tick bg_until = static_cast<Tick>(epochs) * epoch;
    for (int c = 8; c < 12; ++c) {
        if (dsa)
            dsaCopier(rig, c, bg_until);
        else
            softwareCopier(rig, c, bg_until);
    }

    std::vector<std::unique_ptr<apps::XMemProbe>> probes;
    Histogram hist;
    struct Starter
    {
        static SimTask
        go(Rig &r, std::vector<std::unique_ptr<apps::XMemProbe>> &ps,
           Histogram &h)
        {
            co_await r.sim.delay(5 * epoch);
            for (int i = 0; i < 8; ++i) {
                ps.push_back(std::make_unique<apps::XMemProbe>(
                    r.plat, *r.as,
                    r.plat.core(static_cast<std::size_t>(i)),
                    4ull << 20, 2000 + static_cast<std::uint64_t>(i)));
                ps.back()->run(45 * epoch, h);
            }
        }
    };
    Starter::go(rig, probes, hist);

    TimeSeries xmem_mb, bg_mb;
    sampler(rig, xmem_mb, bg_mb, dsa);
    rig.sim.runUntil(bg_until + epoch);

    std::string out =
        strfmt("\n== Fig 12 (%s): LLC occupancy (MB) over time ==\n",
               kind.c_str());
    out += strfmt("%-8s %-12s %-12s\n", "epoch", "xmem(8 cores)",
                  dsa ? "DSA devices" : "memcpy(4 cores)");
    for (std::size_t i = 0; i < xmem_mb.size(); i += 5) {
        out += strfmt("%-8zu %-12.1f %-12.1f\n", i,
                      xmem_mb.data()[i].value, bg_mb.data()[i].value);
    }
    return out;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim::bench;

    // The two panels run on their own rigs and print in order.
    const std::vector<std::string> kinds = {"Software", "DSA"};
    SweepRunner sweep;
    auto panels = sweep.run(kinds.size(), [&](std::size_t i) {
        return runPanel(kinds[i]);
    });
    for (const auto &text : panels)
        std::fputs(text.c_str(), stdout);
    return 0;
}
