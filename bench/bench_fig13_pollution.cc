/**
 * @file
 * Figure 13: average access latency of eight X-Mem instances with
 * varying working-set sizes under three co-running scenarios:
 *
 *   None      - probes only
 *   Software  - four memcpy() processes streaming on separate cores
 *   DSA       - the same four copy streams offloaded to DSA
 *               (TS 4 KB, batch 128)
 *
 * Paper shape: software copies pollute the LLC and inflate probe
 * latency (~43% at a 4 MB working set); DSA offload leaves the
 * probes essentially at the None baseline because device reads do
 * not allocate and writes stay within the DDIO ways.
 */

#include "apps/xmem.hh"
#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

/** Four cores running a glibc-memcpy loop over a large footprint. */
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
        auto r = rig.plat.kernels().memcpyOp(core, *rig.as,
                                             dst + off, src + off,
                                             ts);
        co_await core.busyFor(r.duration, "memcpy-bg");
        off = (off + ts) % span;
    }
}

/** One submitter streaming 4KB x BS:128 batches to DSA. */
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
            d.flags |= descflags::cacheControl; // DDIO-confined
            subs.push_back(d);
            off = (off + ts) % span;
        }
        dml::OpResult r;
        co_await rig.exec->executeBatch(core, subs, r);
    }
}

double
scenario(const std::string &kind, std::uint64_t ws)
{
    // One DSA instance (the paper offloads to four groups of one
    // device); its four copy streams share the 30 GB/s fabric.
    Rig::Options o;
    o.devices = 1;
    Rig rig(o);
    const Tick horizon = fromUs(3000);

    // Warm-up: probe working sets touched, background copiers
    // launched, and half a horizon of pollution build-up before the
    // measured window opens.
    std::vector<std::unique_ptr<apps::XMemProbe>> probes;
    for (int i = 0; i < 8; ++i) {
        probes.push_back(std::make_unique<apps::XMemProbe>(
            rig.plat, *rig.as,
            rig.plat.core(static_cast<std::size_t>(i)), ws,
            1000 + static_cast<std::uint64_t>(i)));
        probes.back()->warmAll();
    }
    if (kind == "Software") {
        for (int c = 8; c < 12; ++c)
            softwareCopier(rig, c, rig.sim.now() + 2 * horizon);
    } else if (kind == "DSA") {
        for (int c = 8; c < 12; ++c)
            dsaCopier(rig, c, rig.sim.now() + 2 * horizon);
    }
    rig.sim.runUntil(rig.sim.now() + horizon / 2);

    // Measured probe phase.
    std::vector<Histogram> hists(probes.size());
    Tick until = rig.sim.now() + horizon;
    for (std::size_t i = 0; i < probes.size(); ++i)
        probes[i]->run(until, hists[i]);
    rig.sim.runUntil(until);

    double sum = 0;
    for (auto &h : hists)
        sum += h.mean();
    return sum / 8.0;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> working_sets = {
        1ull << 20, 2ull << 20, 4ull << 20, 8ull << 20,
        16ull << 20, 32ull << 20, 64ull << 20};

    std::vector<std::string> cols = {"scenario"};
    for (auto ws : working_sets)
        cols.push_back(fmtSize(ws));
    Table tbl("Fig 13: X-Mem mean read latency (ns), 8 instances",
              cols);

    // One rig per (scenario, working set) point; the "+x%" cells
    // compare against the None row once every point is in.
    const std::vector<std::string> kinds = {"None", "Software", "DSA"};
    const std::size_t nws = working_sets.size();
    SweepRunner sweep;
    auto ns = sweep.run(kinds.size() * nws, [&](std::size_t i) {
        return scenario(kinds[i / nws], working_sets[i % nws]);
    });
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        std::vector<std::string> row = {kinds[k]};
        for (std::size_t w = 0; w < nws; ++w) {
            const double v = ns[k * nws + w];
            const double base = ns[w];
            char cell[64];
            if (k == 0) {
                std::snprintf(cell, sizeof(cell), "%.1f", v);
            } else {
                std::snprintf(cell, sizeof(cell), "%.1f (+%.0f%%)", v,
                              100.0 * (v - base) / base);
            }
            row.push_back(cell);
        }
        tbl.addRow(row);
    }
    tbl.print();
    return 0;
}
