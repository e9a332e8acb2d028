/**
 * @file
 * Figure 15: throughput and latency when source/destination data
 * resides in the LLC (L) versus local DRAM (D), batch size 1.
 *
 * Paper shape (G2/G3): LLC-resident data helps both the core and
 * DSA; offload pays off from ~4 KB synchronously and ~128 B
 * asynchronously even for cached data, while smaller transfers are
 * better served by the core when pollution is acceptable.
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

struct Placement
{
    const char *label;
    bool srcLlc;
    bool dstLlc;
};

/**
 * Warm or flush buffers to establish the labeled placement, then
 * run the op once and record the latency.
 */
/** Pull a range into the LLC without charging any timing/links. */
void
warmRange(Rig &rig, Addr va, std::uint64_t len, int owner)
{
    const std::optional<Addr> unmapped = rig.as->pageTable().walk(
        va, len, [&](const PageTable::PageRun &pg) {
            for (Addr a = lineAlignDown(pg.pa);
                 a < lineAlignUp(pg.pa + pg.len); a += cacheLineSize)
                rig.plat.mem().cache().cpuAccess(a, owner);
            return true;
        });
    panic_if(unmapped, "warm of unmapped va=0x%llx",
             static_cast<unsigned long long>(*unmapped));
}

SimTask
placedLoop(Rig &rig, bool hw, Addr src, Addr dst,
           const Placement &p, std::uint64_t ts, int iters,
           Measure &out)
{
    Core &core = rig.plat.core(hw ? 0 : 1);
    Histogram lat;
    for (int i = 0; i < iters; ++i) {
        rig.plat.mem().cache().invalidateAll();
        // Establish placement: touch into LLC where requested.
        if (p.srcLlc)
            warmRange(rig, src, ts, 2);
        if (p.dstLlc)
            warmRange(rig, dst, ts, 2);
        dml::OpResult r;
        WorkDescriptor d =
            dml::Executor::memMove(*rig.as, dst, src, ts);
        // LLC-destination placements use the cache-control hint
        // (G3) so the device writes allocate into the LLC.
        if (p.dstLlc)
            d.flags |= descflags::cacheControl;
        if (hw)
            co_await rig.exec->executeHardware(core, d, r);
        else
            co_await rig.exec->executeSoftware(core, d, r);
        lat.add(toNs(r.latency));
    }
    out.meanNs = lat.mean();
    out.gbps = static_cast<double>(ts) / out.meanNs;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> sizes = {
        256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10};
    const std::vector<Placement> placements = {
        {"L,L", true, true},
        {"L,D", true, false},
        {"D,L", false, true},
        {"D,D", false, false},
    };

    std::vector<std::string> cols = {"config", "metric"};
    for (auto s : sizes)
        cols.push_back(fmtSize(s));
    Table tbl("Fig 15: LLC vs DRAM placements (sync, BS 1)", cols);

    // One (hw, placement) pair per sweep point; every point builds
    // its own default-options rig on the SweepRunner.
    SweepRunner sweep;
    auto rows = sweep.run(
        2 * placements.size(),
        [&](std::size_t i) -> std::vector<std::vector<std::string>> {
            Rig rig{Rig::Options{}};
            const bool hw = i < placements.size();
            const Placement &p = placements[i % placements.size()];
            Addr src = rig.as->alloc(sizes.back());
            Addr dst = rig.as->alloc(sizes.back());
            std::vector<std::string> thr = {
                std::string(hw ? "DSA: " : "CPU: ") + p.label,
                "GB/s"};
            std::vector<std::string> lat = {
                std::string(hw ? "DSA: " : "CPU: ") + p.label, "ns"};
            for (auto s : sizes) {
                Measure m;
                placedLoop(rig, hw, src, dst, p, s, 40, m);
                rig.sim.run();
                thr.push_back(fmt(m.gbps));
                lat.push_back(fmt(m.meanNs, 0));
            }
            return {thr, lat};
        });
    for (auto &pair : rows)
        for (auto &row : pair)
            tbl.addRow(std::move(row));
    tbl.print();
    return 0;
}
