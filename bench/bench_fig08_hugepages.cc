/**
 * @file
 * Figure 8: performance impact of huge pages with varying transfer
 * sizes. With the ATC warm and page walks pipelined behind the data
 * stream, throughput is nearly unaffected by page size; the table
 * also reports the cold (first-touch) pass where 2M pages help.
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

SimTask
coldPass(Rig &rig, Addr src, Addr dst, std::uint64_t ts,
         Measure &out)
{
    Core &core = rig.plat.core(0);
    dml::OpResult r;
    Tick t0 = rig.sim.now();
    co_await rig.exec->executeHardware(
        core, dml::Executor::memMove(*rig.as, dst, src, ts), r);
    out.meanNs = toNs(rig.sim.now() - t0);
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
        4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20};

    std::vector<std::string> cols = {"pages", "metric"};
    for (auto s : sizes)
        cols.push_back(fmtSize(s));
    Table tbl("Fig 8: huge-page impact on async memcpy", cols);

    const std::vector<PageSize> pss = {PageSize::Size4K,
                                       PageSize::Size2M};
    SweepRunner sweep;

    // Cold first touch (ATC empty, every page walked): one rig per
    // page size, since the row *is* the first-touch measurement.
    auto cold = sweep.run(pss.size(), [&](std::size_t pi) {
        Rig rig{Rig::Options{}};
        std::vector<std::string> cells;
        for (auto s : sizes) {
            Addr src = rig.as->alloc(s, MemKind::DramLocal, pss[pi]);
            Addr dst = rig.as->alloc(s, MemKind::DramLocal, pss[pi]);
            Measure m;
            coldPass(rig, src, dst, s, m);
            rig.sim.run();
            cells.push_back(fmt(m.gbps));
        }
        return cells;
    });

    // Steady state (warm ATC), async depth 32: one rig per (page
    // size, TS) cell.
    auto warm = sweep.run(pss.size() * sizes.size(), [&](std::size_t i) {
        const PageSize ps = pss[i / sizes.size()];
        const std::uint64_t s = sizes[i % sizes.size()];
        Rig rig{Rig::Options{}};
        Addr src = rig.as->alloc(s * 8, MemKind::DramLocal, ps);
        Addr dst = rig.as->alloc(s * 8, MemKind::DramLocal, ps);
        std::vector<WorkDescriptor> ring;
        for (int k = 0; k < 8; ++k) {
            ring.push_back(dml::Executor::memMove(
                *rig.as, dst + static_cast<Addr>(k) * s,
                src + static_cast<Addr>(k) * s, s));
        }
        Measure m = asyncHw(rig, ring);
        return fmt(m.gbps);
    });

    for (std::size_t pi = 0; pi < pss.size(); ++pi) {
        const char *label = pss[pi] == PageSize::Size4K ? "4K" : "2M";
        std::vector<std::string> row = {label, "cold GB/s"};
        for (auto &c : cold[pi])
            row.push_back(std::move(c));
        tbl.addRow(row);
        row = {label, "warm GB/s"};
        for (std::size_t si = 0; si < sizes.size(); ++si)
            row.push_back(std::move(warm[pi * sizes.size() + si]));
        tbl.addRow(row);
    }
    tbl.print();
    return 0;
}
