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

    // Cold rows keep one rig per page size (the row *is* the cold
    // first-touch measurement); each warm cell builds its own rig on
    // the SweepRunner.
    for (PageSize ps : pss) {
        const char *label = ps == PageSize::Size4K ? "4K" : "2M";

        // Cold first touch (ATC empty, every page walked).
        tbl.addRow(runScenario(
            Scenario(Rig::Options{}),
            [&](Rig &rig) -> std::vector<std::string> {
                std::vector<std::string> row = {label, "cold GB/s"};
                for (auto s : sizes) {
                    Addr src =
                        rig.as->alloc(s, MemKind::DramLocal, ps);
                    Addr dst =
                        rig.as->alloc(s, MemKind::DramLocal, ps);
                    Measure m;
                    coldPass(rig, src, dst, s, m);
                    rig.sim.run();
                    row.push_back(fmt(m.gbps));
                }
                return row;
            }));

        // Steady state (warm ATC), async depth 32.
        std::vector<std::string> row = {label, "warm GB/s"};
        auto cells = sweepScenario(
            sweep, Scenario(Rig::Options{}), sizes.size(),
            [&](Rig &rig, std::size_t si) -> std::string {
                const std::uint64_t s = sizes[si];
                Addr src =
                    rig.as->alloc(s * 8, MemKind::DramLocal, ps);
                Addr dst =
                    rig.as->alloc(s * 8, MemKind::DramLocal, ps);
                std::vector<WorkDescriptor> ring;
                for (int i = 0; i < 8; ++i) {
                    ring.push_back(dml::Executor::memMove(
                        *rig.as, dst + static_cast<Addr>(i) * s,
                        src + static_cast<Addr>(i) * s, s));
                }
                Measure m = asyncHw(rig, ring);
                return fmt(m.gbps);
            });
        for (auto &c : cells)
            row.push_back(std::move(c));
        tbl.addRow(row);
    }
    tbl.print();
    return 0;
}
