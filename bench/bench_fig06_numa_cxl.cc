/**
 * @file
 * Figure 6: Memory Copy throughput (and latency) across memory
 * placements, synchronous mode, batch size 1.
 *
 *  (a) NUMA: [<device>: <src>,<dst>] over local (D) / remote (R)
 *      DRAM. DSA hides the UPI hop with pipelining; mixed
 *      placements enjoy slightly more channel parallelism.
 *  (b) CXL: local DRAM (D) vs CXL-attached memory (C). CXL writes
 *      are slower than reads, so (C src, D dst) beats (D src, C dst).
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

struct Placement
{
    const char *label;
    MemKind src;
    MemKind dst;
};

void
panel(const char *title, const std::vector<Placement> &placements,
      const std::vector<std::uint64_t> &sizes)
{
    std::vector<std::string> cols = {"config", "metric"};
    for (auto s : sizes)
        cols.push_back(fmtSize(s));
    Table tbl(title, cols);

    // Each placement row builds its own rig on the SweepRunner. The
    // paper shows only one or two CPU reference lines.
    SweepRunner sweep;
    const std::size_t cpu_rows =
        std::min<std::size_t>(2, placements.size());
    auto rows = sweep.run(
        placements.size() + cpu_rows,
        [&](std::size_t i) -> std::vector<std::vector<std::string>> {
            Rig rig{Rig::Options{}};
            const bool cpu = i >= placements.size();
            const Placement &p =
                placements[cpu ? i - placements.size() : i];
            std::uint64_t max_size = sizes.back();
            Addr src = rig.as->alloc(max_size, p.src);
            Addr dst = rig.as->alloc(max_size, p.dst);
            const std::string who = cpu ? "CPU: " : "DSA: ";
            std::vector<std::string> thr = {who + p.label, "GB/s"};
            std::vector<std::string> lat = {who + p.label, "ns"};
            for (auto s : sizes) {
                WorkDescriptor d =
                    dml::Executor::memMove(*rig.as, dst, src, s);
                Measure m = cpu ? syncSw(rig, d) : syncHw(rig, d);
                thr.push_back(fmt(m.gbps));
                lat.push_back(fmt(m.meanNs, 0));
            }
            return {thr, lat};
        });
    for (auto &pair : rows)
        for (auto &row : pair)
            tbl.addRow(std::move(row));
    tbl.print();
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> sizes = {
        1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20};

    panel("Fig 6a: NUMA placements (sync, BS 1)",
          {{"D,D", MemKind::DramLocal, MemKind::DramLocal},
           {"D,R", MemKind::DramLocal, MemKind::DramRemote},
           {"R,D", MemKind::DramRemote, MemKind::DramLocal},
           {"R,R", MemKind::DramRemote, MemKind::DramRemote}},
          sizes);

    panel("Fig 6b: CXL placements (sync, BS 1)",
          {{"D,D", MemKind::DramLocal, MemKind::DramLocal},
           {"C,D", MemKind::Cxl, MemKind::DramLocal},
           {"D,C", MemKind::DramLocal, MemKind::Cxl},
           {"C,C", MemKind::Cxl, MemKind::Cxl}},
          sizes);
    return 0;
}
