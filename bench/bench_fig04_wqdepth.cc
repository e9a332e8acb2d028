/**
 * @file
 * Figure 4: throughput of asynchronous Memory Copy with different WQ
 * sizes (WQS) — more in-flight descriptors hide the offload cost
 * until the fabric saturates; small transfers need deeper queues.
 */

#include "bench/common.hh"

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<unsigned> wq_sizes = {1, 2, 4, 8, 16, 32, 64,
                                            128};
    const std::vector<std::uint64_t> sizes = {256, 1 << 10, 4 << 10,
                                              16 << 10, 64 << 10};

    std::vector<std::string> cols = {"WQS \\ TS"};
    for (auto s : sizes)
        cols.push_back(fmtSize(s));
    Table tbl("Fig 4: async memcpy GB/s vs WQ size", cols);

    // One rig per (WQS, TS) cell, each built on the SweepRunner;
    // cells sweep concurrently.
    SweepRunner sweep;
    auto cells = sweep.run(
        wq_sizes.size() * sizes.size(), [&](std::size_t i) {
            const unsigned wqs = wq_sizes[i / sizes.size()];
            const std::uint64_t ts = sizes[i % sizes.size()];
            Rig::Options o;
            o.wqSize = wqs;
            Rig rig(o);
            auto ring = memMoveRing(rig, ts, 16);
            // The client keeps at most WQS descriptors in flight
            // (MOVDIR64B occupancy tracking).
            Measure m = asyncHw(rig, ring, /*total=*/0,
                                /*depth=*/static_cast<int>(wqs));
            return fmt(m.gbps);
        });
    for (std::size_t w = 0; w < wq_sizes.size(); ++w) {
        std::vector<std::string> row = {
            "WQS:" + std::to_string(wq_sizes[w])};
        for (std::size_t s = 0; s < sizes.size(); ++s)
            row.push_back(std::move(cells[w * sizes.size() + s]));
        tbl.addRow(std::move(row));
    }
    tbl.print();
    return 0;
}
