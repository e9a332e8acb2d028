/**
 * @file
 * Figure 21: SPDK NVMe/TCP target read performance versus the number
 * of target cores, with the Data Digest CRC32 computed three ways:
 * not at all, on the cores with ISA-L, or offloaded to DSA.
 *
 * Paper shape: DSA-offloaded digests track the no-digest
 * configuration closely — both saturate the network with few cores
 * (≈6 for 16 KB random reads, ≈2 for 128 KB sequential) — while
 * ISA-L needs several more cores to saturate and shows higher
 * latency at any fixed core count.
 */

#include "apps/nvmetcp.hh"
#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

struct Point
{
    double kiops = 0;
    double latUs = 0;
    std::uint64_t crcMismatches = 0;
};

Point
run(apps::NvmeTcpTarget::Digest digest, unsigned cores,
    std::uint64_t io_bytes, Tick horizon,
    apps::NvmeTcpTarget::Kind kind)
{
    // SPDK's accel framework path: a shared WQ, two engines.
    Rig::Options o;
    o.devices = 1;
    o.wqSize = 32;
    o.engines = 2;
    o.wqMode = WorkQueue::Mode::Shared;
    Rig rig(o);

    apps::NvmeTcpTarget::Config cfg;
    cfg.kind = kind;
    cfg.digest = digest;
    cfg.targetCores = cores;
    cfg.ioBytes = io_bytes;
    apps::NvmeTcpTarget target(rig.plat, *rig.as, rig.exec.get(), cfg);
    target.run(horizon);
    rig.sim.run();

    Point p;
    p.kiops = target.iops() / 1000.0;
    p.latUs = target.meanLatencyUs();
    p.crcMismatches = target.crcMismatches();
    return p;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;
    using Digest = apps::NvmeTcpTarget::Digest;
    using Kind = apps::NvmeTcpTarget::Kind;

    const std::vector<unsigned> core_counts = {1, 2, 4, 6, 8, 10};
    const Digest digests[] = {Digest::None, Digest::Dsa, Digest::IsaL};

    struct Panel
    {
        std::string title;
        const char *column;
        std::uint64_t ioBytes;
        Tick horizon;
        Kind kind;
        const char *labels[3]; ///< per digest, in `digests` order
    };
    const std::vector<Panel> panels = {
        {"Fig 21: 16KB random read", "digest", 16 << 10, fromMs(8),
         Kind::Read, {"no digest", "DSA", "ISA-L"}},
        {"Fig 21: 128KB sequential read", "digest", 128 << 10,
         fromMs(12), Kind::Read, {"no digest", "DSA", "ISA-L"}},
        // Extension beyond the paper's Fig. 21: the write path, where
        // the accel framework uses DSA's DIF Insert instead of CRC32.
        {"Extension: 16KB writes with T10-DIF protection", "protect",
         16 << 10, fromMs(6), Kind::Write,
         {"no DIF", "DSA DIF insert", "ISA-L DIF insert"}},
    };

    // One rig per (panel, digest, cores) point.
    const std::size_t ncores = core_counts.size();
    const std::size_t per_panel = std::size(digests) * ncores;
    SweepRunner sweep;
    auto points = sweep.run(panels.size() * per_panel, [&](std::size_t i) {
        const Panel &p = panels[i / per_panel];
        const std::size_t j = i % per_panel;
        return run(digests[j / ncores], core_counts[j % ncores],
                   p.ioBytes, p.horizon, p.kind);
    });

    std::uint64_t mismatches = 0;
    for (std::size_t pi = 0; pi < panels.size(); ++pi) {
        const Panel &p = panels[pi];
        std::vector<std::string> cols = {p.column, "metric"};
        for (auto c : core_counts)
            cols.push_back(std::to_string(c) + " cores");
        Table tbl(p.title, cols);
        for (std::size_t d = 0; d < std::size(digests); ++d) {
            std::vector<std::string> iops_row = {p.labels[d], "KIOPS"};
            std::vector<std::string> lat_row = {p.labels[d], "lat us"};
            for (std::size_t c = 0; c < ncores; ++c) {
                const Point &pt = points[pi * per_panel + d * ncores + c];
                iops_row.push_back(fmt(pt.kiops, 0));
                lat_row.push_back(fmt(pt.latUs, 0));
                mismatches += pt.crcMismatches;
            }
            tbl.addRow(iops_row);
            if (p.kind == Kind::Read)
                tbl.addRow(lat_row);
        }
        tbl.print();
    }

    // A digest that does not match its payload is a data-path fault,
    // not a performance result.
    if (mismatches != 0) {
        std::fprintf(stderr, "error: %llu digest mismatches\n",
                     static_cast<unsigned long long>(mismatches));
        return 1;
    }
    return 0;
}
