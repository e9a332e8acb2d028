/**
 * @file
 * Figure 11: share of CPU cycles spent inside the UMWAIT intrinsic
 * (an optimized low-power wait state) while offloading Memory Copy
 * synchronously, across transfer sizes and batch sizes.
 *
 * Paper shape: from 4 KB upward the majority of cycles sit in
 * UMWAIT; with batching, almost all cycles do, at every size —
 * cycles the host can spend on other work.
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

SimTask
offloadLoop(Rig &rig, std::uint64_t ts, int bs, int iters,
            double &umwait_frac)
{
    Core &core = rig.plat.core(0);
    core.resetAccounting();
    Addr src = rig.as->alloc(ts * static_cast<std::uint64_t>(bs));
    Addr dst = rig.as->alloc(ts * static_cast<std::uint64_t>(bs));

    Tick t0 = rig.sim.now();
    for (int i = 0; i < iters; ++i) {
        rig.plat.mem().cache().invalidateAll();
        dml::OpResult r;
        if (bs == 1) {
            co_await rig.exec->executeHardware(
                core, dml::Executor::memMove(*rig.as, dst, src, ts),
                r);
        } else {
            std::vector<WorkDescriptor> subs;
            for (int b = 0; b < bs; ++b) {
                subs.push_back(dml::Executor::memMove(
                    *rig.as, dst + static_cast<Addr>(b) * ts,
                    src + static_cast<Addr>(b) * ts, ts));
            }
            co_await rig.exec->executeBatch(core, subs, r);
        }
    }
    Tick wall = rig.sim.now() - t0;
    umwait_frac = wall
        ? static_cast<double>(core.umwaitTicks()) /
              static_cast<double>(wall)
        : 0.0;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> sizes = {
        64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10};
    const std::vector<int> batch_sizes = {1, 8, 64, 128};

    std::vector<std::string> cols = {"BS \\ TS"};
    for (auto s : sizes)
        cols.push_back(fmtSize(s));
    Table tbl("Fig 11: % of cycles in UMWAIT (sync offload)", cols);

    // Every cell builds its own rig on the SweepRunner; cells sweep
    // concurrently.
    SweepRunner sweep;
    auto cells = sweep.run(
        batch_sizes.size() * sizes.size(), [&](std::size_t i) {
            Rig rig{Rig::Options{}};
            const int bs = batch_sizes[i / sizes.size()];
            const std::uint64_t ts = sizes[i % sizes.size()];
            double frac = 0;
            int iters = itersFor(
                ts * static_cast<std::uint64_t>(bs), 60);
            offloadLoop(rig, ts, bs, iters, frac);
            rig.sim.run();
            return fmt(100.0 * frac, 1);
        });
    for (std::size_t b = 0; b < batch_sizes.size(); ++b) {
        std::vector<std::string> row = {
            "BS:" + std::to_string(batch_sizes[b])};
        for (std::size_t s = 0; s < sizes.size(); ++s)
            row.push_back(std::move(cells[b * sizes.size() + s]));
        tbl.addRow(row);
    }
    tbl.print();
    return 0;
}
