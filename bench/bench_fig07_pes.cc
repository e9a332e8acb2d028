/**
 * @file
 * Figure 7: performance impact of the number of PEs per group on
 * Memory Copy, varying transfer size (TS) and batch size (BS), one
 * WQ. Small/gap-bound transfers scale with PE count; large transfers
 * level off because one PE already reaches peak bandwidth (G5).
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

SimTask
asyncBatched(Rig &rig, std::uint64_t ts, int bs, int jobs, int depth,
             Measure &out)
{
    Core &core = rig.plat.core(0);
    const int slots = 4;
    Addr src = rig.as->alloc(static_cast<std::uint64_t>(slots) * bs *
                             ts);
    Addr dst = rig.as->alloc(static_cast<std::uint64_t>(slots) * bs *
                             ts);
    Semaphore window(rig.sim, static_cast<std::uint64_t>(depth));
    Latch all(rig.sim, static_cast<std::uint64_t>(jobs));
    Tick t0 = rig.sim.now();

    struct Waiter
    {
        static SimTask
        drain(std::unique_ptr<dml::Job> job, Semaphore &win,
              Latch &done)
        {
            if (!job->cr.isDone())
                co_await job->cr.done.wait();
            win.release();
            done.arrive();
        }
    };

    for (int i = 0; i < jobs; ++i) {
        if (i > 0 && i % slots == 0)
            rig.plat.mem().cache().invalidateAll();
        Addr so = src + static_cast<Addr>(i % slots) *
                            static_cast<Addr>(bs) * ts;
        Addr dk = dst + static_cast<Addr>(i % slots) *
                            static_cast<Addr>(bs) * ts;
        co_await window.acquire();
        std::unique_ptr<dml::Job> job;
        if (bs == 1) {
            job = rig.exec->prepare(
                dml::Executor::memMove(*rig.as, dk, so, ts));
        } else {
            std::vector<WorkDescriptor> subs;
            for (int b = 0; b < bs; ++b) {
                subs.push_back(dml::Executor::memMove(
                    *rig.as, dk + static_cast<Addr>(b) * ts,
                    so + static_cast<Addr>(b) * ts, ts));
            }
            job = rig.exec->prepareBatch(rig.as->pasid(), subs);
        }
        co_await rig.exec->submit(core, *job);
        Waiter::drain(std::move(job), window, all);
    }
    co_await all.wait();
    out.gbps = achievedGBps(
        static_cast<std::uint64_t>(jobs) * bs * ts,
        rig.sim.now() - t0);
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<unsigned> pes = {1, 2, 4};
    struct Cfg
    {
        std::uint64_t ts;
        int bs;
    };
    const std::vector<Cfg> cfgs = {{512, 1},      {512, 32},
                                   {1 << 10, 1},  {1 << 10, 32},
                                   {4 << 10, 1},  {4 << 10, 32},
                                   {64 << 10, 1}, {64 << 10, 32}};

    std::vector<std::string> cols = {"TS:BS"};
    for (auto p : pes)
        cols.push_back("PEs:" + std::to_string(p));
    Table tbl("Fig 7: async memcpy GB/s vs PEs per group (1 WQ)",
              cols);

    // Every cell builds its own rig on the SweepRunner; the grid
    // sweeps concurrently and rows reassemble in order.
    SweepRunner sweep;
    auto cells = sweep.run(
        cfgs.size() * pes.size(), [&](std::size_t i) {
            const Cfg &c = cfgs[i / pes.size()];
            Rig::Options o;
            o.engines = pes[i % pes.size()];
            Rig rig(o);
            Measure m;
            int depth = c.bs == 1 ? 32 : 8;
            int jobs = std::max(
                32, itersFor(c.ts * static_cast<std::uint64_t>(c.bs),
                             240));
            asyncBatched(rig, c.ts, c.bs, jobs, depth, m);
            rig.sim.run();
            return fmt(m.gbps);
        });
    for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
        const Cfg &c = cfgs[ci];
        std::vector<std::string> row = {fmtSize(c.ts) + ":" +
                                        std::to_string(c.bs)};
        for (std::size_t p = 0; p < pes.size(); ++p)
            row.push_back(std::move(cells[ci * pes.size() + p]));
        tbl.addRow(row);
    }
    tbl.print();
    return 0;
}
