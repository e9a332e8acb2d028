/**
 * @file
 * Figure 14: the G1 guideline — for a fixed total amount of work,
 * trade transfer size against batch size (<TS:BS> with TS*BS const).
 *
 * Paper shape: larger batches of smaller descriptors generally lose
 * a little throughput to per-descriptor management overhead; in
 * synchronous mode a weak optimum sits around 4-8 descriptors.
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

SimTask
syncTotal(Rig &rig, std::uint64_t total, int bs, int iters,
          Measure &out)
{
    Core &core = rig.plat.core(0);
    std::uint64_t ts = total / static_cast<std::uint64_t>(bs);
    Addr src = rig.as->alloc(total);
    Addr dst = rig.as->alloc(total);
    Histogram lat;
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
        lat.add(toNs(r.latency));
    }
    out.meanNs = lat.mean();
    out.gbps = static_cast<double>(total) / out.meanNs;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> totals = {256 << 10, 1 << 20,
                                               4 << 20};
    const std::vector<int> batch_sizes = {1,  2,  4,  8,
                                          16, 32, 64, 128};

    for (bool async : {false, true}) {
        std::vector<std::string> cols = {"total"};
        for (int bs : batch_sizes)
            cols.push_back("BS:" + std::to_string(bs));
        Table tbl(async
                      ? "Fig 14 (async depth 4): GB/s, TS = total/BS"
                      : "Fig 14 (sync): GB/s, TS = total/BS",
                  cols);
        // Every cell builds its own rig on the SweepRunner; cells
        // sweep concurrently.
        SweepRunner sweep;
        auto cells = sweep.run(
            totals.size() * batch_sizes.size(), [&](std::size_t ci) {
                Rig rig{Rig::Options{}};
                const std::uint64_t total =
                    totals[ci / batch_sizes.size()];
                const int bs = batch_sizes[ci % batch_sizes.size()];
                Measure m;
                if (!async) {
                    syncTotal(rig, total, bs, 24, m);
                    rig.sim.run();
                } else {
                    // Async: keep 4 batch jobs in flight.
                    std::uint64_t ts =
                        total / static_cast<std::uint64_t>(bs);
                    Addr src = rig.as->alloc(total * 4);
                    Addr dst = rig.as->alloc(total * 4);
                    struct Drv
                    {
                        static SimTask
                        go(Rig &r, Addr s, Addr d, std::uint64_t size,
                           int bsz, int jobs, Measure &out)
                        {
                            Core &core = r.plat.core(0);
                            Semaphore window(r.sim, 4);
                            Latch all(
                                r.sim,
                                static_cast<std::uint64_t>(jobs));
                            struct W
                            {
                                static SimTask
                                drain(std::unique_ptr<dml::Job> j,
                                      Semaphore &win, Latch &a)
                                {
                                    if (!j->cr.isDone())
                                        co_await j->cr.done.wait();
                                    win.release();
                                    a.arrive();
                                }
                            };
                            Tick t0 = r.sim.now();
                            for (int i = 0; i < jobs; ++i) {
                                co_await window.acquire();
                                Addr so =
                                    s + static_cast<Addr>(i % 4) *
                                            size *
                                            static_cast<Addr>(bsz);
                                Addr dk =
                                    d + static_cast<Addr>(i % 4) *
                                            size *
                                            static_cast<Addr>(bsz);
                                std::unique_ptr<dml::Job> job;
                                if (bsz == 1) {
                                    job = r.exec->prepare(
                                        dml::Executor::memMove(
                                            *r.as, dk, so, size));
                                } else {
                                    std::vector<WorkDescriptor> subs;
                                    for (int b = 0; b < bsz; ++b) {
                                        subs.push_back(
                                            dml::Executor::memMove(
                                                *r.as,
                                                dk +
                                                    static_cast<Addr>(
                                                        b) *
                                                        size,
                                                so +
                                                    static_cast<Addr>(
                                                        b) *
                                                        size,
                                                size));
                                    }
                                    job = r.exec->prepareBatch(
                                        r.as->pasid(), subs);
                                }
                                co_await r.exec->submit(core, *job);
                                W::drain(std::move(job), window,
                                         all);
                            }
                            co_await all.wait();
                            out.gbps = achievedGBps(
                                static_cast<std::uint64_t>(jobs) *
                                    bsz * size,
                                r.sim.now() - t0);
                        }
                    };
                    Drv::go(rig, src, dst, ts, bs, 24, m);
                    rig.sim.run();
                }
                return fmt(m.gbps);
            });
        for (std::size_t t = 0; t < totals.size(); ++t) {
            std::vector<std::string> row = {fmtSize(totals[t])};
            for (std::size_t b = 0; b < batch_sizes.size(); ++b)
                row.push_back(
                    std::move(cells[t * batch_sizes.size() + b]));
            tbl.addRow(row);
        }
        tbl.print();
    }
    return 0;
}
