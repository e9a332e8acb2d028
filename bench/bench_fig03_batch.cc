/**
 * @file
 * Figure 3: throughput of DSA's Memory Copy with varying transfer
 * sizes and batch sizes (BS), synchronous and asynchronous.
 *
 * Paper shape: synchronously, batching small transfers raises
 * throughput dramatically; above ~256 KB the gains level off. A DWQ
 * streamed asynchronously reaches peak throughput even at BS 1;
 * saturation is ~30 GB/s (the I/O fabric limit).
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

std::vector<WorkDescriptor>
batchSubs(Rig &rig, Addr src, Addr dst, std::uint64_t ts, int bs)
{
    std::vector<WorkDescriptor> subs;
    for (int i = 0; i < bs; ++i) {
        subs.push_back(dml::Executor::memMove(
            *rig.as, dst + static_cast<Addr>(i) * ts,
            src + static_cast<Addr>(i) * ts, ts));
    }
    return subs;
}

SimTask
syncBatchLoop(Rig &rig, Addr src, Addr dst, std::uint64_t ts, int bs,
              int iters, Measure &out)
{
    Core &core = rig.plat.core(0);
    Histogram lat;
    auto subs = batchSubs(rig, src, dst, ts, bs);
    for (int i = 0; i < iters; ++i) {
        rig.plat.mem().cache().invalidateAll();
        dml::OpResult r;
        if (bs == 1)
            co_await rig.exec->executeHardware(core, subs[0], r);
        else
            co_await rig.exec->executeBatch(core, subs, r);
        lat.add(toNs(r.latency));
    }
    out.meanNs = lat.mean();
    out.gbps = static_cast<double>(ts) * bs / out.meanNs;
}

SimTask
asyncBatchLoop(Rig &rig, Addr src, Addr dst, std::uint64_t ts, int bs,
               int jobs, int depth, Measure &out)
{
    Core &core = rig.plat.core(0);
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

    // Cycle over a few buffer slots so data stays cold-ish.
    const int slots = 4;
    for (int i = 0; i < jobs; ++i) {
        if (i > 0 && i % slots == 0)
            rig.plat.mem().cache().invalidateAll();
        Addr so = src + static_cast<Addr>(i % slots) *
                            static_cast<Addr>(ts) * bs;
        Addr dk = dst + static_cast<Addr>(i % slots) *
                            static_cast<Addr>(ts) * bs;
        co_await window.acquire();
        std::unique_ptr<dml::Job> job;
        if (bs == 1) {
            job = rig.exec->prepare(
                dml::Executor::memMove(*rig.as, dk, so, ts));
        } else {
            job = rig.exec->prepareBatch(
                rig.as->pasid(), batchSubs(rig, so, dk, ts, bs));
        }
        co_await rig.exec->submit(core, *job);
        Waiter::drain(std::move(job), window, all);
    }
    co_await all.wait();
    Tick elapsed = rig.sim.now() - t0;
    out.gbps =
        achievedGBps(static_cast<std::uint64_t>(jobs) * bs * ts,
                     elapsed);
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> sizes = {64,       256,
                                              1 << 10,  4 << 10,
                                              16 << 10, 64 << 10,
                                              256 << 10, 1 << 20};
    const std::vector<int> batch_sizes = {1, 4, 16, 64, 128};

    SweepRunner sweep;
    for (bool async : {false, true}) {
        std::vector<std::string> cols = {"BS \\ TS"};
        for (auto s : sizes)
            cols.push_back(fmtSize(s));
        Table tbl(async ? "Fig 3 (async, depth 32): memcpy GB/s"
                        : "Fig 3 (sync): memcpy GB/s",
                  cols);
        // Every (BS, TS) cell builds its own rig on the SweepRunner;
        // cells sweep concurrently, and rows reassemble in order.
        const std::size_t n = batch_sizes.size() * sizes.size();
        auto cells = sweep.run(n, [&](std::size_t i) -> std::string {
            const int bs = batch_sizes[i / sizes.size()];
            const std::uint64_t ts = sizes[i % sizes.size()];
            if (static_cast<std::uint64_t>(bs) * ts > (64u << 20))
                return "-";
            Rig rig{Rig::Options{}};
            const std::uint64_t span =
                static_cast<std::uint64_t>(ts) * bs * 4;
            Addr src = rig.as->alloc(span);
            Addr dst = rig.as->alloc(span);
            Measure m;
            if (async) {
                int depth = std::max(1, 32 / bs);
                int jobs = std::max(
                    16,
                    itersFor(ts * static_cast<std::uint64_t>(bs),
                             160));
                asyncBatchLoop(rig, src, dst, ts, bs, jobs, depth, m);
            } else {
                int iters = itersFor(
                    ts * static_cast<std::uint64_t>(bs), 60);
                syncBatchLoop(rig, src, dst, ts, bs, iters, m);
            }
            rig.sim.run();
            return fmt(m.gbps);
        });
        for (std::size_t b = 0; b < batch_sizes.size(); ++b) {
            std::vector<std::string> row = {
                "BS:" + std::to_string(batch_sizes[b])};
            for (std::size_t s = 0; s < sizes.size(); ++s)
                row.push_back(
                    std::move(cells[b * sizes.size() + s]));
            tbl.addRow(std::move(row));
        }
        tbl.print();
    }
    return 0;
}
