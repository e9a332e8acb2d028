/**
 * @file
 * Figure 9: throughput impact of WQ configurations:
 *
 *   BS:N    - one DWQ, batches of N (group has N PEs)
 *   DWQ:N   - N DWQs, one submitting thread and one PE per queue
 *   SWQ:N   - one SWQ, one PE, N threads submitting with ENQCMD
 *
 * Paper shape: batching to one DWQ and multiple DWQs are nearly
 * identical; a single-threaded SWQ trails between 1-8 KB (the
 * ENQCMD round trip), and enough SWQ threads close the gap.
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

double
runConfig(unsigned n, const char *kind, std::uint64_t ts)
{
    Simulation sim;
    PlatformConfig pc = PlatformConfig::spr();
    Platform plat(sim, pc);
    AddressSpace &as = plat.mem().createSpace();
    DsaDevice &dev = plat.dsa(0);

    DsaTopology topo;
    if (std::string(kind) == "DWQ") {
        // N groups: one DWQ + one PE each, one thread per queue.
        for (unsigned i = 0; i < n; ++i) {
            topo.groups.push_back({});
            topo.wqs.push_back({static_cast<int>(i),
                                WorkQueue::Mode::Dedicated, 16, 0, 0});
            topo.engines.push_back(static_cast<int>(i));
        }
    } else {
        // One SWQ + one PE, N submitting threads.
        topo = DsaTopology::basic(32, 1, WorkQueue::Mode::Shared);
    }
    topo.apply(dev);
    std::vector<WorkQueue *> queues;
    for (std::size_t w = 0; w < dev.wqCount(); ++w)
        queues.push_back(&dev.wq(w));

    // Threads share the device; each gets private buffers.
    const int jobs_per_thread = static_cast<int>(
        std::max<std::uint64_t>(48, (12ull << 20) / ts / n));
    Latch done(sim, n);

    struct Thread
    {
        static SimTask
        go(Simulation &s, Platform &p, AddressSpace &space,
           DsaDevice &d, WorkQueue &wq, int core_id, Addr src,
           Addr dst, std::uint64_t size, int jobs, int depth,
           Latch &l)
        {
            Core &core = p.core(static_cast<std::size_t>(core_id));
            Submitter sub(core, d.params());
            Semaphore window(s, static_cast<std::uint64_t>(depth));
            Latch all(s, static_cast<std::uint64_t>(jobs));
            std::vector<std::unique_ptr<CompletionRecord>> crs;
            struct W
            {
                static SimTask
                drain(CompletionRecord &cr, Semaphore &win, Latch &a)
                {
                    if (!cr.isDone())
                        co_await cr.done.wait();
                    win.release();
                    a.arrive();
                }
            };
            const int slots = 8;
            for (int i = 0; i < jobs; ++i) {
                co_await window.acquire();
                crs.push_back(
                    std::make_unique<CompletionRecord>(s));
                WorkDescriptor wd = dml::Executor::memMove(
                    space,
                    dst + static_cast<Addr>(i % slots) * size,
                    src + static_cast<Addr>(i % slots) * size, size);
                wd.completion = crs.back().get();
                if (wq.mode == WorkQueue::Mode::Dedicated)
                    co_await sub.movdir64b(d, wq, wd);
                else
                    co_await sub.enqcmdRetry(d, wq, wd);
                W::drain(*crs.back(), window, all);
            }
            co_await all.wait();
            l.arrive();
        }
    };

    Tick t0 = sim.now();
    for (unsigned t = 0; t < n; ++t) {
        Addr src = as.alloc(ts * 8);
        Addr dst = as.alloc(ts * 8);
        WorkQueue &wq = std::string(kind) == "DWQ"
                            ? *queues[t]
                            : *queues[0];
        int depth = std::string(kind) == "DWQ" ? 16 : 8;
        Thread::go(sim, plat, as, dev, wq, static_cast<int>(t), src,
                   dst, ts, jobs_per_thread, depth, done);
    }
    sim.run();
    Tick elapsed = sim.now() - t0;
    std::uint64_t bytes = static_cast<std::uint64_t>(n) *
                          static_cast<std::uint64_t>(
                              jobs_per_thread) *
                          ts;
    return achievedGBps(bytes, elapsed);
}

/** BS:N — one DWQ with batches of N on a group with N engines. */
double
runBatched(unsigned n, std::uint64_t ts)
{
    Rig::Options o;
    o.engines = n;
    Rig rig(o);
    Core &core = rig.plat.core(0);
    Addr src = rig.as->alloc(ts * n * 8);
    Addr dst = rig.as->alloc(ts * n * 8);
    const int jobs = static_cast<int>(
        std::max<std::uint64_t>(48, (12ull << 20) / ts / n));
    Measure m;

    struct Drv
    {
        static SimTask
        go(Rig &r, Core &c, Addr s, Addr d, std::uint64_t size,
           unsigned bs, int jobs_n, Measure &out)
        {
            Semaphore window(r.sim, 8);
            Latch all(r.sim, static_cast<std::uint64_t>(jobs_n));
            struct W
            {
                static SimTask
                drain(std::unique_ptr<dml::Job> j, Semaphore &win,
                      Latch &a)
                {
                    if (!j->cr.isDone())
                        co_await j->cr.done.wait();
                    win.release();
                    a.arrive();
                }
            };
            Tick t0 = r.sim.now();
            const int slots = 8;
            for (int i = 0; i < jobs_n; ++i) {
                co_await window.acquire();
                std::vector<WorkDescriptor> subs;
                Addr so = s + static_cast<Addr>(i % slots) * size *
                                  bs;
                Addr dk = d + static_cast<Addr>(i % slots) * size *
                                  bs;
                for (unsigned b = 0; b < bs; ++b) {
                    subs.push_back(dml::Executor::memMove(
                        *r.as, dk + b * size, so + b * size, size));
                }
                auto job =
                    r.exec->prepareBatch(r.as->pasid(), subs);
                co_await r.exec->submit(c, *job);
                W::drain(std::move(job), window, all);
            }
            co_await all.wait();
            out.gbps = achievedGBps(
                static_cast<std::uint64_t>(jobs_n) * bs * size,
                r.sim.now() - t0);
        }
    };
    Drv::go(rig, core, src, dst, ts, n, jobs, m);
    rig.sim.run();
    return m.gbps;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> sizes = {
        256, 1 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10};
    const unsigned n = 4;

    std::vector<std::string> cols = {"config"};
    for (auto s : sizes)
        cols.push_back(fmtSize(s));
    Table tbl("Fig 9: WQ configurations, memcpy GB/s", cols);

    // One rig per (config, TS) cell; cells sweep concurrently.
    const std::vector<std::string> labels = {
        "BS:4 (1 DWQ, 4 PE)", "DWQ:4 (4 thr, 4 PE)",
        "SWQ:1 (1 thr, 1 PE)", "SWQ:8 (8 thr, 1 PE)"};
    SweepRunner sweep;
    auto cells = sweep.run(labels.size() * sizes.size(), [&](std::size_t i) {
        const std::uint64_t ts = sizes[i % sizes.size()];
        switch (i / sizes.size()) {
        case 0:
            return fmt(runBatched(n, ts));
        case 1:
            return fmt(runConfig(n, "DWQ", ts));
        case 2:
            return fmt(runConfig(1, "SWQ", ts));
        default:
            return fmt(runConfig(8, "SWQ", ts));
        }
    });
    for (std::size_t r = 0; r < labels.size(); ++r) {
        std::vector<std::string> row = {labels[r]};
        for (std::size_t s = 0; s < sizes.size(); ++s)
            row.push_back(std::move(cells[r * sizes.size() + s]));
        tbl.addRow(std::move(row));
    }
    tbl.print();
    return 0;
}
