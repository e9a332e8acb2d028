/**
 * @file
 * Figure 5: breakdown of memcpy() latency on the CPU versus the
 * Memory Copy offload latency on DSA (transfer size 4 KB) across
 * batch sizes, split into the paper's four phases:
 *
 *   allocate  - descriptor + completion-record memory allocation
 *   prepare   - filling in descriptor fields
 *   submit    - MOVDIR64B / batch submission
 *   wait      - queueing + processing + completion detection
 *
 * As in the paper, allocation dominates (and is amortizable by
 * pre-allocating descriptor rings), preparation is negligible, and
 * waiting is where the actual work happens.
 */

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

// Modeled software costs of the allocation/preparation phases (the
// other phases are measured from the simulation clock).
constexpr double allocNsPerDescriptor = 380.0; // malloc + zeroing
constexpr double allocNsBatchArray = 180.0;    // batch list alloc
constexpr double prepNsPerDescriptor = 22.0;   // field stores

struct Breakdown
{
    double alloc = 0, prep = 0, submit = 0, wait = 0;
    double total() const { return alloc + prep + submit + wait; }
};

SimTask
measureDsa(Rig &rig, std::uint64_t ts, int bs, int iters,
           Breakdown &out)
{
    Core &core = rig.plat.core(0);
    Addr src = rig.as->alloc(ts * static_cast<std::uint64_t>(bs));
    Addr dst = rig.as->alloc(ts * static_cast<std::uint64_t>(bs));
    Histogram submit_ns, wait_ns;

    for (int i = 0; i < iters; ++i) {
        rig.plat.mem().cache().invalidateAll();
        std::vector<WorkDescriptor> subs;
        for (int b = 0; b < bs; ++b) {
            subs.push_back(dml::Executor::memMove(
                *rig.as, dst + static_cast<Addr>(b) * ts,
                src + static_cast<Addr>(b) * ts, ts));
        }
        std::unique_ptr<dml::Job> job =
            bs == 1 ? rig.exec->prepare(subs[0])
                    : rig.exec->prepareBatch(rig.as->pasid(), subs);

        Tick t0 = rig.sim.now();
        co_await rig.exec->submit(core, *job);
        Tick t1 = rig.sim.now();
        dml::OpResult r;
        co_await rig.exec->wait(core, *job, r);
        Tick t2 = rig.sim.now();
        submit_ns.add(toNs(t1 - t0));
        wait_ns.add(toNs(t2 - t1));
    }

    out.alloc = allocNsPerDescriptor * bs +
                (bs > 1 ? allocNsBatchArray : 0.0);
    out.prep = prepNsPerDescriptor * bs;
    out.submit = submit_ns.mean();
    out.wait = wait_ns.mean();
}

SimTask
measureCpu(Rig &rig, std::uint64_t ts, int bs, int iters, double &ns)
{
    Core &core = rig.plat.core(1);
    Addr src = rig.as->alloc(ts * static_cast<std::uint64_t>(bs));
    Addr dst = rig.as->alloc(ts * static_cast<std::uint64_t>(bs));
    Histogram lat;
    for (int i = 0; i < iters; ++i) {
        rig.plat.mem().cache().invalidateAll();
        Tick t0 = rig.sim.now();
        for (int b = 0; b < bs; ++b) {
            auto r = rig.plat.kernels().memcpyOp(
                core, *rig.as, dst + static_cast<Addr>(b) * ts,
                src + static_cast<Addr>(b) * ts, ts);
            co_await core.busyFor(r.duration);
        }
        lat.add(toNs(rig.sim.now() - t0));
    }
    ns = lat.mean();
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::uint64_t ts = 4096;
    const std::vector<int> batch_sizes = {1, 4, 16, 64, 128};

    Table tbl("Fig 5: latency breakdown at TS=4KB (ns)",
              {"config", "alloc", "prepare", "submit", "wait",
               "total", "cpu-memcpy"});

    SweepRunner sweep;
    auto rows = sweep.run(
        batch_sizes.size(),
        [&](std::size_t i) -> std::vector<std::string> {
            Rig rig{Rig::Options{}};
            const int bs = batch_sizes[i];
            Breakdown dsa;
            measureDsa(rig, ts, bs, 40, dsa);
            rig.sim.run();
            double cpu = 0;
            measureCpu(rig, ts, bs, 40, cpu);
            rig.sim.run();
            return {"BS:" + std::to_string(bs), fmt(dsa.alloc),
                    fmt(dsa.prep), fmt(dsa.submit), fmt(dsa.wait),
                    fmt(dsa.total()), fmt(cpu)};
        });
    for (auto &row : rows)
        tbl.addRow(std::move(row));
    tbl.print();

    std::printf("\nNote: alloc/prepare are modeled constants (the "
                "paper amortizes them\nvia pre-allocated descriptor "
                "rings and so do the other benches here).\n");
    return 0;
}
