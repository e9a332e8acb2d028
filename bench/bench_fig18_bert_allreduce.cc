/**
 * @file
 * Figure 18 / Appendix A tail: MLPerf-BERT-style pretraining on top
 * of MPI_AllReduce — per iteration, a fixed compute phase followed
 * by an all-reduce of the gradient tensors (~340 M parameters, f32).
 *
 * Paper shape: the AllReduce itself runs ~2.8x (2 ranks) to ~3.3x
 * (8 ranks) faster with DSA offload, translating into a 3.7% / 8.8%
 * end-to-end training-step speedup.
 */

#include "apps/fabric.hh"
#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

struct IterResult
{
    double arMs = 0;
    double iterMs = 0;
};

IterResult
trainStep(bool dsa, unsigned ranks, std::uint64_t grad_bytes,
          double compute_ms)
{
    Rig::Options o;
    o.devices = 4; // libfabric spreads copies over the socket's DSAs
    Rig rig(o);
    apps::RingAllReduce::Config cfg;
    cfg.channel.useDsa = dsa;
    apps::RingAllReduce ar(rig.plat, *rig.as, rig.exec.get(), ranks,
                           cfg);
    IterResult res;
    struct Drv
    {
        static SimTask
        go(Rig &r, apps::RingAllReduce &a, std::uint64_t n,
           double comp_ms, IterResult &out)
        {
            // Forward/backward compute phase (off the copy path).
            co_await r.sim.delay(fromMs(comp_ms));
            Tick t0 = r.sim.now();
            co_await a.run(n);
            out.arMs = toUs(r.sim.now() - t0) / 1000.0;
            out.iterMs = comp_ms + out.arMs;
        }
    };
    Drv::go(rig, ar, grad_bytes, compute_ms, res);
    rig.sim.run();
    return res;
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    // BERT-large: ~340M f32 parameters of gradients per step.
    const std::uint64_t grads = 340ull << 20;

    Table tbl("Fig 18: BERT pretraining step, AllReduce CPU vs DSA",
              {"ranks", "AR cpu ms", "AR dsa ms", "AR speedup",
               "iter cpu ms", "iter dsa ms", "e2e gain %"});

    struct Setting
    {
        unsigned ranks;
        double computeMs;
    };
    // Per-rank compute shrinks as the batch is split across ranks
    // (values chosen so the software iteration matches the paper's
    // AllReduce share of a BERT pretraining step).
    const std::vector<Setting> settings = {{2, 2930.0}, {8, 1370.0}};

    // Four arms, one rig each: the CPU run of a setting on even
    // points, its DSA run on odd ones.
    SweepRunner sweep;
    auto steps = sweep.run(2 * settings.size(), [&](std::size_t i) {
        const Setting &s = settings[i / 2];
        return trainStep(i % 2 == 1, s.ranks, grads, s.computeMs);
    });
    for (std::size_t k = 0; k < settings.size(); ++k) {
        const IterResult &cpu = steps[2 * k];
        const IterResult &dsa = steps[2 * k + 1];
        double gain = 100.0 * (cpu.iterMs - dsa.iterMs) / cpu.iterMs;
        tbl.addRow({std::to_string(settings[k].ranks), fmt(cpu.arMs, 1),
                    fmt(dsa.arMs, 1), fmt(cpu.arMs / dsa.arMs),
                    fmt(cpu.iterMs, 1), fmt(dsa.iterMs, 1),
                    fmt(gain, 1)});
    }
    tbl.print();
    return 0;
}
