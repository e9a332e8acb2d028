/**
 * @file
 * Self-benchmark of the snapshot/fork subsystem (host seconds, not
 * simulated ticks): a fig 4-style submission-depth sweep whose
 * points share one deliberately heavy warm-up — 512 descriptors of
 * 256 KiB streamed through the device to warm the ATC/LLC and
 * materialize the backing chunks.
 *
 * The sweep runs twice through the same code path: cold
 * (DSASIM_SNAPSHOT=0, every point rebuilds and re-warms its rig) and
 * with snapshot sharing (one warm-up, one capture, one fork per
 * point). Both arms must produce byte-identical results — the
 * snapshot contract (DESIGN.md §10) — and the wall-clock ratio is
 * the subsystem's payoff, printed as Info and compared with nothing.
 *
 * The sweep runs at DSASIM_JOBS=1 so the ratio measures work saved,
 * not how many warm-ups the host can overlap.
 *
 * Usage: bench_snapshot [--json=PATH]
 *
 * Prints the timings as a JSON object; --json also writes it to PATH.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

const std::vector<int> depths = {1, 2, 4, 8, 16, 32};

std::vector<std::string>
depthSweep()
{
    Rig::Options o;
    Scenario sc(
        o,
        [](Rig &rig) {
            auto ring = memMoveRing(rig, 256 << 10, 16);
            asyncHw(rig, ring, 512, 32);
        },
        "stream-warm-256k");

    SweepRunner sweep;
    return sweepScenario(
        sweep, sc, depths.size(),
        [&](Rig &rig, std::size_t i) -> std::string {
            auto ring = memMoveRing(rig, 64 << 10, 8);
            Measure m = asyncHw(rig, ring, 64, depths[i]);
            return fmt(m.gbps);
        });
}

/** Best of @p trials wall-clock runs; results must not vary. */
double
timeArm(const char *snapshot_env, std::vector<std::string> &out,
        int trials = 3)
{
    setenv("DSASIM_SNAPSHOT", snapshot_env, 1);
    double best = 1e99;
    for (int t = 0; t < trials; ++t) {
        auto t0 = Clock::now();
        auto r = depthSweep();
        double el = secondsSince(t0);
        if (el < best)
            best = el;
        if (t == 0)
            out = std::move(r);
    }
    return best;
}

} // namespace
} // namespace dsasim::bench

int
main(int argc, char **argv)
{
    using namespace dsasim;
    using namespace dsasim::bench;

    Gate gate("snapshot");
    for (int i = 1; i < argc; ++i) {
        if (!gate.parseArg(argv[i])) {
            std::fprintf(stderr, "usage: bench_snapshot [--json=PATH]\n");
            return 2;
        }
    }

    // Serialize the sweep: the speedup below is work saved per
    // point, independent of how many threads the host happens to
    // have.
    setenv("DSASIM_JOBS", "1", 1);

    std::vector<std::string> cold_res, snap_res;
    double cold_secs = timeArm("0", cold_res);
    double snap_secs = timeArm("1", snap_res);

    if (cold_res != snap_res) {
        std::fprintf(stderr,
                     "bench_snapshot: FAIL — forked sweep results "
                     "differ from cold sweep results\n");
        return 1;
    }

    Table tbl("Snapshot fork vs cold warm-up: depth sweep GB/s",
              {"depth", "GB/s"});
    for (std::size_t i = 0; i < depths.size(); ++i)
        tbl.addRow({std::to_string(depths[i]), cold_res[i]});
    tbl.print();

    double speedup = cold_secs / snap_secs;
    std::printf("\ncold  %.3fs (%zu warm-ups)\nfork  %.3fs "
                "(1 warm-up + %zu forks)\nspeedup %.2fx\n",
                cold_secs, depths.size(), snap_secs, depths.size(),
                speedup);

    gate.add(Gate::Info, "points", depths.size());
    gate.add(Gate::Info, "cold_secs", cold_secs, 3);
    gate.add(Gate::Info, "snapshot_secs", snap_secs, 3);
    gate.add(Gate::Info, "speedup", speedup, 2);
    return gate.finish();
}
