/**
 * @file
 * The benchmark's workloads. Each builds its inputs from the seed in
 * @p o and records its spans on @p tr; runWorkload() drives it.
 */

#ifndef DSASIM_PERFBENCH_WORKLOADS_HH
#define DSASIM_PERFBENCH_WORKLOADS_HH

#include <memory>

#include "harness.hh"

namespace perfbench
{

std::unique_ptr<Workload> makeOffloadRing(const Options &o, Tracer &tr);
std::unique_ptr<Workload> makeCpuPollution(const Options &o, Tracer &tr);
std::unique_ptr<Workload> makeServingOverload(const Options &o,
                                              Tracer &tr);

} // namespace perfbench

#endif // DSASIM_PERFBENCH_WORKLOADS_HH
