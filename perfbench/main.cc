/**
 * @file
 * perfbench: runs one workload of the host-speed benchmark and prints
 * its raw results as one JSON object on stdout. run.py builds this
 * binary, runs it (untraced, and traced for --trace 1) and turns the
 * raw results into the benchmark's report.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S
 *             [--trace [--trace-out PATH]]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "workloads.hh"

namespace
{

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "offload-ring|cpu-pollution|serving-overload "
                 "--seed N --seconds S [--trace [--trace-out PATH]]\n");
    return 2;
}

void
printJson(const Options &o, const Result &r, const Tracer &tr,
          double rss, double cpu)
{
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                o.trace ? "true" : "false");
    std::printf("\"ops\":%llu,\"attempted\":%llu,\"failed\":%llu,",
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::printf("\"end_to_end\":{\"ops_per_s\":%.17g,\"setup_s\":%.17g,"
                "\"total_s\":%.17g,\"peak_rss_mb\":%.17g},",
                r.opsPerS, r.setupS, r.totalS, rss);
    std::printf("\"checks\":{");
    for (std::size_t i = 0; i < r.checks.size(); ++i)
        std::printf("%s\"%s\":%s", i ? "," : "",
                    r.checks[i].first.c_str(),
                    r.checks[i].second ? "true" : "false");
    std::printf("},\"exact\":{");
    for (std::size_t i = 0; i < r.exact.size(); ++i)
        std::printf("%s\"%s\":\"%s\"", i ? "," : "",
                    r.exact[i].first.c_str(),
                    r.exact[i].second.c_str());
    std::printf("},\"layers\":{\"process.cpu_s\":%.17g", cpu);
    for (const auto &[name, v] : r.layers)
        std::printf(",\"%s\":%.17g", name.c_str(), v);
    std::printf("},\"registry_delta\":{");
    bool first = true;
    for (const auto &[name, v] : r.registryDelta) {
        std::printf("%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                    static_cast<unsigned long long>(v));
        first = false;
    }
    // Per (stage, layer, name) span totals of the kept run.
    std::printf("},\"spans\":[");
    first = true;
    for (const Tracer::Total &t : tr.totals()) {
        if (t.run + 1 != o.setups)
            continue;
        std::printf("%s{\"stage\":\"%s\",\"layer\":\"%s\",\"name\":"
                    "\"%s\",\"calls\":%llu,\"total_s\":%.9g,"
                    "\"self_s\":%.9g}",
                    first ? "" : ",", stageName(t.stage),
                    layerName(t.layer), t.name,
                    static_cast<unsigned long long>(t.calls), t.totalS,
                    t.selfS);
        first = false;
    }
    std::printf("],\"spans_seen\":%zu}\n", tr.spansSeen());
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue) {
            o.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds" && hasValue) {
            o.seconds = std::strtod(argv[++i], nullptr);
            haveSeconds = o.seconds > 0;
        } else if (a == "--trace") {
            o.trace = true;
        } else if (a == "--trace-out" && hasValue) {
            o.traceOut = argv[++i];
        } else {
            return usage();
        }
    }
    if (!haveSeed || !haveSeconds)
        return usage();

    Tracer tr(o.trace);
    std::unique_ptr<Workload> w;
    if (o.workload == "offload-ring")
        w = makeOffloadRing(o, tr);
    else if (o.workload == "cpu-pollution")
        w = makeCpuPollution(o, tr);
    else if (o.workload == "serving-overload")
        w = makeServingOverload(o, tr);
    else
        return usage();
    HostProbe probe(tr);
    const Result r = runWorkload(*w, o, tr, probe);

    const double rss = peakRssMb();
    const double cpu = processCpuSeconds();
    if (o.trace && !o.traceOut.empty() &&
        !tr.writeChrome(o.traceOut, o.workload)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.traceOut.c_str());
        return 1;
    }
    printJson(o, r, tr, rss, cpu);
    return 0;
}
