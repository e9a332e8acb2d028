/**
 * @file
 * Telemetry subsystem tests (DESIGN.md §15):
 *
 *  - registry contracts: counters and gauges, supplier-backed views,
 *    scope() auto-numbering, fatal duplicate names;
 *  - the deterministic cluster fold;
 *  - Prometheus / CSV exporters (golden output + format validator),
 *    and their I/O-failure reporting;
 *  - sampler purity: the event-stream fingerprint is bit-identical
 *    with sampling off, and on at any period.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "tests/util.hh"

namespace dsasim
{
namespace
{

using test::Bench;
using test::engineCounterSum;

// --------------------------------------------------------------------
// Registry contracts

TEST(StatsRegistry, CounterGaugeBasics)
{
    stats::Registry reg;
    stats::Counter &c = reg.counter("dev.ops", "operations");
    stats::Gauge &g = reg.gauge("dev.depth", "queue depth");

    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    EXPECT_FALSE(c.supplierBacked());

    g.set(7.5);
    EXPECT_DOUBLE_EQ(g.value(), 7.5);

    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.has("dev.ops"));
    EXPECT_FALSE(reg.has("dev.nope"));
    EXPECT_EQ(reg.counterValue("dev.ops"), 42u);
}

TEST(StatsRegistry, SupplierBackedViews)
{
    stats::Registry reg;
    std::uint64_t events = 0;
    double level = 0.0;
    stats::Counter &c =
        reg.counter("src.events", "supplier view", [&] { return events; });
    stats::Gauge &g =
        reg.gauge("src.level", "supplier view", [&] { return level; });

    EXPECT_TRUE(c.supplierBacked());
    EXPECT_TRUE(g.supplierBacked());
    events = 99;
    level = 0.25;
    EXPECT_EQ(c.value(), 99u);
    EXPECT_DOUBLE_EQ(g.value(), 0.25);
    EXPECT_EQ(reg.counterValue("src.events"), 99u);
}

TEST(StatsRegistry, DuplicateNameIsFatal)
{
    stats::Registry reg;
    reg.counter("dup.name");
    EXPECT_DEATH(reg.counter("dup.name"), "duplicate metric name");
    EXPECT_DEATH(reg.gauge("dup.name"), "duplicate metric name");
}

TEST(StatsRegistry, ScopeAutoNumbers)
{
    stats::Registry reg;
    EXPECT_EQ(reg.scope("dto"), "dto0");
    EXPECT_EQ(reg.scope("dto"), "dto1");
    EXPECT_EQ(reg.scope("serving"), "serving0");
    EXPECT_EQ(reg.scope("dto"), "dto2");
}

TEST(StatsRegistry, SnapshotAscendingNamesAndSuppliers)
{
    stats::Registry reg;
    reg.counter("b.ops").add(2);
    std::uint64_t live = 5;
    reg.counter("a.ops", "", [&] { return live; });
    reg.gauge("c.depth").set(3.0);

    stats::Registry::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.entries.size(), 3u);
    EXPECT_EQ(snap.entries[0].name, "a.ops");
    EXPECT_EQ(snap.entries[1].name, "b.ops");
    EXPECT_EQ(snap.entries[2].name, "c.depth");
    EXPECT_DOUBLE_EQ(snap.entries[0].value, 5.0);
    EXPECT_DOUBLE_EQ(snap.entries[1].value, 2.0);
    EXPECT_DOUBLE_EQ(snap.entries[2].value, 3.0);

    // sampleInto refreshes in place and tracks the live supplier.
    live = 6;
    reg.sampleInto(snap);
    EXPECT_DOUBLE_EQ(snap.entries[0].value, 6.0);
}

TEST(StatsRegistry, FoldPrefixesAndMaterializesSuppliers)
{
    stats::Registry s0;
    s0.counter("dsa0.ops").add(4);
    s0.counter("dsa0.live", "", [] { return std::uint64_t{11}; });
    stats::Registry s1;
    s1.counter("dsa0.ops").add(6);

    stats::Registry combined;
    combined.fold(s0, "socket0.");
    combined.fold(s1, "socket1.");

    EXPECT_EQ(combined.counterValue("socket0.dsa0.ops"), 4u);
    EXPECT_EQ(combined.counterValue("socket1.dsa0.ops"), 6u);
    // The supplier view folds as a stored value — the combined
    // registry must not dangle into the source domain.
    EXPECT_EQ(combined.counterValue("socket0.dsa0.live"), 11u);
}

// --------------------------------------------------------------------
// Exporters

std::string
renderPrometheus(const stats::Registry &reg)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    stats::writePrometheus(reg.snapshot(), f);
    std::fseek(f, 0, SEEK_SET);
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

TEST(StatsExport, PrometheusGolden)
{
    stats::Registry reg;
    reg.counter("dsa0.eng1.bytes_read", "bytes pulled by the engine")
        .add(4096);
    reg.gauge("llc.occupancy_bytes", "LLC bytes in use").set(1.5);

    const std::string text = renderPrometheus(reg);
    const std::string want =
        "# dsasim telemetry snapshot at tick 0\n"
        "# HELP dsasim_dsa0_eng1_bytes_read bytes pulled by the "
        "engine\n"
        "# TYPE dsasim_dsa0_eng1_bytes_read counter\n"
        "dsasim_dsa0_eng1_bytes_read 4096\n"
        "# HELP dsasim_llc_occupancy_bytes LLC bytes in use\n"
        "# TYPE dsasim_llc_occupancy_bytes gauge\n"
        "dsasim_llc_occupancy_bytes 1.5\n";
    EXPECT_EQ(text, want);

    std::string err;
    EXPECT_TRUE(stats::validatePrometheus(text, &err)) << err;
}

TEST(StatsExport, ValidatorRejectsMalformedOutput)
{
    std::string err;
    // A sample with no preceding HELP/TYPE pair.
    EXPECT_FALSE(
        stats::validatePrometheus("dsasim_orphan 1\n", &err));
    EXPECT_FALSE(err.empty());

    // A sample with HELP but no TYPE.
    EXPECT_FALSE(stats::validatePrometheus(
        "# HELP dsasim_c c\n"
        "dsasim_c 1\n",
        &err));

    // The registry exports counters and gauges only.
    EXPECT_FALSE(stats::validatePrometheus(
        "# HELP dsasim_h h\n"
        "# TYPE dsasim_h histogram\n",
        &err));
    EXPECT_NE(err.find("unknown TYPE 'histogram'"), std::string::npos)
        << err;

    // A counter never goes negative; a gauge may.
    EXPECT_FALSE(stats::validatePrometheus(
        "# HELP dsasim_c c\n"
        "# TYPE dsasim_c counter\n"
        "dsasim_c -1\n",
        &err));
    EXPECT_TRUE(stats::validatePrometheus(
        "# HELP dsasim_g g\n"
        "# TYPE dsasim_g gauge\n"
        "dsasim_g -1\n",
        &err))
        << err;
}

TEST(StatsExport, PrometheusNameMangling)
{
    EXPECT_EQ(stats::prometheusName("dsa0.eng1.bytes_read"),
              "dsasim_dsa0_eng1_bytes_read");
    EXPECT_EQ(stats::prometheusName("upi0to1.round_trips"),
              "dsasim_upi0to1_round_trips");
}

// --------------------------------------------------------------------
// Platform integration: a hardware offload bumps the registry

struct HwBench : Bench
{
    HwBench()
    {
        DsaTopology::basic(32, 2).apply(plat.dsa(0));
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
    }

    dml::OpResult
    run(const WorkDescriptor &d)
    {
        dml::OpResult out;
        bool fin = false;
        test::driveOp(*this, *exec, d, out, fin);
        sim.run();
        EXPECT_TRUE(fin);
        return out;
    }

    std::unique_ptr<dml::Executor> exec;
};

TEST(StatsPlatform, ComponentFamiliesRegistered)
{
    HwBench b;
    const stats::Registry &reg = b.sim.stats();
    // Every component family the exporter covers registers against
    // the Simulation's registry at construction/configure time.
    for (const char *name : {
             "dsa0.descriptors_submitted",  // device
             "dsa0.wq0.depth",              // WQ admission
             "dsa0.wq0.accepted",
             "dsa0.eng0.bytes_read",        // processing engines
             "dsa0.eng0.utilization",
             "llc.occupancy_bytes",         // LLC / DDIO
             "llc.ddio_capacity_bytes",
             "llc.miss_bytes",
             "iommu.translations",          // address translation
         }) {
        EXPECT_TRUE(reg.has(name)) << name;
    }
}

TEST(StatsPlatform, OffloadBumpsRegistryCounters)
{
    HwBench b;
    const std::uint64_t n = 16384;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n);

    dml::OpResult r =
        b.run(dml::Executor::memMove(*b.as, dst, src, n));
    EXPECT_EQ(r.status, CompletionRecord::Status::Success);

    const stats::Registry &reg = b.sim.stats();
    EXPECT_EQ(reg.counterValue("dsa0.descriptors_submitted"), 1u);
    EXPECT_GE(engineCounterSum(b.plat, 0, "bytes_read"), n);
    EXPECT_GE(engineCounterSum(b.plat, 0, "bytes_written"), n);
}

// --------------------------------------------------------------------
// Sampler: purity and CSV shape

TEST(StatsSampler, FingerprintUnchangedBySampling)
{
    auto workload = [](HwBench &b) {
        const std::uint64_t n = 4096;
        Addr src = b.as->alloc(n);
        Addr dst = b.as->alloc(n);
        b.randomize(src, n);
        for (int i = 0; i < 8; ++i)
            b.run(dml::Executor::memMove(*b.as, dst, src, n));
        return b.sim.streamHash();
    };

    std::uint64_t hash_off, hash_on;
    std::size_t samples = 0;
    {
        HwBench b;
        b.sim.enableStreamHash(true);
        hash_off = workload(b);
    }
    {
        HwBench b;
        b.sim.enableStreamHash(true);
        stats::Sampler sampler(b.sim, fromNs(100));
        hash_on = workload(b);
        samples = sampler.sampleCount();
    }
    EXPECT_EQ(hash_on, hash_off);
    EXPECT_GT(samples, 0u);
}

TEST(StatsSampler, CsvColumnsLockedAndParseable)
{
    HwBench b;
    stats::Sampler sampler(b.sim, fromNs(100));
    const std::uint64_t n = 4096;
    Addr src = b.as->alloc(n);
    Addr dst = b.as->alloc(n);
    b.randomize(src, n);
    b.run(dml::Executor::memMove(*b.as, dst, src, n));
    ASSERT_GT(sampler.sampleCount(), 0u);

    const std::string path =
        ::testing::TempDir() + "stats_sampler_test.csv";
    ASSERT_TRUE(sampler.writeCsv(path));

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[65536];
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    std::string header(line);
    EXPECT_EQ(header.rfind("tick_ps,", 0), 0u);
    EXPECT_NE(header.find("dsa0.descriptors_submitted"),
              std::string::npos);
    const std::size_t cols =
        static_cast<std::size_t>(
            std::count(header.begin(), header.end(), ',')) + 1;
    // Every data row must carry exactly the locked column count.
    std::size_t rows = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        const std::string row(line);
        EXPECT_EQ(static_cast<std::size_t>(std::count(
                      row.begin(), row.end(), ',')) + 1, cols);
        ++rows;
    }
    std::fclose(f);
    EXPECT_EQ(rows, sampler.sampleCount());
    std::remove(path.c_str());
}

TEST(StatsSampler, DecimationBoundsMemoryAndGrowsPeriod)
{
    Simulation sim;
    sim.stats().counter("long.ops").add(1);
    stats::Sampler sampler(sim, fromNs(100));

    // A run long enough to cross the row cap several times must keep
    // the recording bounded and stretch the cadence, never lose the
    // newest sample, and leave rows strictly ordered.
    const std::size_t n = 5 * stats::Sampler::maxRows / 2;
    for (std::size_t i = 0; i < n; ++i)
        sampler.sample();
    EXPECT_LT(sampler.sampleCount(), stats::Sampler::maxRows);
    EXPECT_GT(sampler.sampleCount(), stats::Sampler::maxRows / 4);
    EXPECT_GT(sampler.period(), fromNs(100));
}

TEST(StatsSampler, ExportReportsWriteFailure)
{
    // /dev/full accepts the open and fails every write with ENOSPC:
    // a full disk must surface as false, not a silently truncated
    // file.
    if (std::FILE *probe = std::fopen("/dev/full", "w"))
        std::fclose(probe);
    else
        GTEST_SKIP() << "/dev/full is not available";

    Simulation sim;
    sim.stats().counter("full.ops").add(1);
    stats::Sampler sampler(sim, fromNs(100));
    sampler.sample();
    ASSERT_EQ(sampler.sampleCount(), 1u);

    EXPECT_FALSE(sampler.writeCsv("/dev/full"));
    EXPECT_FALSE(sampler.writePrometheusFile("/dev/full"));
    // The same recording writes fine where there is room.
    const std::string path =
        ::testing::TempDir() + "stats_export_ok.prom";
    EXPECT_TRUE(sampler.writePrometheusFile(path));
    std::remove(path.c_str());
}

} // namespace
} // namespace dsasim
