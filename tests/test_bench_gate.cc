/**
 * @file
 * The self-benchmarks' --json/--check gate (bench/common.hh): fixed
 * values against a fixed committed JSON, one case per metric kind —
 * band at and just past the tolerance edge, exact counts,
 * simulated times and hashes, the keys that are skipped, the
 * invariants — plus finish()'s exit codes and a --json file read back
 * by --check.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

/** Verdict word per checked key (or invariant label). */
std::map<std::string, std::string>
words(const Gate &gate, const std::string &committed)
{
    std::map<std::string, std::string> out;
    for (const Gate::Verdict &v : gate.check(committed)) {
        EXPECT_EQ(v.ok, v.word == "ok") << v.key;
        out[v.key] = v.word;
    }
    return out;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

TEST(BenchGate, JsonKeepsDeclarationOrderAndFormats)
{
    Gate gate("demo", 0.2);
    gate.add(Gate::Info, "hw_threads", 4);
    gate.add(Gate::Info, "rate", 1193207.4, 0);
    gate.add(Gate::Band, "p99_us", 32.7924, 3);
    gate.add(Gate::Band, "goodput_mbps", 677.64, 1);
    gate.add(Gate::Exact, "end_us", 3448.6812, 3);
    gate.add(Gate::Exact, "stream_hash", hex64(0x4f698fbc07441965ull));
    gate.add(Gate::Info, "note", "free text");
    EXPECT_EQ(gate.json(), "{\n"
                           "  \"benchmark\": \"demo\",\n"
                           "  \"hw_threads\": 4,\n"
                           "  \"rate\": 1193207,\n"
                           "  \"p99_us\": 32.792,\n"
                           "  \"goodput_mbps\": 677.6,\n"
                           "  \"end_us\": 3448.681,\n"
                           "  \"stream_hash\": \"4f698fbc07441965\",\n"
                           "  \"note\": \"free text\"\n"
                           "}\n");
}

TEST(BenchGate, BandFailsPastTheToleranceEitherSide)
{
    Gate gate("demo", 0.25);
    gate.add(Gate::Band, "low_edge", 7.5, 3);
    gate.add(Gate::Band, "high_edge", 12.5, 3);
    gate.add(Gate::Band, "below", 7.49, 3);
    gate.add(Gate::Band, "above", 12.51, 3);
    auto w = words(gate, R"({"low_edge": 10, "high_edge": 10,
                             "below": 10, "above": 10})");
    EXPECT_EQ(w["low_edge"], "ok");
    EXPECT_EQ(w["high_edge"], "ok");
    EXPECT_EQ(w["below"], "OUT OF BAND");
    EXPECT_EQ(w["above"], "OUT OF BAND");
}

TEST(BenchGate, ExactComparesCountsTimesAndHashes)
{
    Gate gate("demo", 0.25);
    gate.add(Gate::Exact, "events", 139044);
    gate.add(Gate::Exact, "retries", 2794);
    gate.add(Gate::Exact, "dropped", 1);
    gate.add(Gate::Exact, "end_us", 3448.6812, 3);
    gate.add(Gate::Exact, "stream_hash", hex64(0x4835edb291b81fe5ull));
    gate.add(Gate::Exact, "qos_stream_hash", hex64(0x18dc367e9eb3ee33ull));
    auto w = words(gate, R"({
        "events": 139044,
        "retries": 2793,
        "dropped": 0,
        "end_us": 3448.681,
        "stream_hash": "4835edb291b81fe5",
        "qos_stream_hash": "18dc367e9eb3ee32"
    })");
    EXPECT_EQ(w["events"], "ok");
    EXPECT_EQ(w["retries"], "DIVERGED");
    // A committed zero is a count like any other, not a skip.
    EXPECT_EQ(w["dropped"], "DIVERGED");
    EXPECT_EQ(w["end_us"], "ok");
    EXPECT_EQ(w["stream_hash"], "ok");
    EXPECT_EQ(w["qos_stream_hash"], "DIVERGED");
}

TEST(BenchGate, SkipsAbsentKeysNonPositiveBaselinesAndInfo)
{
    Gate gate("demo", 0.25);
    gate.add(Gate::Exact, "absent", 1);
    gate.add(Gate::Band, "absent_band", 1, 3);
    gate.add(Gate::Band, "zero_band", 1, 3);
    gate.add(Gate::Band, "negative_band", 1, 3);
    gate.add(Gate::Info, "hw_threads", 4);
    gate.add(Gate::Exact, "checked", 0);
    gate.add(Gate::Exact, "no_value", 1);
    auto w = words(gate, R"({"zero_band": 0.000, "negative_band": -1,
                             "hw_threads": 1, "checked": 0,
                             "no_value": })");
    EXPECT_EQ(w.size(), 1u);
    EXPECT_EQ(w["checked"], "ok");
}

TEST(BenchGate, RequireNeedsNoCommittedValue)
{
    Gate gate("demo", 0.25);
    gate.require("holds", true);
    gate.require("broken", false);
    auto w = words(gate, "{}");
    EXPECT_EQ(w["holds"], "ok");
    EXPECT_EQ(w["broken"], "VIOLATED");

    const std::string path = tempPath("gate_empty.json");
    Gate empty("empty");
    ASSERT_TRUE(empty.write(path));
    ASSERT_TRUE(gate.parseArg("--check=" + path));
    EXPECT_EQ(gate.finish(), 1);
}

TEST(BenchGate, UnreadableOrUnwritableFilesExitTwo)
{
    Gate reader("demo");
    reader.add(Gate::Exact, "events", 1);
    ASSERT_TRUE(reader.parseArg("--check=" +
                                tempPath("gate_no_such_file.json")));
    EXPECT_TRUE(reader.checking());
    EXPECT_EQ(reader.finish(), 2);

    Gate writer("demo");
    ASSERT_TRUE(writer.parseArg("--json=" +
                                tempPath("no_such_dir/out.json")));
    EXPECT_FALSE(writer.checking());
    EXPECT_EQ(writer.finish(), 2);
}

TEST(BenchGate, OtherArgumentsAreLeftToTheBench)
{
    Gate gate("demo");
    EXPECT_FALSE(gate.parseArg("--n=16"));
    EXPECT_FALSE(gate.parseArg("--tol=0.5"));
    EXPECT_FALSE(gate.checking());
    EXPECT_EQ(gate.finish(), 0);
}

TEST(BenchGate, JsonReadBackByCheckIsAllOk)
{
    auto declare = [](Gate &gate) {
        gate.add(Gate::Info, "hw_threads", 4);
        gate.add(Gate::Info, "rate", 1193207.4, 0);
        gate.add(Gate::Band, "p50_us", 0.5351, 3);
        gate.add(Gate::Band, "p99_us", 32.7924, 3);
        gate.add(Gate::Band, "goodput_mbps", 677.64, 1);
        gate.add(Gate::Exact, "events", 175037);
        gate.add(Gate::Exact, "dropped", 0);
        gate.add(Gate::Exact, "end_us", 142361.5943, 3);
        gate.add(Gate::Exact, "stream_hash", hex64(0x76e0d235dd59e942ull));
        gate.add(Gate::Info, "note", "read back");
        gate.require("invariant", true);
    };
    const std::string path = tempPath("gate_roundtrip.json");
    Gate writer("demo", 0.2);
    declare(writer);
    ASSERT_TRUE(writer.parseArg("--json=" + path));
    EXPECT_EQ(writer.finish(), 0);

    Gate checker("demo", 0.2);
    declare(checker);
    ASSERT_TRUE(checker.parseArg("--check=" + path));
    EXPECT_EQ(checker.finish(), 0);
    // Every checked kind was compared: 7 metrics + 1 invariant.
    EXPECT_EQ(words(checker, writer.json()).size(), 8u);
}

} // namespace
} // namespace dsasim::bench
