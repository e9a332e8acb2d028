/**
 * @file
 * Host-side throughput of the engine timing walk — the code that
 * charges LLC/DDIO hits, misses, evictions and writebacks while a
 * descriptor streams through `Engine::process`. This is a
 * self-benchmark (host seconds, not simulated ticks): every figure
 * sweep, forked sweep and serving scenario funnels through this walk,
 * so its host throughput bounds how many scenarios a run can cover.
 *
 * Scenarios cover the walk's three span paths across hit/miss/DDIO
 * mixes:
 *   memmove_1m_gbps       1 MiB moves, cache-control on: DDIO-way
 *                         fills + cold source misses (ring flushed
 *                         per pass).
 *   memmove_1m_nocc_gbps  cache-control off: non-allocating dest
 *                         evictions + memory writes.
 *   memmove_1m_warm_gbps  no flushing: the source hit path (lines
 *                         stay resident between passes).
 *   fill_1m_gbps          FILL descriptors (write-only stream).
 *   crc_1m_gbps           CRC32 descriptors (read-only stream).
 *   engine_desc_per_sec   4 KiB moves: per-descriptor overhead.
 *   engine_gbps           alias of memmove_1m_gbps, the headline
 *                         bulk-walk number (ROADMAP target: >=5x the
 *                         pre-batching 1.0 GB/s).
 *
 * stream_hash is the event-stream fingerprint of a fixed mixed run
 * (sizes, opcodes and flags pinned): the timing walk must produce
 * byte-identical event streams no matter how the accounting is
 * implemented, so --check asserts it exactly — a regression gate for
 * the batched-vs-line equivalence contract (DESIGN.md §13) as well as
 * for accidental timing changes.
 *
 * Usage:
 *   bench_engine [--json=PATH] [--check=PATH]
 *
 * Prints the metrics as a JSON object and --json writes it to PATH.
 * --check compares against a committed JSON (the Gate in common.hh):
 * it fails if any throughput fell more than 20% below the committed
 * value or stream_hash differs — the CI regression gate.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

enum class Op { MemMove, Fill, Crc };

std::vector<WorkDescriptor>
buildRing(Rig &rig, Op op, std::uint64_t size, int count,
          bool cache_control)
{
    AddressSpace &as = *rig.as;
    std::uint64_t n = static_cast<std::uint64_t>(count);
    Addr src = as.alloc(size * n);
    Addr dst = as.alloc(size * n);
    std::vector<WorkDescriptor> ring;
    for (int i = 0; i < count; ++i) {
        Addr s = src + static_cast<Addr>(i) * size;
        Addr t = dst + static_cast<Addr>(i) * size;
        WorkDescriptor d;
        switch (op) {
          case Op::MemMove:
            d = dml::Executor::memMove(as, t, s, size);
            break;
          case Op::Fill:
            d = dml::Executor::fill(as, t, 0x5a5a5a5a5a5a5a5aull,
                                    size);
            break;
          case Op::Crc:
            d = dml::Executor::crc32(as, s, size);
            break;
        }
        if (!cache_control)
            d.flags &= ~descflags::cacheControl;
        ring.push_back(d);
    }
    return ring;
}

/**
 * Wall-clock seconds for @p total descriptors of one scenario on a
 * fresh rig; best of three fresh-rig trials (damps scheduler noise —
 * peak sustained rate is the stable capability number).
 */
double
run(Op op, std::uint64_t size, int total, bool cache_control,
    bool flush_per_pass, int ring_count = 8, int depth = 32)
{
    double best = 1e99;
    for (int trial = 0; trial < 3; ++trial) {
        Rig::Options o;
        Rig rig(o);
        auto ring =
            buildRing(rig, op, size, ring_count, cache_control);
        auto t0 = Clock::now();
        asyncHw(rig, std::move(ring), total, depth, flush_per_pass);
        best = std::min(best, secondsSince(t0));
    }
    return best;
}

/**
 * Fixed mixed workload with event-stream hashing on: 4 KiB / 64 KiB
 * MEMMOVE (with and without cache control), FILL and CRC descriptors
 * interleaved over one rig. Everything is pinned, so the resulting
 * fingerprint is host-independent and must never move unless the
 * timing model intentionally changes.
 */
std::uint64_t
fingerprint()
{
    Rig::Options o;
    Rig rig(o);
    rig.sim.enableStreamHash(true);
    std::vector<WorkDescriptor> ring;
    for (const auto &r : {
             buildRing(rig, Op::MemMove, 4096, 4, true),
             buildRing(rig, Op::MemMove, 64 << 10, 4, false),
             buildRing(rig, Op::Fill, 64 << 10, 4, true),
             buildRing(rig, Op::Crc, 64 << 10, 4, true),
         })
        ring.insert(ring.end(), r.begin(), r.end());
    asyncHw(rig, std::move(ring), 96, 16);
    return rig.sim.streamHash();
}

/** Run every scenario and declare its metric on @p gate. */
void
measure(Gate &gate)
{
    // GB/s of a 192 x 1 MiB scenario.
    auto bulk = [](Op op, bool cache_control, bool flush_per_pass) {
        const std::uint64_t mb = 1 << 20;
        return static_cast<double>(mb) * 192 /
               run(op, mb, 192, cache_control, flush_per_pass) / 1e9;
    };
    const double memmove1m = bulk(Op::MemMove, true, true);
    gate.add(Gate::Floor, "memmove_1m_gbps", memmove1m, 3);
    gate.add(Gate::Floor, "memmove_1m_nocc_gbps",
             bulk(Op::MemMove, false, true), 3);
    gate.add(Gate::Floor, "memmove_1m_warm_gbps",
             bulk(Op::MemMove, true, false), 3);
    gate.add(Gate::Floor, "fill_1m_gbps", bulk(Op::Fill, true, true), 3);
    gate.add(Gate::Floor, "crc_1m_gbps", bulk(Op::Crc, true, true), 3);
    const int total = 16384;
    gate.add(Gate::Floor, "engine_desc_per_sec",
             total / run(Op::MemMove, 4096, total, true, true, 16));
    gate.add(Gate::Floor, "engine_gbps", memmove1m, 3);
    // The fingerprint is exact: any drift means the timing walk's
    // event stream changed, which a perf-only change must never do.
    gate.add(Gate::Exact, "stream_hash", hex64(fingerprint()));
}

} // namespace
} // namespace dsasim::bench

int
main(int argc, char **argv)
{
    using namespace dsasim::bench;
    Gate gate("engine", 0.20);
    for (int i = 1; i < argc; ++i) {
        if (!gate.parseArg(argv[i])) {
            std::fprintf(stderr, "usage: bench_engine [--json=PATH] "
                                 "[--check=PATH]\n");
            return 2;
        }
    }
    measure(gate);
    return gate.finish();
}
