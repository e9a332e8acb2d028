/**
 * @file
 * The engine timing walk's platform fingerprint — the walk that
 * charges LLC/DDIO hits, misses, evictions and writebacks while a
 * descriptor streams through `Engine::process`.
 *
 * stream_hash is the event-stream fingerprint of a fixed mixed run
 * (sizes, opcodes and flags pinned): the timing walk must produce
 * byte-identical event streams no matter how the accounting is
 * implemented, so --check asserts it exactly — a regression gate for
 * the batched-vs-line equivalence contract (DESIGN.md §13) as well as
 * for accidental timing changes. The walk's host speed is measured by
 * perfbench's offload-ring workload, not here.
 *
 * Usage:
 *   bench_engine [--json=PATH] [--check=PATH]
 *
 * Prints the fingerprint as a JSON object and --json writes it to
 * PATH. --check compares against a committed JSON (the Gate in
 * common.hh) and fails if stream_hash differs.
 */

#include <cstdio>
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

} // namespace
} // namespace dsasim::bench

int
main(int argc, char **argv)
{
    using namespace dsasim::bench;
    Gate gate("engine");
    for (int i = 1; i < argc; ++i) {
        if (!gate.parseArg(argv[i])) {
            std::fprintf(stderr, "usage: bench_engine [--json=PATH] "
                                 "[--check=PATH]\n");
            return 2;
        }
    }
    // The fingerprint is exact: any drift means the timing walk's
    // event stream changed, which a perf-only change must never do.
    gate.add(Gate::Exact, "stream_hash", hex64(fingerprint()));
    return gate.finish();
}
