/**
 * @file
 * Host-side throughput of the simulator's *functional* data path —
 * the code that actually moves bytes when descriptors execute. This
 * is a self-benchmark (host seconds, not simulated ticks): the
 * figure sweeps stream gigabytes through AddressSpace::read/write
 * and the engine opcode kernels, so their host throughput bounds how
 * many scenarios a sweep can cover.
 *
 * Metrics (GB/s of payload moved per host second):
 *   read/write/copy at 64 B, 4 KiB and 1 MiB access granularity —
 *   small accesses expose per-access translation cost, large ones
 *   the raw copy bandwidth; fill at 1 MiB; a 2 MiB-page read
 *   stream.
 *
 *   composite_gbps is the geometric mean of the *data-path-bound*
 *   metrics — the 64 B set plus the VA-to-VA copies, where
 *   simulator overhead (translation, dispatch, double-copying)
 *   rather than host memcpy bandwidth dominates. This is the
 *   PR-over-PR trend number. bulk_gbps is the geomean of the
 *   memcpy-bound bulk metrics (4 KiB/1 MiB read/write, fill, the
 *   2 MiB-page stream); it is pinned near the host's DRAM bandwidth
 *   and is tracked only to catch regressions.
 *
 *   engine_gbps / engine_desc_per_sec run real memmove descriptors
 *   through a DSA engine (functional + timing model together).
 *
 * Usage:
 *   bench_datapath [--json=PATH] [--check=PATH]
 *
 * Prints the metrics as a JSON object and --json writes it to PATH.
 * --check compares against a committed JSON (the Gate in common.hh)
 * and fails if any gated metric fell more than 20% below it — the CI
 * regression gate. write_64, write_1m and copy_64 are recorded but
 * not gated.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "sim/random.hh"

namespace dsasim::bench
{
namespace
{

/** GB/s of @p fn, which moves @p bytes_per_iter per call. */
template <typename Fn>
double
gbps(std::uint64_t bytes_per_iter, Fn &&fn)
{
    return bestRate(static_cast<double>(bytes_per_iter), fn) / 1e9;
}

struct Metrics
{
    double read64 = 0, read4k = 0, read1m = 0;
    double write64 = 0, write4k = 0, write1m = 0;
    double copy64 = 0, copy4k = 0, copy1m = 0;
    double fill1m = 0;
    double read2mPage = 0;
    double composite = 0;
    double bulk = 0;
    double engineGbps = 0;
    double engineDescPerSec = 0;
};

Metrics
measure()
{
    Metrics m;
    const std::uint64_t region = 64ull << 20;
    const std::uint64_t batch = 8ull << 20; // payload per timed call

    {
        Simulation sim;
        MemSystem ms(sim, PlatformConfig::spr().mem);
        AddressSpace &as = ms.createSpace();
        Addr src = as.alloc(region);
        Addr dst = as.alloc(region);
        std::vector<std::uint8_t> buf(1 << 20);
        Rng rng(7);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next32());
        for (std::uint64_t off = 0; off < region; off += buf.size())
            as.write(src + off, buf.data(), buf.size());

        std::uint64_t cursor = 0;
        auto advance = [&](std::uint64_t bs) {
            std::uint64_t off = cursor;
            cursor = cursor + bs <= region - bs ? cursor + bs : 0;
            return off;
        };
        auto readAt = [&](std::uint64_t bs) {
            return gbps(batch, [&] {
                for (std::uint64_t done = 0; done < batch; done += bs)
                    as.read(src + advance(bs), buf.data(), bs);
            });
        };
        auto writeAt = [&](std::uint64_t bs) {
            return gbps(batch, [&] {
                for (std::uint64_t done = 0; done < batch; done += bs)
                    as.write(dst + advance(bs), buf.data(), bs);
            });
        };
        // Copy: VA-to-VA, the memmove kernel's data plane (was a
        // scratch double copy; now the zero-copy span path).
        auto copyAt = [&](std::uint64_t bs) {
            return gbps(batch, [&] {
                for (std::uint64_t done = 0; done < batch;
                     done += bs) {
                    std::uint64_t off = advance(bs);
                    as.copy(dst + off, src + off, bs);
                }
            });
        };

        m.read64 = readAt(64);
        m.read4k = readAt(4096);
        m.read1m = readAt(1 << 20);
        m.write64 = writeAt(64);
        m.write4k = writeAt(4096);
        m.write1m = writeAt(1 << 20);
        m.copy64 = copyAt(64);
        m.copy4k = copyAt(4096);
        m.copy1m = copyAt(1 << 20);
        m.fill1m = gbps(batch, [&] {
            for (std::uint64_t done = 0; done < batch;
                 done += 1 << 20)
                as.fill(dst + advance(1 << 20), 0x5a, 1 << 20);
        });
    }

    {
        Simulation sim;
        MemSystem ms(sim, PlatformConfig::spr().mem);
        AddressSpace &as = ms.createSpace();
        Addr src = as.alloc(region, MemKind::DramLocal,
                            PageSize::Size2M);
        std::vector<std::uint8_t> buf(1 << 20, 0x11);
        for (std::uint64_t off = 0; off < region; off += buf.size())
            as.write(src + off, buf.data(), buf.size());
        std::uint64_t cursor = 0;
        m.read2mPage = gbps(batch, [&] {
            for (std::uint64_t done = 0; done < batch;
                 done += 1 << 20) {
                as.read(src + cursor, buf.data(), 1 << 20);
                cursor = cursor + (2 << 20) <= region - (1 << 20)
                             ? cursor + (1 << 20)
                             : 0;
            }
        });
    }

    auto geomean = [](std::initializer_list<double> parts) {
        double log_sum = 0;
        for (double p : parts)
            log_sum += std::log(std::max(p, 1e-9));
        return std::exp(log_sum /
                        static_cast<double>(parts.size()));
    };
    m.composite = geomean(
        {m.read64, m.write64, m.copy64, m.copy4k, m.copy1m});
    m.bulk = geomean({m.read4k, m.read1m, m.write4k, m.write1m,
                      m.fill1m, m.read2mPage});

    // End-to-end engine throughput (functional + timing model): host
    // seconds for @p total memmoves of @p size, best of two fresh
    // rigs to damp scheduler noise.
    auto run = [](std::uint64_t size, int total) {
        double best = 1e99;
        for (int trial = 0; trial < 2; ++trial) {
            Rig::Options o;
            Rig rig(o);
            auto ring = memMoveRing(rig, size, 16);
            auto t0 = Clock::now();
            asyncHw(rig, ring, total, 32);
            best = std::min(best, secondsSince(t0));
        }
        return best;
    };
    const std::uint64_t big = 256 << 10;
    m.engineGbps = static_cast<double>(big) * 512 / run(big, 512) / 1e9;
    m.engineDescPerSec = 4096 / run(4096, 4096);
    return m;
}

} // namespace
} // namespace dsasim::bench

int
main(int argc, char **argv)
{
    using namespace dsasim::bench;
    Gate gate("datapath", 0.20);
    for (int i = 1; i < argc; ++i) {
        if (!gate.parseArg(argv[i])) {
            std::fprintf(stderr, "usage: bench_datapath [--json=PATH] "
                                 "[--check=PATH]\n");
            return 2;
        }
    }
    const Metrics m = measure();
    gate.add(Gate::Floor, "read_64_gbps", m.read64, 3);
    gate.add(Gate::Floor, "read_4k_gbps", m.read4k, 3);
    gate.add(Gate::Floor, "read_1m_gbps", m.read1m, 3);
    gate.add(Gate::Info, "write_64_gbps", m.write64, 3);
    gate.add(Gate::Floor, "write_4k_gbps", m.write4k, 3);
    gate.add(Gate::Info, "write_1m_gbps", m.write1m, 3);
    gate.add(Gate::Info, "copy_64_gbps", m.copy64, 3);
    gate.add(Gate::Floor, "copy_4k_gbps", m.copy4k, 3);
    gate.add(Gate::Floor, "copy_1m_gbps", m.copy1m, 3);
    gate.add(Gate::Floor, "fill_1m_gbps", m.fill1m, 3);
    gate.add(Gate::Floor, "read_2m_page_gbps", m.read2mPage, 3);
    gate.add(Gate::Floor, "composite_gbps", m.composite, 3);
    gate.add(Gate::Floor, "bulk_gbps", m.bulk, 3);
    gate.add(Gate::Floor, "engine_gbps", m.engineGbps, 3);
    gate.add(Gate::Floor, "engine_desc_per_sec", m.engineDescPerSec);
    return gate.finish();
}
