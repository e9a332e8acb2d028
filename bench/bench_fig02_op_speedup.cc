/**
 * @file
 * Figure 2: throughput improvement of DSA data-streaming operations
 * over their software counterparts with varying transfer sizes
 * (batch size 1).
 *
 *   (a) synchronous offload: one descriptor submitted and completed
 *       at a time — DSA wins above ~4 KB.
 *   (b) asynchronous offload (queue depth 32): DSA overtakes the
 *       core around ~256 B.
 *
 * Buffers are flushed between iterations, per the paper's §4.1.
 */

#include <functional>

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

struct OpSpec
{
    const char *name;
    std::uint64_t minSize;
    std::uint64_t maxSize;
    /** Build a descriptor for buffers at (src, dst) of `size`. */
    std::function<WorkDescriptor(Rig &, Addr, Addr, std::uint64_t)>
        make;
    /** Destination bytes per source byte (region sizing). */
    double dstScale = 1.0;
};

std::vector<OpSpec>
opSpecs()
{
    using E = dml::Executor;
    std::vector<OpSpec> ops;
    ops.push_back({"Memory Copy", 64, 2 << 20,
                   [](Rig &r, Addr s, Addr d, std::uint64_t n) {
                       return E::memMove(*r.as, d, s, n);
                   },
                   1.0});
    ops.push_back({"Dualcast", 64, 1 << 20,
                   [](Rig &r, Addr s, Addr d, std::uint64_t n) {
                       return E::dualcast(*r.as, d, d + n, s, n);
                   },
                   2.0});
    ops.push_back({"CRC Gen", 64, 2 << 20,
                   [](Rig &r, Addr s, Addr, std::uint64_t n) {
                       return E::crc32(*r.as, s, n);
                   },
                   0.0});
    ops.push_back({"Copy+CRC", 64, 2 << 20,
                   [](Rig &r, Addr s, Addr d, std::uint64_t n) {
                       return E::copyCrc(*r.as, d, s, n);
                   },
                   1.0});
    ops.push_back({"Memory Fill", 64, 2 << 20,
                   [](Rig &r, Addr, Addr d, std::uint64_t n) {
                       WorkDescriptor w = E::fill(*r.as, d, 0x5aa5, n);
                       // allocating-store baseline / LLC-directed
                       w.flags |= descflags::cacheControl;
                       return w;
                   },
                   1.0});
    ops.push_back({"NT-Memory Fill", 64, 2 << 20,
                   [](Rig &r, Addr, Addr d, std::uint64_t n) {
                       WorkDescriptor w = E::fill(*r.as, d, 0x5aa5, n);
                       // cache-control off: NT stores / non-alloc
                       w.flags &= ~descflags::cacheControl;
                       return w;
                   },
                   1.0});
    ops.push_back({"Memory Compare", 64, 2 << 20,
                   [](Rig &r, Addr s, Addr d, std::uint64_t n) {
                       return E::compare(*r.as, s, d, n);
                   },
                   1.0});
    ops.push_back({"Compare Pattern", 64, 2 << 20,
                   [](Rig &r, Addr s, Addr, std::uint64_t n) {
                       return E::comparePattern(*r.as, s, 0, n);
                   },
                   0.0});
    ops.push_back({"DIF Insert", 4096, 1 << 20,
                   [](Rig &r, Addr s, Addr d, std::uint64_t n) {
                       return E::difInsert(*r.as, s, d, 4096, n, 1, 1);
                   },
                   1.1});
    ops.push_back({"DIF Check", 4096, 1 << 20,
                   [](Rig &r, Addr s, Addr, std::uint64_t n) {
                       WorkDescriptor w =
                           E::difCheck(*r.as, s, 4096, n, 1, 1);
                       return w;
                   },
                   0.0});
    ops.push_back({"Create Delta", 64, 256 << 10,
                   [](Rig &r, Addr s, Addr d, std::uint64_t n) {
                       // src2 = modified copy lives past the source.
                       return E::createDelta(*r.as, s, s + n, n,
                                             d, 2 * n);
                   },
                   2.0});
    return ops;
}

void
prepareBuffers(Rig &rig, const OpSpec &op, Addr &src, Addr &dst,
               std::uint64_t max_size)
{
    // Source region holds src (+ src2 for delta) back to back.
    src = rig.as->alloc(2 * max_size + 4096);
    std::uint64_t dst_bytes = static_cast<std::uint64_t>(
        static_cast<double>(2 * max_size) * (op.dstScale + 0.5) +
        8192);
    dst = rig.as->alloc(dst_bytes);
    // Memory Compare scans fully only on equal inputs (both the
    // core and DSA exit early at the first difference), so mirror
    // the source into the destination region.
    if (std::string(op.name) == "Memory Compare") {
        std::vector<std::uint8_t> buf(1 << 20);
        for (std::uint64_t off = 0; off < 2 * max_size;
             off += buf.size()) {
            std::uint64_t run = std::min<std::uint64_t>(
                buf.size(), 2 * max_size - off);
            rig.as->read(src + off, buf.data(), run);
            rig.as->write(dst + off, buf.data(), run);
        }
    }
    // DIF check needs a pre-protected source: build it in place.
    if (std::string(op.name) == "DIF Check") {
        // Protect max_size bytes of data at src.
        Core &core = rig.plat.core(2);
        Addr tmp = rig.as->alloc(max_size);
        rig.plat.kernels().run(
            core, *rig.as,
            dml::Executor::difInsert(*rig.as, tmp, src, 4096, max_size,
                                     1, 1),
            false);
    }
}

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;

    const std::vector<std::uint64_t> sizes = {
        64,       256,      1 << 10, 4 << 10, 16 << 10,
        64 << 10, 256 << 10, 1 << 20, 2 << 20};

    const std::vector<OpSpec> ops = opSpecs();
    SweepRunner sweep;

    // ---- (a) synchronous speedup -----------------------------------
    {
        std::vector<std::string> cols = {"operation"};
        for (auto s : sizes)
            cols.push_back(fmtSize(s));
        Table tbl("Fig 2a: sync speedup over software (x)", cols);
        // Each op row builds its own rig on the SweepRunner, so rows
        // sweep in parallel.
        auto rows = sweep.run(ops.size(), [&](std::size_t oi) {
            Rig rig{Rig::Options{}};
            const OpSpec &op = ops[oi];
            Addr src = 0, dst = 0;
            prepareBuffers(rig, op, src, dst, op.maxSize);
            std::vector<std::string> row = {op.name};
            for (auto s : sizes) {
                if (s < op.minSize || s > op.maxSize) {
                    row.push_back("-");
                    continue;
                }
                WorkDescriptor d = op.make(rig, src, dst, s);
                Measure hw = syncHw(rig, d);
                Measure sw = syncSw(rig, d);
                row.push_back(fmt(sw.meanNs / hw.meanNs));
            }
            return row;
        });
        for (auto &row : rows)
            tbl.addRow(std::move(row));
        tbl.print();
    }

    // ---- (b) asynchronous speedup ----------------------------------
    {
        std::vector<std::string> cols = {"operation"};
        for (auto s : sizes)
            cols.push_back(fmtSize(s));
        Table tbl("Fig 2b: async (depth 32) speedup over software (x)",
                  cols);
        auto rows = sweep.run(ops.size(), [&](std::size_t oi) {
            Rig rig{Rig::Options{}};
            const OpSpec &op = ops[oi];
            const int ring_n = 16;
            Addr src = 0, dst = 0;
            // Strided ring within one pair of large regions.
            prepareBuffers(rig, op, src, dst,
                           op.maxSize * ring_n);
            std::vector<std::string> row = {op.name};
            for (auto s : sizes) {
                if (s < op.minSize || s > op.maxSize) {
                    row.push_back("-");
                    continue;
                }
                std::vector<WorkDescriptor> ring;
                for (int i = 0; i < ring_n; ++i) {
                    Addr so = src + static_cast<Addr>(i) * 2 * s;
                    Addr dk = dst + static_cast<Addr>(i) *
                                        static_cast<Addr>(
                                            2 * s * (op.dstScale +
                                                     0.5));
                    if (std::string(op.name) == "DIF Check") {
                        // Each slot needs valid protected data.
                        Addr tmp = src; // any data source works
                        rig.plat.kernels().run(
                            rig.plat.core(2), *rig.as,
                            dml::Executor::difInsert(*rig.as, tmp, so,
                                                     4096, s, 1, 1),
                            false);
                    }
                    ring.push_back(op.make(rig, so, dk, s));
                }
                Measure hw = asyncHw(rig, ring);
                Measure sw = syncSw(rig, ring.front());
                row.push_back(fmt(hw.gbps / sw.gbps));
            }
            return row;
        });
        for (auto &row : rows)
            tbl.addRow(std::move(row));
        tbl.print();
    }
    return 0;
}
