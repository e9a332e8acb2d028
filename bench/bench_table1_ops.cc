/**
 * @file
 * Table 1: the data-streaming operation set supported by DSA.
 *
 * For each operation this bench runs a functional verification on
 * the device model and reports a representative sync latency and
 * async throughput at 64 KB — the coverage row for the table.
 */

#include "bench/common.hh"
#include "sim/random.hh"
#include "ops/crc32.hh"
#include "ops/delta.hh"

namespace dsasim::bench
{
namespace
{

struct Check
{
    const char *type;
    const char *name;
    WorkDescriptor desc;
    bool expectOk = true;
};

} // namespace
} // namespace dsasim::bench

int
main()
{
    using namespace dsasim;
    using namespace dsasim::bench;
    using E = dml::Executor;

    Rig rig{Rig::Options{}};
    AddressSpace &as = *rig.as;
    const std::uint64_t n = 64 << 10;

    Addr src = as.alloc(n);
    Addr src2 = as.alloc(n);
    Addr dst = as.alloc(2 * n);
    Addr dst2 = as.alloc(2 * n);
    Addr rec = as.alloc(2 * n);

    // Deterministic content; src2 = src with a few mutations.
    {
        Rng rng(99);
        std::vector<std::uint8_t> buf(n);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next32());
        as.write(src, buf.data(), n);
        buf[123] ^= 1;
        as.write(src2, buf.data(), n);
    }

    // An exact copy of src for match-expected compares.
    Addr same = as.alloc(n);
    {
        std::vector<std::uint8_t> buf(n);
        as.read(src, buf.data(), n);
        as.write(same, buf.data(), n);
    }

    // Pre-protect a DIF source region.
    Addr prot = as.alloc(2 * n);
    rig.plat.kernels().run(rig.plat.core(2), as,
                           E::difInsert(as, src, prot, 512, n, 3, 9),
                           false);

    std::vector<Check> checks = {
        {"Move", "Memory Copy", E::memMove(as, dst, src, n)},
        {"Move", "Dualcast", E::dualcast(as, dst, dst2, src, n)},
        {"Move", "CRC Generation", E::crc32(as, src, n)},
        {"Move", "Copy with CRC", E::copyCrc(as, dst, src, n)},
        {"Move", "DIF Insert",
         E::difInsert(as, src, dst, 512, n, 3, 9)},
        {"Move", "DIF Check", E::difCheck(as, prot, 512, n, 3, 9)},
        {"Move", "DIF Strip", E::difStrip(as, prot, dst, 512, n)},
        {"Fill", "Memory Fill", E::fill(as, dst, 0x1234, n)},
        {"Compare", "Memory Compare", E::compare(as, src, same, n)},
        {"Compare", "Compare Pattern",
         E::comparePattern(as, src, 0xdeadbeef, n), false},
        {"Compare", "Create Delta Record",
         E::createDelta(as, src, src2, n, rec, 2 * n), false},
        {"Flush", "Cache Flush", E::cacheFlush(as, src, n)},
    };

    Table tbl("Table 1: DSA operation coverage (measured at 64KB)",
              {"type", "operation", "status", "sync ns",
               "async GB/s"});

    for (auto &c : checks) {
        Measure sync_m = syncHw(rig, c.desc, 24);
        // Async throughput: ring of the same descriptor.
        std::vector<WorkDescriptor> ring(8, c.desc);
        Measure async_m = asyncHw(rig, ring, 64);

        // Status check: run once more and verify the outcome.
        dml::OpResult r;
        bool finished = false;
        struct Drv
        {
            static SimTask
            go(Rig &rg, WorkDescriptor d, dml::OpResult &out,
               bool &fin)
            {
                co_await rg.exec->executeHardware(rg.plat.core(0), d,
                                                  out);
                fin = true;
            }
        };
        Drv::go(rig, c.desc, r, finished);
        rig.sim.run();
        bool good = finished &&
                    r.status == CompletionRecord::Status::Success &&
                    (r.ok == c.expectOk);
        tbl.addRow({c.type, c.name, good ? "OK" : "FAIL",
                    fmt(sync_m.meanNs, 0), fmt(async_m.gbps)});
    }

    // Apply Delta needs the record from Create Delta: verify the
    // round trip explicitly.
    {
        dml::OpResult cr, ar;
        bool f1 = false, f2 = false;
        struct Drv
        {
            static SimTask
            go(Rig &rg, WorkDescriptor d, dml::OpResult &out,
               bool &fin)
            {
                co_await rg.exec->executeHardware(rg.plat.core(0), d,
                                                  out);
                fin = true;
            }
        };
        Drv::go(rig, E::createDelta(as, src, src2, n, rec, 2 * n), cr,
                f1);
        rig.sim.run();
        Addr target = as.alloc(n);
        std::vector<std::uint8_t> buf(n);
        as.read(src, buf.data(), n);
        as.write(target, buf.data(), n);
        Drv::go(rig,
                E::applyDelta(as, target, rec, cr.recordBytes, n), ar,
                f2);
        rig.sim.run();
        bool good = f1 && f2 && ar.ok && as.equal(target, src2, n);
        tbl.addRow({"Compare", "Apply Delta Record",
                    good ? "OK" : "FAIL", "-", "-"});
    }

    tbl.print();
    return 0;
}
