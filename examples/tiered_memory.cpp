/**
 * @file
 * Example: tiered-memory page migration with DSA (guideline G4).
 *
 * A hot/cold tiering daemon demotes cold pages from local DRAM to
 * CXL-attached memory and promotes hot pages back. The example
 * compares core-driven migration (load/store memcpy) against DSA
 * batch offload, and shows the CXL read/write asymmetry the paper
 * measures: promotion (CXL -> DRAM) is cheaper than demotion
 * (DRAM -> CXL) because CXL writes are slower than reads.
 *
 * Build & run:  ./build/examples/tiered_memory
 */

#include <cstdio>

#include "dml/dml.hh"
#include "driver/platform.hh"

using namespace dsasim;

namespace
{

constexpr std::uint64_t pageSz = 2 << 20; // migrate in 2MB folios
constexpr int pages = 24;

SimTask
migrate(Simulation &sim, Platform &plat, dml::Executor &exec,
        AddressSpace &as, bool use_dsa, bool demote, double &ms,
        bool &verified)
{
    Core &core = plat.core(0);
    MemKind from = demote ? MemKind::DramLocal : MemKind::Cxl;
    MemKind to = demote ? MemKind::Cxl : MemKind::DramLocal;

    Addr src = as.alloc(pageSz * pages, from);
    Addr dst = as.alloc(pageSz * pages, to);
    // Stamp each page so we can verify the migration.
    for (int p = 0; p < pages; ++p) {
        std::uint64_t stamp = 0xfeed0000 + static_cast<unsigned>(p);
        as.write(src + static_cast<Addr>(p) * pageSz, &stamp, 8);
    }

    Tick t0 = sim.now();
    if (use_dsa) {
        // One batch moves the whole folio list (G1 + G2).
        std::vector<WorkDescriptor> subs;
        for (int p = 0; p < pages; ++p) {
            subs.push_back(dml::Executor::memMove(
                as, dst + static_cast<Addr>(p) * pageSz,
                src + static_cast<Addr>(p) * pageSz, pageSz));
        }
        dml::OpResult r;
        co_await exec.executeBatch(core, subs, r);
    } else {
        for (int p = 0; p < pages; ++p) {
            auto r = plat.kernels().memcpyOp(
                core, as, dst + static_cast<Addr>(p) * pageSz,
                src + static_cast<Addr>(p) * pageSz, pageSz);
            co_await core.busyFor(r.duration, "migration");
        }
    }
    ms = toUs(sim.now() - t0) / 1000.0;

    verified = true;
    for (int p = 0; p < pages; ++p) {
        std::uint64_t stamp = 0;
        as.read(dst + static_cast<Addr>(p) * pageSz, &stamp, 8);
        if (stamp != 0xfeed0000 + static_cast<unsigned>(p))
            verified = false;
    }
}

} // namespace

int
main()
{
    std::printf("Tiered-memory migration of %d x 2MB folios "
                "(DRAM <-> CXL):\n",
                pages);
    for (bool demote : {true, false}) {
        for (bool dsa : {false, true}) {
            Simulation sim;
            Platform plat(sim, PlatformConfig::spr());
            DsaTopology::basic().apply(plat.dsa(0));
            AddressSpace &as = plat.mem().createSpace();
            dml::ExecutorConfig ec;
            ec.path = dml::Path::Hardware;
            dml::Executor exec(sim, plat.mem(), plat.kernels(),
                               {&plat.dsa(0)}, ec);
            double ms = 0;
            bool ok = false;
            migrate(sim, plat, exec, as, dsa, demote, ms, ok);
            sim.run();
            std::printf("  %-7s via %-3s: %7.2f ms (%5.1f GB/s) %s\n",
                        demote ? "demote" : "promote",
                        dsa ? "DSA" : "CPU", ms,
                        static_cast<double>(pageSz) * pages / 1e6 /
                            ms,
                        ok ? "[verified]" : "[CORRUPT]");
        }
    }
    std::printf("\nNote the asymmetry: promotion reads CXL (faster) "
                "while demotion\nwrites CXL (slower) — G4's guidance "
                "on heterogeneous memory.\n");
    return 0;
}
