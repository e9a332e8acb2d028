/**
 * @file
 * IOMMU model: translates device-side virtual accesses (SVM/PASID)
 * with an IOTLB, charging page-walk latency on misses and an OS
 * round-trip on page faults — the mechanism behind DSA's
 * "no memory pinning required" feature (F1) and the PE-stall
 * discussion of §4.3.
 */

#ifndef DSASIM_MEM_IOMMU_HH
#define DSASIM_MEM_IOMMU_HH

#include <cstdint>

#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "mem/types.hh"
#include "sim/fault_injector.hh"
#include "sim/ticks.hh"

namespace dsasim
{

struct IommuConfig
{
    std::size_t iotlbEntries = 8192;
    Tick iotlbHitLatency = fromNs(10);
    Tick pageWalkLatency = fromNs(250);
    Tick faultServiceLatency = fromUs(5); ///< OS demand-paging round trip
};

class Iommu
{
  public:
    struct Result
    {
        bool ok = false;      ///< translation produced a usable PA
        bool faulted = false; ///< a page fault occurred along the way
        Addr pa = 0;
        Tick latency = 0;     ///< added device-visible latency
    };

    explicit Iommu(const IommuConfig &cfg)
        : config(cfg), iotlb(cfg.iotlbEntries)
    {}

    /**
     * Translate the page @p pg of @p pt that a PageTable::walk just
     * produced (so it is mapped) for a device request.
     *
     * @param resolve_fault  emulate block-on-fault=1: a non-present
     *        page is paged in by the OS (present bit set) at
     *        faultServiceLatency cost. With false, the fault is
     *        reported and ok stays false.
     */
    Result
    translate(PageTable &pt, Pasid pasid, const PageTable::PageRun &pg,
              bool resolve_fault)
    {
        ++translations;
        Result res;
        // Injected fault: the page behaves as transiently non-present
        // (e.g. reclaimed between CPU touch and device access), even
        // if the IOTLB or the page table says otherwise.
        FaultQuery pfq;
        pfq.pasid = static_cast<std::int64_t>(pasid);
        bool injected = faultInjector &&
                        faultInjector->fire(FaultSite::PageFault, pfq);
        if (injected)
            ++injectedFaults;
        if (!injected && iotlb.lookup(pasid, pg.pageVa) && pg.present) {
            res.ok = true;
            res.pa = pg.pa;
            res.latency = config.iotlbHitLatency;
            return res;
        }
        res.latency = config.pageWalkLatency;
        if (!pg.present || injected) {
            res.faulted = true;
            if (!resolve_fault)
                return res;
            res.latency += config.faultServiceLatency;
            pt.setPresent(pg.va, true);
        }
        iotlb.insert(pasid, pg.pageVa);
        res.ok = true;
        res.pa = pg.pa;
        return res;
    }

    TranslationCache &tlb() { return iotlb; }
    const IommuConfig &cfg() const { return config; }

    /// @name Fault injection (optional; nullptr = fault-free).
    /// @{
    void setFaultInjector(FaultInjector *fi) { faultInjector = fi; }
    std::uint64_t injectedFaults = 0;
    /// @}

    /** Device-side translation requests served (telemetry). */
    std::uint64_t translations = 0;

  private:
    IommuConfig config;
    TranslationCache iotlb;
    FaultInjector *faultInjector = nullptr;
};

} // namespace dsasim

#endif // DSASIM_MEM_IOMMU_HH
