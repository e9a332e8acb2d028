/**
 * @file
 * Platform presets and assembly.
 *
 * PlatformConfig bundles every calibration constant; the two presets
 * mirror Table 2 of the paper:
 *
 *   | Generation      | Ice Lake (ICX)    | Sapphire Rapids (SPR) |
 *   | cores           | 40                | 56                    |
 *   | shared LLC      | 57 MB             | 105 MB                |
 *   | memory          | 6x DDR4           | 8x DDR5               |
 *   | DMA engine      | CBDMA, 16 chan    | DSA, 8 WQs, 4 PEs     |
 *
 * Platform instantiates the memory system, cores, DSA instances (SPR
 * exposes up to 4 per socket) and the CBDMA baseline.
 */

#ifndef DSASIM_DRIVER_PLATFORM_HH
#define DSASIM_DRIVER_PLATFORM_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cbdma/cbdma.hh"
#include "cpu/core.hh"
#include "cpu/kernels.hh"
#include "dsa/device.hh"
#include "dsa/topology.hh"
#include "mem/mem_system.hh"
#include "sim/task.hh"

namespace dsasim
{

struct PlatformConfig
{
    std::string name;
    int numCores = 56;
    unsigned numDsaDevices = 4;
    unsigned numCbdmaDevices = 0;

    MemSystemConfig mem;
    CpuParams cpu;
    DsaParams dsa;
    CbdmaParams cbdma;

    /**
     * Group/WQ/engine layout applied to every DSA device at platform
     * construction. Leave empty() to build devices unconfigured and
     * wire them by hand (DsaTopology::apply per device).
     */
    DsaTopology dsaTopology;

    /** 4th Gen Xeon Scalable (Sapphire Rapids), the DSA platform. */
    static PlatformConfig spr();
    /** 3rd Gen Xeon Scalable (Ice Lake), the CBDMA platform. */
    static PlatformConfig icx();
};

class Platform
{
  public:
    /**
     * When $DSASIM_STATS is set (sim/stats.hh knobs) the platform
     * installs a stats::Sampler on @p s at construction and writes
     * the recorded series to <prefix><name>.csv plus the final
     * snapshot to <prefix><name>.prom at destruction. Only the first
     * platform on a simulation samples (one hook per calendar).
     */
    Platform(Simulation &s, const PlatformConfig &cfg);
    ~Platform();

    Simulation &sim() { return simulation; }
    const Simulation &sim() const { return simulation; }
    const PlatformConfig &cfg() const { return config; }

    MemSystem &mem() { return *memSys; }
    SwKernels &kernels() { return *swKernels; }

    Core &core(std::size_t i) { return *cores_.at(i); }
    std::size_t coreCount() const { return cores_.size(); }

    DsaDevice &dsa(std::size_t i) { return *dsas_.at(i); }
    const DsaDevice &dsa(std::size_t i) const { return *dsas_.at(i); }
    std::size_t dsaCount() const { return dsas_.size(); }

    /**
     * The platform-wide fault injector, built from $DSASIM_FAULTS /
     * $DSASIM_FAULT_SEED and wired to every DSA device and the IOMMU;
     * nullptr when the variable is unset (fault-free runs).
     */
    FaultInjector *injector() { return faultInjector.get(); }

    /** Install (or clear) an injector programmatically. */
    void setFaultInjector(std::unique_ptr<FaultInjector> fi);

    CbdmaDevice &cbdma(std::size_t i) { return *cbdmas_.at(i); }
    std::size_t cbdmaCount() const { return cbdmas_.size(); }

  private:
    Simulation &simulation;
    PlatformConfig config;
    std::unique_ptr<MemSystem> memSys;
    std::unique_ptr<SwKernels> swKernels;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<DsaDevice>> dsas_;
    std::vector<std::unique_ptr<CbdmaDevice>> cbdmas_;
    std::unique_ptr<FaultInjector> faultInjector;

    /** Export basename (disambiguated across instances) and the
     * deterministic-cadence registry poller; null when $DSASIM_STATS
     * is off or another platform already samples this simulation. */
    std::string statsExportStem;
    std::unique_ptr<stats::Sampler> statsSampler;
};

} // namespace dsasim

#endif // DSASIM_DRIVER_PLATFORM_HH
