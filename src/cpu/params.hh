/**
 * @file
 * Calibration constants for the CPU core cost model.
 *
 * The per-line costs encode single-core streaming rates (they fold
 * together issue width, load/store buffers, and MLP): e.g., a cold
 * DRAM-to-DRAM glibc memcpy costs (readDramLocal + writeDramLocal +
 * rfoReadFactor) per 64B line, which lands near the ~11 GB/s a single
 * Sapphire Rapids core sustains. LLC-resident copies run at
 * ~20 GB/s. These anchors, together with the DSA-side constants,
 * produce the crossover points the paper reports (sync ≈ 4-10 KB,
 * async ≈ 256 B).
 */

#ifndef DSASIM_CPU_PARAMS_HH
#define DSASIM_CPU_PARAMS_HH

#include <cstddef>

#include "sim/ticks.hh"

namespace dsasim
{

struct CpuParams
{
    double freqGHz = 2.0;

    /** Fixed cost of entering a mem* / ISA-L style routine. */
    Tick callOverhead = fromNs(10);

    /// @name Per-64B-line streaming read cost by data location.
    /// @{
    Tick readLlcHit = fromNs(1.6);
    Tick readDramLocal = fromNs(3.6);
    Tick readDramRemote = fromNs(5.2);
    Tick readCxl = fromNs(7.7);
    /// @}

    /// @name Per-line allocating-write cost (RFO + later writeback).
    /// @{
    Tick writeLlcHit = fromNs(1.5);
    Tick writeDramLocal = fromNs(3.2);
    Tick writeDramRemote = fromNs(4.5);
    Tick writeCxl = fromNs(9.0); ///< CXL write latency > read latency
    /// @}

    /** Per-line non-temporal store cost (no RFO, no allocation). */
    Tick writeNtLine = fromNs(2.9);

    /**
     * A write-allocate miss additionally *reads* the line from
     * memory (the RFO), scaled by this factor — the hidden 3x traffic
     * of core-driven copies the paper's motivation cites.
     */
    double rfoReadFactor = 1.0;

    /// @name Compute cost per byte, on top of data movement.
    /// @{
    double crcNsPerByte = 0.033;  ///< ISA-L PCLMUL-based CRC32
    double cmpNsPerByte = 0.004;  ///< vectorized compare
    double difNsPerByte = 0.060;  ///< ISA-L DIF generate/verify
    double deltaNsPerByte = 0.050;
    /// @}

    /** clflushopt-style per-line flush cost. */
    Tick flushPerLine = fromNs(1.2);

    /** First-level TLB reach and walk cost. */
    std::size_t tlbEntries = 1536;
    Tick tlbWalk = fromNs(60);

    /** UMWAIT exit-to-C0 latency. */
    Tick umwaitWake = fromNs(100);

    Tick
    cyclesToTicks(double cycles) const
    {
        return fromNs(cycles / freqGHz);
    }

    double
    ticksToCycles(Tick t) const
    {
        return toNs(t) * freqGHz;
    }
};

} // namespace dsasim

#endif // DSASIM_CPU_PARAMS_HH
