/**
 * @file
 * DSA device calibration constants.
 *
 * Anchored to the paper's first-order observations:
 *  - single-PE / single-device streaming peak ≈ 30 GB/s (I/O fabric)
 *  - synchronous offload breaks even with a core at ≈ 4-10 KB
 *  - asynchronous offload breaks even at ≈ 256 B
 *  - ENQCMD's non-posted round trip makes one thread on an SWQ
 *    equivalent to a batch-of-1 stream (Fig. 9)
 */

#ifndef DSASIM_DSA_PARAMS_HH
#define DSASIM_DSA_PARAMS_HH

#include <cstddef>
#include <cstdint>

#include "sim/ticks.hh"

namespace dsasim
{

struct DsaParams
{
    /// @name Structural limits (per device).
    /// @{
    unsigned maxGroups = 4;
    unsigned maxEngines = 4;
    unsigned maxWqs = 8;
    unsigned wqCapacityTotal = 128; ///< WQ entries shared by all WQs
    unsigned readBuffers = 96;      ///< device read buffers (QoS, §3.4)
    std::uint64_t maxTransferSize = 1ull << 31;
    std::uint32_t maxBatchSize = 1024;
    /// @}

    /// @name Data-path rates.
    /// @{
    double engineGBps = 30.0; ///< per-PE streaming rate
    double fabricGBps = 30.0; ///< device I/O fabric, each direction
    /// @}

    /// @name Submission-instruction costs (§3.3).
    /// @{
    Tick submitMovdirCost = fromNs(40);  ///< MOVDIR64B, core side
    Tick submitFlight = fromNs(30);      ///< posted write to portal
    Tick enqcmdRoundTrip = fromNs(280);  ///< ENQCMD non-posted RTT
    /// @}

    /// @name Descriptor lifecycle latencies.
    /// @{
    Tick dispatchLatency = fromNs(100); ///< WQ head -> PE dispatch
    Tick engineSetup = fromNs(60);      ///< decode/start, per desc
    Tick descriptorGap = fromNs(120);   ///< per-desc PE occupancy floor
    Tick completionWrite = fromNs(30);
    Tick interruptLatency = fromUs(2);
    /// @}

    /// @name Batch engine (F2).
    /// @{
    Tick batchOverhead = fromNs(80);
    Tick batchPerDescriptorFetch = fromNs(10);
    /// @}

    /// @name Address translation (F1).
    /// @{
    std::size_t atcEntries = 1024;
    Tick atcHitLatency = fromNs(2);
    /** Concurrent page walks the PE pipeline can keep in flight. */
    unsigned walkParallelism = 4;
    /// @}

    /** Granule in which a PE streams data (read-buffer chunk). */
    std::uint64_t chunkBytes = 4096;

    /** Per-line cost of the Cache Flush operation. */
    Tick flushPerLine = fromNs(1.0);
};

} // namespace dsasim

#endif // DSASIM_DSA_PARAMS_HH
