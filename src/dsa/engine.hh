/**
 * @file
 * Processing engine (PE): fetches descriptors from its group's
 * arbiter and executes them — translation through the device ATC and
 * IOMMU, chunked data streaming through the I/O fabric and memory
 * links, functional execution of the operation, and completion-record
 * publication. Batch descriptors are expanded and fanned back into
 * the group so that any free PE can pick the sub-descriptors up.
 */

#ifndef DSASIM_DSA_ENGINE_HH
#define DSASIM_DSA_ENGINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "dsa/group.hh"
#include "mem/address_space.hh"
#include "ops/data_plane.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace dsasim
{

class DsaDevice;

class Engine
{
  public:
    Engine(DsaDevice &device, Group &grp, int engine_id);

    /** Spawn the PE's processing loop (called by device enable). */
    void start();

    int engineId() const { return id; }

    /// @name Statistics.
    /// The data-path counters live in the telemetry registry
    /// (dsa<D>.eng<E>.*, DESIGN.md §15) and are read through the
    /// const accessors below; only engine-lifecycle bookkeeping
    /// stays as plain fields.
    /// @{
    std::uint64_t descriptorsProcessed = 0;
    std::uint64_t hangs = 0;          ///< injected engine hangs
    std::uint64_t injectedErrors = 0; ///< injected hw error statuses
    Tick busyTicks = 0;

    std::uint64_t bytesRead() const { return bytesReadCtr.value(); }
    std::uint64_t
    bytesWritten() const
    {
        return bytesWrittenCtr.value();
    }
    std::uint64_t
    pageFaults() const
    {
        return pageFaultsCtr.value();
    }
    std::uint64_t atcMisses() const { return atcMissesCtr.value(); }
    /// @}

  private:
    SimTask run();
    CoTask process(Work w);

    /**
     * The data path of one descriptor: translate, run the operation,
     * time its chunk stream. Sets @p first_lat to the first-read fill
     * latency the completion exposes (left 0 when nothing is read).
     */
    CoTask execute(const WorkDescriptor &d, OpOutcome &out,
                   Tick &first_lat);

    /** Handle a batch descriptor: fetch, fan out, join, complete. */
    CoTask processBatch(Work w);
    SimTask watchBatch(WorkDescriptor desc,
                       std::shared_ptr<BatchTracker> tracker);

    struct XlateOutcome
    {
        /**
         * Engine-blocking time: page-fault service (the PE stall of
         * §4.3 that motivates multi-PE groups).
         */
        Tick faultStall = 0;
        /**
         * Page-walk/ATC-lookup time that the PE pipeline overlaps
         * with data streaming; only exposed when it exceeds the
         * transfer time of the data it covers.
         */
        Tick walkCost = 0;
        bool faulted = false;
        Addr faultVa = 0;
        std::uint64_t okBytes = 0; ///< prefix translatable w/o fault
    };

    /**
     * Translate a VA range, honoring block-on-fault; appends each
     * page it translates to @p pages.
     */
    XlateOutcome translateRange(AddressSpace &as, Addr va,
                                std::uint64_t len, bool block_on_fault,
                                std::vector<PageTable::PageRun> &pages);

    /**
     * One stream's pages as translateRange walked them, in VA order,
     * and the cursor the chunk walk slices them with, so the walk
     * does not look each page up again (DESIGN.md §10).
     */
    struct StreamPages
    {
        std::vector<PageTable::PageRun> runs;
        std::size_t next = 0; ///< no earlier run reaches the cursor

        void
        clear()
        {
            runs.clear();
            next = 0;
        }

        /**
         * Call @p fn(const PageTable::PageRun &) on each page's part
         * of [va, va + len), as PageTable::walk would. The range lies
         * inside the translated one, at or after the previous slice.
         */
        template <typename Fn>
        void
        slice(Addr va, std::uint64_t len, Fn &&fn)
        {
            while (runs[next].va + runs[next].len <= va)
                ++next;
            for (std::size_t i = next; len > 0; ++i) {
                const PageTable::PageRun &r = runs[i];
                const std::uint64_t skip = va - r.va;
                const std::uint64_t n = std::min(len, r.len - skip);
                fn(PageTable::PageRun{va, r.pageVa, r.pa + skip, n, true});
                va += n;
                len -= n;
            }
        }
    };

    /** Effective streaming rate given the group's read buffers. */
    double effectiveRate(int src_node) const;

    DsaDevice &dev;
    Group &group;
    const int id;

    // Registry-backed data-path counters (bound in the constructor;
    // mutated only through the Counter API — simlint's
    // counter-mutation rule enforces this).
    stats::Counter &bytesReadCtr;
    stats::Counter &bytesWrittenCtr;
    stats::Counter &pageFaultsCtr;
    stats::Counter &atcMissesCtr;

    // Per-engine staging buffers for the few operations that cannot
    // run zero-copy (ops/data_plane.hh). run() awaits one process()
    // at a time, so a single set per engine is safe; grow-only reuse
    // avoids a per-descriptor allocate-and-zero.
    OpScratch scratch;

    // Per-stream page runs of the descriptor in flight, reused like
    // the scratch buffers.
    std::array<StreamPages, OpStreams::capacity> streamPages;
};

} // namespace dsasim

#endif // DSASIM_DSA_ENGINE_HH
