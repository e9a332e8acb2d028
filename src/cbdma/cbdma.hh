/**
 * @file
 * CBDMA (Crystal Beach DMA), the I/OAT-descended copy engine of Ice
 * Lake Xeons — the paper's generational baseline (§2, Table 2).
 *
 * Compared with DSA it is deliberately restricted, mirroring the
 * limitations the paper lists:
 *  - channels instead of groups/WQs/PEs (one client per channel),
 *  - memcpy/fill only,
 *  - physical addressing: buffers must be pinned (translated up
 *    front); there is no SVM/ATC and no page-fault handling,
 *  - ring-doorbell submission with chipset-heritage overheads,
 *  - roughly 1/2.1 of DSA's streaming throughput.
 */

#ifndef DSASIM_CBDMA_CBDMA_HH
#define DSASIM_CBDMA_CBDMA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dsa/descriptor.hh" // reuse CompletionRecord
#include "mem/address_space.hh"
#include "mem/mem_system.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace dsasim
{

struct CbdmaParams
{
    unsigned channels = 16;       ///< ICX: 16 channels
    unsigned ringEntries = 64;    ///< descriptor ring per channel
    double channelGBps = 14.3;    ///< ~ DSA / 2.1
    Tick doorbellCost = fromNs(150);   ///< MMIO doorbell write
    Tick descriptorFetch = fromNs(250);///< ring fetch round trip
    Tick descriptorGap = fromNs(250);  ///< per-descriptor floor
    Tick completionWrite = fromNs(50);
    std::uint64_t chunkBytes = 4096;
};

/** A pinned physical scatter segment (CBDMA has no SVM). */
struct CbdmaDescriptor
{
    enum class Op { Copy, Fill };

    Op op = Op::Copy;
    Addr srcPa = 0;
    Addr dstPa = 0;
    std::uint64_t size = 0;
    std::uint64_t pattern = 0;
    CompletionRecord *completion = nullptr;
};

class CbdmaDevice
{
  public:
    CbdmaDevice(Simulation &s, MemSystem &ms, const CbdmaParams &p,
                int device_id, int socket_id = 0);

    const CbdmaParams &params() const { return cfg; }
    unsigned channelCount() const { return cfg.channels; }

    /**
     * Pin helper: translate a VA range page-by-page and fail (fatal)
     * on any non-present page — the memory-pinning requirement that
     * limited CBDMA adoption (§2).
     */
    static std::vector<std::pair<Addr, std::uint64_t>>
    pinRange(AddressSpace &as, Addr va, std::uint64_t len);

    /**
     * Post a descriptor on @p channel. Returns false if the ring is
     * full. The caller pays the doorbell cost separately (core-side).
     */
    bool post(unsigned channel, const CbdmaDescriptor &d);

    std::size_t ringOccupancy(unsigned channel) const;

    std::uint64_t descriptorsProcessed = 0;
    std::uint64_t bytesCopied = 0;

  private:
    SimTask channelLoop(unsigned channel);

    struct Channel
    {
        explicit Channel(Simulation &s) : pending(s, 0) {}
        std::deque<CbdmaDescriptor> ring;
        Semaphore pending;
    };

    Simulation &sim;
    MemSystem &mem;
    CbdmaParams cfg;
    const int id;
    const int socketId;
    std::vector<std::unique_ptr<Channel>> chans;
};

} // namespace dsasim

#endif // DSASIM_CBDMA_CBDMA_HH
