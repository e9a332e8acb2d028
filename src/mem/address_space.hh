/**
 * @file
 * AddressSpace: a simulated process's virtual address space.
 *
 * Provides an mmap-like allocator over the memory nodes (choice of
 * tier and page size), the PASID identity used for SVM offload, and
 * functional byte access used by workloads and by the device models.
 *
 * Functional access resolves VA ranges to *spans* — direct host
 * pointers into the physical backing store — so data operations run
 * zero-copy instead of bouncing through scratch buffers. Span
 * contract:
 *
 *  - A span never crosses a page or a 2 MiB backing-chunk boundary
 *    before merging; adjacent per-page spans are merged when their
 *    host pointers are contiguous, so contiguous allocations usually
 *    resolve to a single span per 2 MiB.
 *  - Span pointers are stable until the AddressSpace is destroyed:
 *    backing chunks are never freed or moved. Mappings installed by
 *    a later alloc() do not move existing backing either; only the
 *    page-table *lookup* structures are invalidated by map().
 *  - A ConstSpan with ptr == nullptr denotes memory that was never
 *    written: it reads as zeroes and resolving it does not
 *    materialize backing (sparse reads stay sparse).
 *  - The present bit (evictPage) is a *device-visible* attribute:
 *    functional host access ignores it, matching the pre-span
 *    behavior of read()/write().
 */

#ifndef DSASIM_MEM_ADDRESS_SPACE_HH
#define DSASIM_MEM_ADDRESS_SPACE_HH

#include <cstdint>

#include "mem/page_table.hh"
#include "mem/types.hh"

namespace dsasim
{

class MemSystem;

class AddressSpace
{
  public:
    AddressSpace(MemSystem &ms, Pasid id);

    Pasid pasid() const { return id_; }
    PageTable &pageTable() { return pt; }
    const PageTable &pageTable() const { return pt; }

    /**
     * Allocate @p bytes backed by @p intent memory with @p page_size
     * pages. Returns the starting VA (always page-aligned).
     */
    Addr alloc(std::uint64_t bytes, MemKind intent = MemKind::DramLocal,
               PageSize page_size = PageSize::Size4K,
               int requester_socket = 0);

    /// @name Zero-copy span resolution.
    /// @{

    /** A writable run of host memory backing a VA range. */
    struct Span
    {
        std::uint8_t *ptr = nullptr;
        std::uint64_t len = 0;
    };

    /**
     * A readable run. ptr == nullptr means the backing was never
     * written: the whole run reads as zeroes.
     */
    struct ConstSpan
    {
        const std::uint8_t *ptr = nullptr;
        std::uint64_t len = 0;
    };

    /**
     * Invoke @p fn(Span) over maximal host-contiguous runs covering
     * [va, va+len). Materializes backing. @p what names the
     * operation in the unmapped-VA panic.
     */
    template <typename Fn>
    void
    forEachSpan(Addr va, std::uint64_t len, const char *what, Fn &&fn)
    {
        while (len > 0) {
            const Span s = spanRun(va, len, what);
            fn(s);
            va += s.len;
            len -= s.len;
        }
    }

    /**
     * Read-only counterpart; adjacent never-written runs merge into
     * one nullptr span.
     */
    template <typename Fn>
    void
    forEachConstSpan(Addr va, std::uint64_t len, const char *what,
                     Fn &&fn) const
    {
        ConstSpan pend;
        bool has = false;
        while (len > 0) {
            ConstSpan s = constSpanAt(va, len, what);
            const bool joins =
                has && (s.ptr ? s.ptr == pend.ptr + pend.len
                              : pend.ptr == nullptr);
            if (joins) {
                pend.len += s.len;
            } else {
                if (has)
                    fn(pend);
                pend = s;
                has = true;
            }
            va += s.len;
            len -= s.len;
        }
        if (has)
            fn(pend);
    }

    /**
     * The longest host-contiguous run at the front of [va, va+len)
     * (materializing backing): forEachSpan's first span, for callers
     * that walk a range as a cursor. len must be > 0.
     */
    Span spanRun(Addr va, std::uint64_t len,
                 const char *what = "access");

    /**
     * Read-only variant. A never-written first page is returned alone
     * as a nullptr span; a written run stops at the first page that
     * does not continue it.
     */
    ConstSpan constSpanRun(Addr va, std::uint64_t len,
                           const char *what = "access") const;

    /**
     * Host pointer iff [va, va+len) resolves to one contiguous span
     * (materializing backing), else nullptr. len == 0 yields
     * nullptr.
     */
    std::uint8_t *contiguous(Addr va, std::uint64_t len,
                             const char *what = "access");

    /**
     * Read-only variant; also nullptr when any page in the range was
     * never written (callers fall back to the span walk).
     */
    const std::uint8_t *contiguousConst(Addr va, std::uint64_t len,
                                        const char *what = "access")
        const;
    /// @}

    /// @name Functional access by virtual address (no timing).
    /// @{

    /**
     * A write(), a fill() or fillPeriodic(), or a copy() between
     * ranges that do not overlap, of at least this many bytes stores
     * with non-temporal (streaming) stores where the host has them:
     * a destination that large is not read again soon, so caching it
     * would only evict useful lines, and skipping the
     * read-for-ownership saves a read per line. The choice follows
     * the request's length, so it never reaches a result. Each such
     * call ends with a store fence.
     */
    static constexpr std::uint64_t streamingStoreBytes = 256 * 1024;

    void read(Addr va, void *dst, std::uint64_t len) const;
    void write(Addr va, const void *src, std::uint64_t len);
    void fill(Addr va, std::uint8_t value, std::uint64_t len);

    /**
     * Fill [va, va+len) with a 16-byte period: byte i gets
     * @p period[i % 16]. An 8-byte pattern is one repeated twice.
     */
    void fillPeriodic(Addr va, const std::uint8_t (&period)[16],
                      std::uint64_t len);

    /**
     * Copy [src, src+len) over [dst, dst+len) with memmove
     * semantics (overlap-safe in either direction), zero-copy.
     */
    void copy(Addr dst, Addr src, std::uint64_t len);

    bool equal(Addr va_a, Addr va_b, std::uint64_t len) const;
    std::uint8_t byteAt(Addr va) const;
    /// @}

    /** Functional VA -> PA (page must be mapped and present). */
    Addr translate(Addr va) const { return pt.translateOrDie(va); }

    /**
     * Evict the page holding @p va (clears the present bit), forcing
     * the next device access to take the page-fault path.
     */
    void evictPage(Addr va) { pt.setPresent(va, false); }
    void restorePage(Addr va) { pt.setPresent(va, true); }

  private:
    /** One page-bounded writable span starting at @p va. */
    Span spanAt(Addr va, std::uint64_t max_len, const char *what);
    /** One page-bounded readable span (nullptr when never written). */
    ConstSpan constSpanAt(Addr va, std::uint64_t max_len,
                          const char *what) const;

    MemSystem &mem;
    Pasid id_;
    PageTable pt;
    Addr allocNext = 0x100000000ull; // keep low VAs obviously invalid
};

} // namespace dsasim

#endif // DSASIM_MEM_ADDRESS_SPACE_HH
