#include "mem/address_space.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/mem_system.hh"
#include "sim/logging.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dsasim
{

namespace
{

/**
 * memcpy of non-overlapping runs with streaming stores where the host
 * has them. Weakly ordered: the request ends with storeFence().
 */
void
streamCopy(std::uint8_t *d, const std::uint8_t *s, std::uint64_t n)
{
#if defined(__x86_64__)
    const auto addr = reinterpret_cast<std::uintptr_t>(d);
    const std::uint64_t head = std::min<std::uint64_t>(n, -addr & 15);
    std::memcpy(d, s, head);
    d += head;
    s += head;
    n -= head;
    auto *out = reinterpret_cast<__m128i *>(d);
    const auto *in = reinterpret_cast<const __m128i *>(s);
    for (; n >= 64; n -= 64, out += 4, in += 4) {
        const __m128i v0 = _mm_loadu_si128(in);
        const __m128i v1 = _mm_loadu_si128(in + 1);
        const __m128i v2 = _mm_loadu_si128(in + 2);
        const __m128i v3 = _mm_loadu_si128(in + 3);
        _mm_stream_si128(out, v0);
        _mm_stream_si128(out + 1, v1);
        _mm_stream_si128(out + 2, v2);
        _mm_stream_si128(out + 3, v3);
    }
    for (; n >= 16; n -= 16)
        _mm_stream_si128(out++, _mm_loadu_si128(in++));
    std::memcpy(out, in, n);
#else
    std::memcpy(d, s, n);
#endif
}

/**
 * Fill [d, d+n) with a 16-byte period starting at @p phase: byte j
 * gets @p twice[(phase + j) % 16], where @p twice holds the period
 * twice over. With @p stream, streaming stores (weakly ordered, like
 * streamCopy's); else one period, then doubling memcpys.
 */
void
periodicFill(std::uint8_t *d, const std::uint8_t *twice, unsigned phase,
             std::uint64_t n, bool stream)
{
#if defined(__x86_64__)
    if (stream) {
        const auto addr = reinterpret_cast<std::uintptr_t>(d);
        const std::uint64_t head = std::min<std::uint64_t>(n, -addr & 15);
        std::memcpy(d, twice + phase, head);
        d += head;
        n -= head;
        // Every aligned store starts at the same phase.
        phase = static_cast<unsigned>((phase + head) % 16);
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(twice + phase));
        auto *out = reinterpret_cast<__m128i *>(d);
        for (; n >= 64; n -= 64, out += 4) {
            _mm_stream_si128(out, v);
            _mm_stream_si128(out + 1, v);
            _mm_stream_si128(out + 2, v);
            _mm_stream_si128(out + 3, v);
        }
        for (; n >= 16; n -= 16)
            _mm_stream_si128(out++, v);
        std::memcpy(out, twice + phase, n);
        return;
    }
#endif
    std::uint64_t filled = std::min<std::uint64_t>(n, 16);
    std::memcpy(d, twice + phase, filled);
    // A prefix of whole periods stays periodic when copied after
    // itself.
    while (filled < n) {
        const std::uint64_t cpy = std::min(filled, n - filled);
        std::memcpy(d + filled, d, cpy);
        filled += cpy;
    }
}

/**
 * Order every streaming store before whatever follows, above all a
 * partition thread's release of the data it wrote.
 */
void
storeFence()
{
#if defined(__x86_64__)
    _mm_sfence();
#endif
}

} // namespace

AddressSpace::AddressSpace(MemSystem &ms, Pasid id)
    : mem(ms), id_(id)
{
    // Translation caches key on (PASID, page number); a wider PASID
    // would alias another space's pages.
    fatal_if(id >> pasidBits, "PASID %u exceeds the %u-bit PASID field",
             id, pasidBits);
}

Addr
AddressSpace::alloc(std::uint64_t bytes, MemKind intent,
                    PageSize page_size, int requester_socket)
{
    fatal_if(bytes == 0, "zero-sized allocation");
    const std::uint64_t page = pageBytes(page_size);
    const std::uint64_t size = (bytes + page - 1) & ~(page - 1);

    Addr va_base = (allocNext + page - 1) & ~(page - 1);
    // Translation caches key on VA >> 12 below the PASID field; a
    // region reaching past 2^vaBits would alias another space's pages.
    const Addr va_limit = Addr{1} << vaBits;
    fatal_if(va_base > va_limit || bytes > va_limit - va_base,
             "allocation of %llu bytes at va=0x%llx ends above the "
             "%u-bit virtual address space",
             static_cast<unsigned long long>(bytes),
             static_cast<unsigned long long>(va_base), vaBits);
    // Leave an unmapped guard page between regions so stray accesses
    // show up as translation panics rather than silent corruption.
    allocNext = va_base + size + page;

    int node_id = mem.nodeIdFor(intent, requester_socket);
    MemNode &n = mem.node(node_id);
    Addr pa_off = n.allocPhys(size, page);
    pt.map(va_base, MemSystem::makePa(node_id, pa_off), size, page);
    return va_base;
}

AddressSpace::Span
AddressSpace::spanAt(Addr va, std::uint64_t max_len, const char *what)
{
    const auto m = pt.lookup(va);
    panic_if(!m, "functional %s of unmapped va=0x%llx", what,
             static_cast<unsigned long long>(va));
    std::uint64_t run = std::min(max_len, m->vaBase + m->size - va);
    return {mem.pageSpan(m->paBase + (va - m->vaBase), run), run};
}

AddressSpace::ConstSpan
AddressSpace::constSpanAt(Addr va, std::uint64_t max_len,
                          const char *what) const
{
    const auto m = pt.lookup(va);
    panic_if(!m, "functional %s of unmapped va=0x%llx", what,
             static_cast<unsigned long long>(va));
    std::uint64_t run = std::min(max_len, m->vaBase + m->size - va);
    return {mem.pageSpanIfResident(m->paBase + (va - m->vaBase), run),
            run};
}

AddressSpace::Span
AddressSpace::spanRun(Addr va, std::uint64_t len, const char *what)
{
    Span run = spanAt(va, len, what);
    while (run.len < len) {
        const Span s = spanAt(va + run.len, len - run.len, what);
        if (s.ptr != run.ptr + run.len)
            break;
        run.len += s.len;
    }
    return run;
}

AddressSpace::ConstSpan
AddressSpace::constSpanRun(Addr va, std::uint64_t len,
                           const char *what) const
{
    ConstSpan run = constSpanAt(va, len, what);
    while (run.ptr && run.len < len) {
        const ConstSpan s = constSpanAt(va + run.len, len - run.len, what);
        if (s.ptr != run.ptr + run.len)
            break;
        run.len += s.len;
    }
    return run;
}

std::uint8_t *
AddressSpace::contiguous(Addr va, std::uint64_t len, const char *what)
{
    if (len == 0)
        return nullptr;
    const Span run = spanRun(va, len, what);
    return run.len == len ? run.ptr : nullptr;
}

const std::uint8_t *
AddressSpace::contiguousConst(Addr va, std::uint64_t len,
                              const char *what) const
{
    if (len == 0)
        return nullptr;
    const ConstSpan run = constSpanRun(va, len, what);
    return run.len == len ? run.ptr : nullptr;
}

void
AddressSpace::read(Addr va, void *dst, std::uint64_t len) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    // Fast path: the whole range inside one mapping — one page, which
    // never straddles a physical chunk — is a single memcpy.
    if (const auto m = pt.lookup(va);
        m && len && va - m->vaBase + len <= m->size) {
        const std::uint8_t *p =
            mem.pageSpanIfResident(m->paBase + (va - m->vaBase), len);
        if (p)
            std::memcpy(out, p, len);
        else
            std::memset(out, 0, len);
        return;
    }
    forEachConstSpan(va, len, "read", [&](ConstSpan s) {
        if (s.ptr)
            std::memcpy(out, s.ptr, s.len);
        else
            std::memset(out, 0, s.len);
        out += s.len;
    });
}

void
AddressSpace::write(Addr va, const void *src, std::uint64_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    if (len >= streamingStoreBytes) {
        forEachSpan(va, len, "write", [&](Span s) {
            streamCopy(s.ptr, in, s.len);
            in += s.len;
        });
        storeFence();
        return;
    }
    if (const auto m = pt.lookup(va);
        m && len && va - m->vaBase + len <= m->size) {
        std::memcpy(mem.pageSpan(m->paBase + (va - m->vaBase), len),
                    in, len);
        return;
    }
    forEachSpan(va, len, "write", [&](Span s) {
        std::memcpy(s.ptr, in, s.len);
        in += s.len;
    });
}

void
AddressSpace::fill(Addr va, std::uint8_t value, std::uint64_t len)
{
    if (len >= streamingStoreBytes) {
        std::uint8_t period[16];
        std::memset(period, value, sizeof period);
        fillPeriodic(va, period, len);
        return;
    }
    if (const auto m = pt.lookup(va);
        m && len && va - m->vaBase + len <= m->size) {
        std::memset(mem.pageSpan(m->paBase + (va - m->vaBase), len),
                    value, len);
        return;
    }
    forEachSpan(va, len, "fill",
                [&](Span s) { std::memset(s.ptr, value, s.len); });
}

void
AddressSpace::fillPeriodic(Addr va, const std::uint8_t (&period)[16],
                           std::uint64_t len)
{
    std::uint8_t twice[32];
    std::memcpy(twice, period, 16);
    std::memcpy(twice + 16, period, 16);
    const bool stream = len >= streamingStoreBytes;
    std::uint64_t off = 0;
    forEachSpan(va, len, "fill", [&](Span s) {
        periodicFill(s.ptr, twice, static_cast<unsigned>(off % 16), s.len,
                     stream);
        off += s.len;
    });
    if (stream)
        storeFence();
}

void
AddressSpace::copy(Addr dst, Addr src, std::uint64_t len)
{
    if (len == 0)
        return;
    const bool overlap = src < dst + len && dst < src + len;
    // Never-written sources, and dst == src, keep memset/memmove.
    const bool stream = !overlap && len >= streamingStoreBytes;
    const auto move = [stream](std::uint8_t *d, const std::uint8_t *s,
                               std::uint64_t n) {
        if (!s)
            std::memset(d, 0, n);
        else if (stream)
            streamCopy(d, s, n);
        else
            std::memmove(d, s, n);
    };
    // Fast path: each range inside one mapping — a single memmove
    // (which also covers every overlap case).
    if (const auto ms = pt.lookup(src);
        ms && src - ms->vaBase + len <= ms->size) {
        if (const auto md = pt.lookup(dst);
            md && dst - md->vaBase + len <= md->size) {
            const std::uint8_t *s = mem.pageSpanIfResident(
                ms->paBase + (src - ms->vaBase), len);
            std::uint8_t *d =
                mem.pageSpan(md->paBase + (dst - md->vaBase), len);
            move(d, s, len);
            if (stream)
                storeFence();
            return;
        }
    }
    if (!overlap || dst == src) {
        // Pairwise walk of host-contiguous runs, no staging buffer:
        // one cursor per range holds the unconsumed part of its
        // current run. memmove covers the dst == src exact-alias case.
        ConstSpan s;
        Span d;
        for (std::uint64_t done = 0; done < len;) {
            if (s.len == 0)
                s = constSpanRun(src + done, len - done, "read");
            if (d.len == 0)
                d = spanRun(dst + done, len - done, "write");
            const std::uint64_t run = std::min(s.len, d.len);
            move(d.ptr, s.ptr, run);
            if (s.ptr)
                s.ptr += run;
            s.len -= run;
            d.ptr += run;
            d.len -= run;
            done += run;
        }
        if (stream)
            storeFence();
        return;
    }
    // Overlapping ranges: when both resolve to single host spans the
    // copy is one memmove.
    if (const std::uint8_t *s = contiguousConst(src, len, "read")) {
        if (std::uint8_t *d = contiguous(dst, len, "write")) {
            std::memmove(d, s, len);
            return;
        }
    }
    // Multi-span overlap: directional chunked copy through a staging
    // buffer. Equivalent to memmove for any chunk size — each chunk
    // is fully read before any write that could clobber it.
    constexpr std::uint64_t chunk = 256 * 1024;
    std::vector<std::uint8_t> buf(std::min(len, chunk));
    const bool backward = dst > src;
    const std::uint64_t nchunks = (len + chunk - 1) / chunk;
    for (std::uint64_t c = 0; c < nchunks; ++c) {
        std::uint64_t idx = backward ? nchunks - 1 - c : c;
        std::uint64_t off = idx * chunk;
        std::uint64_t run = std::min(chunk, len - off);
        read(src + off, buf.data(), run);
        write(dst + off, buf.data(), run);
    }
}

bool
AddressSpace::equal(Addr va_a, Addr va_b, std::uint64_t len) const
{
    while (len > 0) {
        ConstSpan a = constSpanAt(va_a, len, "read");
        ConstSpan b = constSpanAt(va_b, a.len, "read");
        std::uint64_t run = b.len;
        if (a.ptr && b.ptr) {
            if (std::memcmp(a.ptr, b.ptr, run) != 0)
                return false;
        } else if (a.ptr || b.ptr) {
            // One side was never written: equal iff the other is all
            // zero over the run.
            const std::uint8_t *p = a.ptr ? a.ptr : b.ptr;
            for (std::uint64_t i = 0; i < run; ++i) {
                if (p[i])
                    return false;
            }
        }
        va_a += run;
        va_b += run;
        len -= run;
    }
    return true;
}

std::uint8_t
AddressSpace::byteAt(Addr va) const
{
    std::uint8_t v = 0;
    read(va, &v, 1);
    return v;
}

} // namespace dsasim
