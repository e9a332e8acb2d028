#include "mem/address_space.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/mem_system.hh"
#include "sim/logging.hh"

namespace dsasim
{

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

void
AddressSpace::resolveSpans(Addr va, std::uint64_t len,
                           std::vector<Span> &out, const char *what)
{
    forEachSpan(va, len, what, [&](Span s) { out.push_back(s); });
}

void
AddressSpace::resolveConstSpans(Addr va, std::uint64_t len,
                                std::vector<ConstSpan> &out,
                                const char *what) const
{
    forEachConstSpan(va, len, what,
                     [&](ConstSpan s) { out.push_back(s); });
}

std::uint8_t *
AddressSpace::contiguous(Addr va, std::uint64_t len, const char *what)
{
    if (len == 0)
        return nullptr;
    Span first = spanAt(va, len, what);
    std::uint64_t done = first.len;
    while (done < len) {
        Span s = spanAt(va + done, len - done, what);
        if (s.ptr != first.ptr + done)
            return nullptr;
        done += s.len;
    }
    return first.ptr;
}

const std::uint8_t *
AddressSpace::contiguousConst(Addr va, std::uint64_t len,
                              const char *what) const
{
    if (len == 0)
        return nullptr;
    ConstSpan first = constSpanAt(va, len, what);
    if (!first.ptr)
        return nullptr;
    std::uint64_t done = first.len;
    while (done < len) {
        ConstSpan s = constSpanAt(va + done, len - done, what);
        if (s.ptr != first.ptr + done)
            return nullptr;
        done += s.len;
    }
    return first.ptr;
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
AddressSpace::copy(Addr dst, Addr src, std::uint64_t len)
{
    if (len == 0)
        return;
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
            if (s)
                std::memmove(d, s, len);
            else
                std::memset(d, 0, len);
            return;
        }
    }
    const bool overlap = src < dst + len && dst < src + len;
    if (!overlap || dst == src) {
        // Pairwise span walk, no staging buffer. memmove covers the
        // dst == src exact-alias case.
        std::uint64_t done = 0;
        while (done < len) {
            ConstSpan s = constSpanAt(src + done, len - done, "read");
            Span d = spanAt(dst + done, s.len, "write");
            if (s.ptr)
                std::memmove(d.ptr, s.ptr, d.len);
            else
                std::memset(d.ptr, 0, d.len);
            done += d.len;
        }
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
