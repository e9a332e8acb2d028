#include "mem/phys_mem.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"

namespace dsasim
{

namespace
{

constexpr std::uint64_t kChunkSize = PhysicalMemory::chunkSize;

/**
 * A zero-filled chunk in its own 2 MiB-aligned anonymous mapping.
 * Over-mapping by one chunk and trimming both ends gives the
 * alignment a huge page needs; the MADV_HUGEPAGE advice is only a
 * hint, and where the kernel declines it the chunk is backed by 4 KiB
 * pages instead.
 */
std::uint8_t *
mapChunk()
{
    const std::uint64_t span = 2 * kChunkSize;
    void *raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(raw == MAP_FAILED,
             "PhysicalMemory: cannot map a %llu-byte chunk",
             static_cast<unsigned long long>(kChunkSize));
    auto *base = static_cast<std::uint8_t *>(raw);
    const std::uint64_t head =
        (kChunkSize - reinterpret_cast<std::uintptr_t>(base) % kChunkSize) %
        kChunkSize;
    std::uint8_t *chunk = base + head;
    if (head > 0)
        munmap(base, head);
    munmap(chunk + kChunkSize, span - head - kChunkSize);
#ifdef MADV_HUGEPAGE
    madvise(chunk, kChunkSize, MADV_HUGEPAGE);
#endif
    return chunk;
}

} // namespace

void
PhysicalMemory::Unmap::operator()(std::uint8_t *chunk) const
{
    munmap(chunk, kChunkSize);
}

std::uint8_t *
PhysicalMemory::chunkFor(Addr pa)
{
    panic_if(pa >= capacity, "physical access beyond capacity "
             "(pa=0x%llx cap=0x%llx)",
             static_cast<unsigned long long>(pa),
             static_cast<unsigned long long>(capacity));
    std::uint64_t idx = pa >> chunkShift;
    if (std::uint8_t *c = cachedFor(idx))
        return c;
    auto it = chunks.find(idx);
    if (it == chunks.end()) {
        // A fresh mapping: untouched memory reads as zero.
        it = chunks.emplace(idx, Chunk(mapChunk())).first;
    }
    cacheInsert(idx, it->second.get());
    return cachedChunk;
}

const std::uint8_t *
PhysicalMemory::chunkForConst(Addr pa) const
{
    panic_if(pa >= capacity, "physical access beyond capacity "
             "(pa=0x%llx cap=0x%llx)",
             static_cast<unsigned long long>(pa),
             static_cast<unsigned long long>(capacity));
    std::uint64_t idx = pa >> chunkShift;
    if (const std::uint8_t *c = cachedFor(idx))
        return c;
    auto it = chunks.find(idx);
    if (it == chunks.end()) {
        // Not materialized; don't cache the miss — a later chunkFor
        // on this index must still materialize it.
        return nullptr;
    }
    cacheInsert(idx, it->second.get());
    return it->second.get();
}

void
PhysicalMemory::read(Addr pa, void *dst, std::uint64_t len) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        std::uint64_t off = pa & chunkMask;
        std::uint64_t run = std::min(len, chunkSize - off);
        const std::uint8_t *c = chunkForConst(pa);
        if (c) {
            std::memcpy(out, c + off, run);
        } else {
            // Untouched memory reads as zero without materializing.
            std::memset(out, 0, run);
        }
        pa += run;
        out += run;
        len -= run;
    }
}

void
PhysicalMemory::write(Addr pa, const void *src, std::uint64_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        std::uint64_t off = pa & chunkMask;
        std::uint64_t run = std::min(len, chunkSize - off);
        std::memcpy(chunkFor(pa) + off, in, run);
        pa += run;
        in += run;
        len -= run;
    }
}

void
PhysicalMemory::fill(Addr pa, std::uint8_t value, std::uint64_t len)
{
    while (len > 0) {
        std::uint64_t off = pa & chunkMask;
        std::uint64_t run = std::min(len, chunkSize - off);
        std::memset(chunkFor(pa) + off, value, run);
        pa += run;
        len -= run;
    }
}

} // namespace dsasim
