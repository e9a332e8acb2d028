#include "mem/phys_mem.hh"

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"

namespace dsasim
{

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
        Chunk chunk = mapHostArray<std::uint8_t>(chunkSize);
        adviseHugePages(chunk.get(), chunkSize);
        it = chunks.emplace(idx, std::move(chunk)).first;
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
