#include "mem/host_map.hh"

#include <sys/mman.h>
// glibc's <sys/mman.h> (2.36) does not define MADV_COLLAPSE; the
// kernel header does.
#include <linux/mman.h>

#include <cstdint>

#include "sim/logging.hh"

namespace dsasim
{

void
HostUnmap::operator()(void *p) const
{
    munmap(p, bytes);
}

/**
 * Over-mapping by one huge page and trimming both ends gives the
 * alignment; no page of the result is touched.
 */
void *
mapHostBytes(std::size_t bytes)
{
    constexpr std::size_t align = hostHugePageBytes;
    constexpr std::size_t page = 4096;
    const std::size_t mapped = (bytes + page - 1) / page * page;
    const std::size_t span = mapped + align;
    void *raw = bytes == 0 ? MAP_FAILED
                           : mmap(nullptr, span, PROT_READ | PROT_WRITE,
                                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    fatal_if(raw == MAP_FAILED, "cannot map %llu bytes of host memory",
             static_cast<unsigned long long>(bytes));
    auto *base = static_cast<std::uint8_t *>(raw);
    const std::size_t head =
        (align - reinterpret_cast<std::uintptr_t>(base) % align) % align;
    std::uint8_t *p = base + head;
    if (head > 0)
        munmap(base, head);
    if (span - head > mapped)
        munmap(p + mapped, span - head - mapped);
    return p;
}

void
adviseHugePages(void *p, std::size_t bytes)
{
#ifdef MADV_HUGEPAGE
    madvise(p, bytes, MADV_HUGEPAGE);
#endif
}

void
collapseHugePages(void *p, std::size_t bytes)
{
#ifdef MADV_COLLAPSE
    madvise(p, bytes, MADV_COLLAPSE);
#endif
}

} // namespace dsasim
