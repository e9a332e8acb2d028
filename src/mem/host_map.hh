/**
 * @file
 * Host memory for the simulator's large arrays: anonymous mappings
 * that start on a 2 MiB boundary.
 *
 * `PhysicalMemory` chunks and the `CacheModel` directory come from
 * here (DESIGN.md §10, §13). A mapping arrives zero-filled from the
 * kernel, touches no page until it is used, never passes through the
 * malloc heap, and can be backed by 2 MiB pages because its start is
 * aligned to one. Whether it is depends on the advice its owner gives:
 * `adviseHugePages` at allocation (a page fault then brings in a whole
 * huge page), or `collapseHugePages` once the owner knows the array is
 * resident. Both are hints with no effect on what the memory holds.
 */

#ifndef DSASIM_MEM_HOST_MAP_HH
#define DSASIM_MEM_HOST_MAP_HH

#include <cstddef>
#include <memory>
#include <type_traits>

namespace dsasim
{

/** Host huge-page size, and the alignment of every mapping. */
inline constexpr std::size_t hostHugePageBytes = std::size_t{2} << 20;

/** Unmaps a mapHostBytes() mapping; holds its length by value. */
struct HostUnmap
{
    std::size_t bytes = 0;
    void operator()(void *p) const;
};

/** An array in its own mapping: movable, unmapped with its owner. */
template <class T>
using HostArray = std::unique_ptr<T[], HostUnmap>;

/**
 * A zero-filled anonymous mapping of @p bytes (> 0) whose start is
 * 2 MiB-aligned, with no advice given. Fatal if the host refuses it.
 */
void *mapHostBytes(std::size_t bytes);

/** mapHostBytes() sized and typed for @p n elements of @p T. */
template <class T>
HostArray<T>
mapHostArray(std::size_t n)
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "a mapping is released without running destructors");
    const std::size_t bytes = n * sizeof(T);
    return HostArray<T>(static_cast<T *>(mapHostBytes(bytes)),
                        HostUnmap{bytes});
}

/**
 * MADV_HUGEPAGE: fault [p, p+bytes) in 2 MiB at a time where the host
 * grants it (4 KiB pages where it does not).
 */
void adviseHugePages(void *p, std::size_t bytes);

/**
 * MADV_COLLAPSE: move the whole 2 MiB regions of [p, p+bytes) onto
 * huge pages now. A region whose 4 KiB pages are all resident gains
 * no RSS. Best effort: where the kernel lacks the call (before 6.1)
 * or cannot find a huge page, the range stays on 4 KiB pages.
 */
void collapseHugePages(void *p, std::size_t bytes);

} // namespace dsasim

#endif // DSASIM_MEM_HOST_MAP_HH
