#include "mem/page_table.hh"

#include "sim/logging.hh"

namespace dsasim
{

void
PageTable::map(Addr va_base, Addr pa_base, std::uint64_t size,
               std::uint64_t page_size)
{
    panic_if(size == 0, "mapping of zero size at va=0x%llx",
             static_cast<unsigned long long>(va_base));
    panic_if(page_size == 0 || (page_size & (page_size - 1)) ||
                 size % page_size,
             "bad page size 0x%llx at va=0x%llx",
             static_cast<unsigned long long>(page_size),
             static_cast<unsigned long long>(va_base));
    auto next = std::lower_bound(
        regions.begin(), regions.end(), va_base,
        [](const Region &r, Addr va) { return r.vaBase < va; });
    panic_if(next != regions.end() && va_base + size > next->vaBase,
             "overlapping mapping at va=0x%llx",
             static_cast<unsigned long long>(va_base));
    panic_if(next != regions.begin() && std::prev(next)->vaEnd > va_base,
             "overlapping mapping at va=0x%llx",
             static_cast<unsigned long long>(va_base));
    // Insertion may shift the regions under the memo's indices.
    lastIdx = noMemo;
    prevIdx = noMemo;
    regions.insert(next, Region{va_base, va_base + size, pa_base,
                                page_size});
}

const PageTable::Region *
PageTable::searchRegion(Addr va) const
{
    if (regions.empty())
        return nullptr;
    // The last region with vaBase <= va (or the first region), if it
    // holds va. The trip count depends only on the region count, so
    // a random probe pays no branch mispredicts.
    const Region *r = regions.data();
    for (std::size_t n = regions.size(); n > 1; n -= n / 2)
        r = r[n / 2].vaBase <= va ? r + n / 2 : r;
    if (va - r->vaBase >= r->vaEnd - r->vaBase)
        return nullptr;
    prevIdx = lastIdx;
    lastIdx = static_cast<std::size_t>(r - regions.data());
    return r;
}

Addr
PageTable::translateOrDie(Addr va) const
{
    const std::optional<Mapping> m = lookup(va);
    panic_if(!m, "translation of unmapped va=0x%llx",
             static_cast<unsigned long long>(va));
    panic_if(!m->present, "translation of non-present va=0x%llx",
             static_cast<unsigned long long>(va));
    return m->paBase + (va - m->vaBase);
}

void
PageTable::setPresent(Addr va, bool present)
{
    const std::optional<Mapping> m = lookup(va);
    panic_if(!m, "setPresent on unmapped va=0x%llx",
             static_cast<unsigned long long>(va));
    auto it = std::lower_bound(absent.begin(), absent.end(), m->vaBase);
    const bool listed = it != absent.end() && *it == m->vaBase;
    if (present && listed)
        absent.erase(it);
    else if (!present && !listed)
        absent.insert(it, m->vaBase);
}

std::size_t
PageTable::mappingCount() const
{
    std::size_t pages = 0;
    for (const Region &r : regions)
        pages += static_cast<std::size_t>((r.vaEnd - r.vaBase) / r.pageSize);
    return pages;
}

} // namespace dsasim
