#include "mem/page_table.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dsasim
{

void
PageTable::map(Addr va_base, Addr pa_base, std::uint64_t size)
{
    panic_if(size == 0, "mapping of zero size at va=0x%llx",
             static_cast<unsigned long long>(va_base));
    auto next = std::lower_bound(
        table.begin(), table.end(), va_base,
        [](const Mapping &m, Addr va) { return m.vaBase < va; });
    if (next != table.end()) {
        panic_if(va_base + size > next->vaBase,
                 "overlapping mapping at va=0x%llx",
                 static_cast<unsigned long long>(va_base));
    }
    if (next != table.begin()) {
        auto prev = std::prev(next);
        panic_if(prev->vaBase + prev->size > va_base,
                 "overlapping mapping at va=0x%llx",
                 static_cast<unsigned long long>(va_base));
    }
    // Insertion may shift or reallocate the table; drop the cache
    // (and with it any outstanding find() pointers).
    lastIdx = noCache;
    prevIdx = noCache;
    const bool append = next == table.end();
    table.insert(next, Mapping{va_base, pa_base, size, true});
    if (append)
        extendRuns(table.size() - 1);
    else
        rebuildRuns();
}

void
PageTable::extendRuns(std::size_t idx)
{
    const Mapping &m = table[idx];
    if (!runs.empty() && runs.back().vaEnd == m.vaBase &&
        runs.back().pageSize == m.size)
        runs.back().vaEnd += m.size;
    else
        runs.push_back({m.vaBase, m.vaBase + m.size, m.size, idx});
}

void
PageTable::rebuildRuns()
{
    runs.clear();
    for (std::size_t i = 0; i < table.size(); ++i)
        extendRuns(i);
}

const PageTable::Mapping *
PageTable::findSlow(Addr va) const
{
    // The last run with vaBase <= va, if it reaches va.
    const Run *first = runs.data();
    const Run *after = std::upper_bound(
        first, first + runs.size(), va,
        [](Addr v, const Run &r) { return v < r.vaBase; });
    if (after == first)
        return nullptr;
    const Run &r = after[-1];
    if (va >= r.vaEnd)
        return nullptr;
    const std::size_t idx =
        r.first + static_cast<std::size_t>((va - r.vaBase) / r.pageSize);
    prevIdx = lastIdx;
    lastIdx = idx;
    return &table[idx];
}

Addr
PageTable::translateOrDie(Addr va) const
{
    const Mapping *m = find(va);
    panic_if(!m, "translation of unmapped va=0x%llx",
             static_cast<unsigned long long>(va));
    panic_if(!m->present, "translation of non-present va=0x%llx",
             static_cast<unsigned long long>(va));
    return m->paBase + (va - m->vaBase);
}

void
PageTable::setPresent(Addr va, bool present)
{
    // find() shares the bounds logic; the present bit is flipped in
    // place, so cached find() pointers observe it immediately.
    const Mapping *m = find(va);
    panic_if(!m, "setPresent on unmapped va=0x%llx",
             static_cast<unsigned long long>(va));
    const_cast<Mapping *>(m)->present = present;
}

} // namespace dsasim
