/**
 * @file
 * A generic LRU translation cache, instantiated three ways:
 * the core TLB, the IOMMU's IOTLB, and each DSA device's address
 * translation cache (ATC).
 */

#ifndef DSASIM_MEM_TLB_HH
#define DSASIM_MEM_TLB_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "mem/types.hh"

namespace dsasim
{

class TranslationCache
{
  public:
    explicit TranslationCache(std::size_t num_entries)
        : capacity(num_entries)
    {}

    /**
     * Look up the page containing (@p pasid, @p va_page_base).
     * A hit refreshes the entry's recency.
     */
    bool
    lookup(Pasid pasid, Addr va_page_base)
    {
        std::uint64_t k = key(pasid, va_page_base);
        // Streaming accesses hit the same page back to back; the
        // MRU entry is already at the front, so the splice (and the
        // hash probe) can be skipped without changing LRU order.
        if (!lru.empty() && lru.front() == k) {
            ++hitCount;
            return true;
        }
        auto it = index.find(k);
        if (it == index.end()) {
            ++missCount;
            return false;
        }
        lru.splice(lru.begin(), lru, it->second);
        ++hitCount;
        return true;
    }

    /** Install a translation, evicting the LRU entry if full. */
    void
    insert(Pasid pasid, Addr va_page_base)
    {
        std::uint64_t k = key(pasid, va_page_base);
        if (!lru.empty() && lru.front() == k)
            return;
        auto it = index.find(k);
        if (it != index.end()) {
            lru.splice(lru.begin(), lru, it->second);
            return;
        }
        if (capacity == 0)
            return;
        if (lru.size() >= capacity) {
            index.erase(lru.back());
            lru.pop_back();
        }
        lru.push_front(k);
        index[k] = lru.begin();
    }

    /** Invalidate one page's entry (page-granular shootdown). */
    void
    invalidate(Pasid pasid, Addr va_page_base)
    {
        auto it = index.find(key(pasid, va_page_base));
        if (it == index.end())
            return;
        lru.erase(it->second);
        index.erase(it);
    }

    /** Full flush (e.g., on PASID teardown). */
    void
    clear()
    {
        lru.clear();
        index.clear();
    }

    std::size_t size() const { return lru.size(); }
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

    /**
     * Checkpointable (sim/checkpoint.hh): entries in exact recency
     * order (MRU first) plus the hit/miss counters — future
     * evictions depend on the full LRU ordering, not just the set.
     */
    struct State
    {
        std::vector<std::uint64_t> entriesMruFirst;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    State
    saveState() const
    {
        return State{{lru.begin(), lru.end()}, hitCount, missCount};
    }

    void
    restoreState(const State &st)
    {
        clear();
        // push_back preserves the saved order: front stays MRU.
        for (std::uint64_t k : st.entriesMruFirst) {
            lru.push_back(k);
            index[k] = std::prev(lru.end());
        }
        hitCount = st.hits;
        missCount = st.misses;
    }

  private:
    static std::uint64_t
    key(Pasid pasid, Addr va_page_base)
    {
        // The VA allocator hands out addresses below 2^40, so the
        // 4K page number fits in 28 bits and never collides with the
        // PASID field.
        return (static_cast<std::uint64_t>(pasid) << 40) |
               (va_page_base >> 12);
    }

    std::size_t capacity;
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        index;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace dsasim

#endif // DSASIM_MEM_TLB_HH
