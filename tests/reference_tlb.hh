/**
 * @file
 * ReferenceTlb: a deliberately plain LRU translation cache, the oracle
 * the differential fuzz in test_mem.cc checks TranslationCache
 * against.
 *
 * It shares no storage with TranslationCache, only its State (so the
 * two can be compared) and the documented key packing, PASID above the 4 KiB page number. The
 * recency order is a std::list (MRU at the front), the index a
 * std::unordered_map from key to list position:
 *
 *   - a lookup hit moves the entry to the front;
 *   - an insert of a present key moves it to the front, of an absent
 *     key evicts the back entry when full and pushes to the front;
 *   - a cache of capacity 0 never holds anything;
 *   - invalidate drops one entry, clear drops them all; neither
 *     touches the hit/miss counters.
 */

#ifndef DSASIM_TESTS_REFERENCE_TLB_HH
#define DSASIM_TESTS_REFERENCE_TLB_HH

#include <cstdint>
#include <iterator>
#include <list>
#include <unordered_map>

#include "mem/tlb.hh"
#include "mem/types.hh"

namespace dsasim
{

class ReferenceTlb
{
  public:
    explicit ReferenceTlb(std::size_t num_entries) : capacity(num_entries)
    {
    }

    bool
    lookup(Pasid pasid, Addr va_page_base)
    {
        auto it = index.find(key(pasid, va_page_base));
        if (it == index.end()) {
            ++missCount;
            return false;
        }
        lru.splice(lru.begin(), lru, it->second);
        ++hitCount;
        return true;
    }

    void
    insert(Pasid pasid, Addr va_page_base)
    {
        std::uint64_t k = key(pasid, va_page_base);
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

    void
    invalidate(Pasid pasid, Addr va_page_base)
    {
        auto it = index.find(key(pasid, va_page_base));
        if (it == index.end())
            return;
        lru.erase(it->second);
        index.erase(it);
    }

    void
    clear()
    {
        lru.clear();
        index.clear();
    }

    std::size_t size() const { return lru.size(); }
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

    TranslationCache::State
    saveState() const
    {
        return {{lru.begin(), lru.end()}, hitCount, missCount};
    }

  private:
    static std::uint64_t
    key(Pasid pasid, Addr va_page_base)
    {
        return (static_cast<std::uint64_t>(pasid) << vaBits) |
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

#endif // DSASIM_TESTS_REFERENCE_TLB_HH
