/**
 * @file
 * A generic LRU translation cache, instantiated three ways:
 * the core TLB, the IOMMU's IOTLB, and each DSA device's address
 * translation cache (ATC).
 *
 * Storage is flat (DESIGN.md §10): a dense slot array whose slots
 * carry their key and the 32-bit prev/next links of an intrusive
 * recency list (MRU at the head, the victim at the tail), and a
 * power-of-two, linearly probed index from key to slot, at most half
 * full, that deletes by backward shift (no tombstones). Both grow
 * with occupancy, doubling up to the capacity, so an idle cache
 * costs nothing; once full, a miss-evict-insert cycle reuses the
 * victim's slot and allocates nothing.
 */

#ifndef DSASIM_MEM_TLB_HH
#define DSASIM_MEM_TLB_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "mem/types.hh"
#include "sim/logging.hh"

namespace dsasim
{

class TranslationCache
{
  public:
    explicit TranslationCache(std::size_t num_entries)
        : capacity(num_entries)
    {
        fatal_if(num_entries >= none,
                 "TranslationCache: %zu entries exceed 32-bit slots",
                 num_entries);
    }

    /**
     * Look up the page containing (@p pasid, @p va_page_base).
     * A hit refreshes the entry's recency.
     */
    bool
    lookup(Pasid pasid, Addr va_page_base)
    {
        std::uint64_t k = key(pasid, va_page_base);
        // Streaming accesses hit the same page back to back; the
        // MRU entry is already at the head, so the relink (and the
        // index probe) can be skipped without changing LRU order.
        if (head != none && slots[head].key == k) {
            ++hitCount;
            return true;
        }
        if (index.empty()) {
            ++missCount;
            return false;
        }
        const std::size_t b = bucket(k);
        if (index[b] == none) {
            // Remember where k would go: the insert that usually
            // follows a miss then skips its probe.
            missKey = k;
            missBucket = b;
            ++missCount;
            return false;
        }
        touch(index[b]);
        ++hitCount;
        return true;
    }

    /** Install a translation, evicting the LRU entry if full. */
    void
    insert(Pasid pasid, Addr va_page_base)
    {
        std::uint64_t k = key(pasid, va_page_base);
        // The bucket ending k's probe run, once k is known absent.
        std::size_t b = noBucket;
        if (k == missKey) {
            b = missBucket;
        } else {
            if (head != none && slots[head].key == k)
                return;
            if (!index.empty()) {
                b = bucket(k);
                if (index[b] != none) {
                    touch(index[b]);
                    return;
                }
            }
        }
        missKey = noKey;
        if (capacity == 0)
            return;
        std::uint32_t s;
        if (slots.size() >= capacity) {
            // Reuse the victim's slot in place. Erasing the victim
            // empties one bucket; if that bucket lies on k's probe
            // run, ahead of b, k belongs there instead.
            s = tail;
            const std::size_t hole = erase(bucket(slots[s].key));
            const std::size_t mask = index.size() - 1;
            const std::size_t h = home(k);
            if (((hole - h) & mask) < ((b - h) & mask))
                b = hole;
            unlink(s);
            slots[s].key = k;
        } else {
            s = append(k);
        }
        pushFront(s);
        indexInsert(s, b);
    }

    /** Invalidate one page's entry (page-granular shootdown). */
    void
    invalidate(Pasid pasid, Addr va_page_base)
    {
        missKey = noKey;
        if (index.empty())
            return;
        const std::size_t b = bucket(key(pasid, va_page_base));
        const std::uint32_t s = index[b];
        if (s == none)
            return;
        erase(b);
        unlink(s);
        // Keep the slots dense: the last slot moves into the hole.
        const auto last = static_cast<std::uint32_t>(slots.size() - 1);
        if (s != last) {
            const Slot moved = slots[last];
            slots[s] = moved;
            if (moved.prev != none)
                slots[moved.prev].next = s;
            else
                head = s;
            if (moved.next != none)
                slots[moved.next].prev = s;
            else
                tail = s;
            index[bucket(moved.key)] = s;
        }
        slots.pop_back();
    }

    /** Full flush (e.g., on PASID teardown). */
    void
    clear()
    {
        missKey = noKey;
        slots.clear();
        std::fill(index.begin(), index.end(), none);
        head = tail = none;
    }

    std::size_t size() const { return slots.size(); }
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

    /**
     * Read-only view of the full state: entries in exact recency
     * order (MRU first) plus the hit/miss counters. Future evictions
     * depend on the whole LRU order, so the reference-model tests
     * compare this, not just the set of keys.
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
        State st{{}, hitCount, missCount};
        st.entriesMruFirst.reserve(slots.size());
        for (std::uint32_t s = head; s != none; s = slots[s].next)
            st.entriesMruFirst.push_back(slots[s].key);
        return st;
    }

  private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};
    static constexpr std::size_t noBucket = ~std::size_t{0};
    /** No key: PASID and page number together use 60 of 64 bits. */
    static constexpr std::uint64_t noKey = ~std::uint64_t{0};

    /** One cached translation and its recency-list links. */
    struct Slot
    {
        std::uint64_t key;
        std::uint32_t prev;
        std::uint32_t next;
    };

    static std::uint64_t
    key(Pasid pasid, Addr va_page_base)
    {
        // AddressSpace keeps VAs below 2^vaBits and PASIDs below
        // 2^pasidBits, so the 4K page number fits in 28 bits and
        // never collides with the PASID field.
        return (static_cast<std::uint64_t>(pasid) << vaBits) |
               (va_page_base >> 12);
    }

    /** Home bucket of @p k: Fibonacci hashing onto the index. */
    std::size_t
    home(std::uint64_t k) const
    {
        return static_cast<std::size_t>(
            (k * 0x9e3779b97f4a7c15ull) >> indexShift);
    }

    /** Bucket holding @p k, else the empty one ending its probe run. */
    std::size_t
    bucket(std::uint64_t k) const
    {
        const std::size_t mask = index.size() - 1;
        std::size_t i = home(k);
        while (index[i] != none && slots[index[i]].key != k)
            i = (i + 1) & mask;
        return i;
    }

    /**
     * Index slot @p s, whose key is absent, doubling past 1/2 full;
     * @p b, when known, is the bucket ending the key's probe run.
     */
    void
    indexInsert(std::uint32_t s, std::size_t b)
    {
        if (2 * slots.size() > index.size()) {
            growIndex(); // the rehash places s too
            return;
        }
        index[b == noBucket ? bucket(slots[s].key) : b] = s;
    }

    /**
     * Empty bucket @p hole, shifting its probe run back over it.
     * Returns the bucket left empty.
     */
    std::size_t
    erase(std::size_t hole)
    {
        const std::size_t mask = index.size() - 1;
        for (std::size_t j = (hole + 1) & mask; index[j] != none;
             j = (j + 1) & mask) {
            // An entry may fill the hole only if its home bucket does
            // not lie cyclically in (hole, j].
            const std::size_t h = home(slots[index[j]].key);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                index[hole] = index[j];
                hole = j;
            }
        }
        index[hole] = none;
        return hole;
    }

    void
    growIndex()
    {
        const std::size_t n = index.empty() ? 16 : 2 * index.size();
        index.assign(n, none);
        indexShift = 64 - static_cast<unsigned>(std::countr_zero(n));
        for (std::uint32_t s = 0; s < slots.size(); ++s)
            index[bucket(slots[s].key)] = s;
    }

    /** New unlinked slot for @p k; storage doubles up to capacity. */
    std::uint32_t
    append(std::uint64_t k)
    {
        if (slots.size() == slots.capacity())
            slots.reserve(
                std::min(capacity, std::max<std::size_t>(8, 2 * slots.size())));
        slots.push_back({k, none, none});
        return static_cast<std::uint32_t>(slots.size() - 1);
    }

    void
    unlink(std::uint32_t s)
    {
        const Slot &e = slots[s];
        if (e.prev != none)
            slots[e.prev].next = e.next;
        else
            head = e.next;
        if (e.next != none)
            slots[e.next].prev = e.prev;
        else
            tail = e.prev;
    }

    void
    pushFront(std::uint32_t s)
    {
        slots[s].prev = none;
        slots[s].next = head;
        if (head != none)
            slots[head].prev = s;
        else
            tail = s;
        head = s;
    }

    /** Move @p s (not already the head) to the MRU position. */
    void
    touch(std::uint32_t s)
    {
        if (s == head)
            return;
        unlink(s);
        pushFront(s);
    }

    std::size_t capacity;
    std::vector<Slot> slots;
    /** Slot number per bucket, or none; size 0 or a power of two. */
    std::vector<std::uint32_t> index;
    unsigned indexShift = 64;
    std::uint32_t head = none;
    std::uint32_t tail = none;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    /** The key of the last lookup miss, noKey once the index changed. */
    std::uint64_t missKey = noKey;
    /** The bucket that ended missKey's probe run. */
    std::size_t missBucket = noBucket;
};

} // namespace dsasim

#endif // DSASIM_MEM_TLB_HH
