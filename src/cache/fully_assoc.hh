/**
 * @file
 * Fully associative cache with exact LRU replacement.
 *
 * Models the same cache as SetAssocCache(1, entries) -- identical
 * hit/miss results, evicted and written-back keys, and counters for
 * every call sequence -- without its per-probe scan over all ways
 * and per-fill argmin over LRU timestamps.  Each way sits on two
 * intrusive lists: a hash chain hung off a bucket array (at least
 * two buckets per way, so chains average under one way) and a doubly
 * linked recency list.  A hit is one chain walk plus a list splice;
 * the victim is the recency-list tail.
 *
 * Invalid ways always sit at the LRU end of the recency list (a fill
 * takes the tail and moves it to the front; invalidate moves the line
 * to the tail), so the tail is a free way whenever one exists and the
 * LRU valid line otherwise -- the same victim SetAssocCache's argmin
 * picks, up to way position, which no caller can observe.
 *
 * Used where a large fully associative structure is probed on every
 * miss: the shared last-level TLB's stealth-version extension and the
 * version-update write-combining buffer (Section 4.4).
 */

#ifndef TOLEO_CACHE_FULLY_ASSOC_HH
#define TOLEO_CACHE_FULLY_ASSOC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/set_assoc.hh"

namespace toleo {

class FullyAssocCache
{
  public:
    /** @param entries Number of lines (fatal if zero). */
    explicit FullyAssocCache(unsigned entries);

    /**
     * Access a key; allocates on miss (evicting the LRU line),
     * promotes on hit.
     * @param is_write Marks the line dirty on hit or fill.
     */
    CacheAccessResult
    access(std::uint64_t key, bool is_write)
    {
        CacheAccessResult res;
        std::uint32_t &head = buckets_[bucketOf(key)];
        std::uint32_t w = find(head, key);
        if (w != kNone) {
            ++hits_;
            ways_[w].dirty |= is_write;
            toFront(w);
            res.hit = true;
            return res;
        }
        ++misses_;
        w = ways_[sentinel_].prev;
        Way &v = ways_[w];
        if (v.valid) {
            if (v.dirty) {
                ++writebacks_;
                res.writebackTag = v.key;
            } else {
                res.evictedTag = v.key;
            }
            unchain(w);
        }
        v.key = key;
        v.valid = true;
        v.dirty = is_write;
        v.chain = head;
        head = w;
        toFront(w);
        return res;
    }

    /**
     * Non-allocating access: on a hit, promote (and optionally mark
     * dirty) and count a hit; on a miss, count a miss and do nothing.
     */
    bool
    touch(std::uint64_t key, bool mark_dirty)
    {
        const std::uint32_t w = find(buckets_[bucketOf(key)], key);
        if (w == kNone) {
            ++misses_;
            return false;
        }
        ++hits_;
        ways_[w].dirty |= mark_dirty;
        toFront(w);
        return true;
    }

    /** Probe without modifying state. */
    bool
    contains(std::uint64_t key) const
    {
        return find(buckets_[bucketOf(key)], key) != kNone;
    }

    /** Invalidate a key if present; returns true if it was dirty. */
    bool invalidate(std::uint64_t key);

    /** Invalidate every line; statistics are left untouched. */
    void invalidateAll();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    double hitRate() const;
    void resetStats() { hits_ = misses_ = writebacks_ = 0; }

    unsigned entries() const { return sentinel_; }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Way
    {
        std::uint64_t key = 0;
        /** Recency neighbours: next is one step toward the LRU end,
         *  prev toward the MRU end.  The sentinel closes the ring:
         *  its next is the MRU way, its prev the LRU way. */
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
        /** Next valid way in this way's hash chain, or kNone. */
        std::uint32_t chain = kNone;
        bool valid = false;
        bool dirty = false;
    };

    /** entries() real ways, then the recency-list sentinel. */
    std::vector<Way> ways_;
    /** Hash-chain heads (valid ways only), a power-of-two count. */
    std::vector<std::uint32_t> buckets_;
    std::uint32_t sentinel_;
    /** 64 - log2(buckets): Fibonacci hashing keeps the top bits. */
    unsigned shift_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;

    std::size_t
    bucketOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    /** Valid way holding @p key on the chain from @p head, or kNone. */
    std::uint32_t
    find(std::uint32_t head, std::uint64_t key) const
    {
        std::uint32_t w = head;
        while (w != kNone && ways_[w].key != key)
            w = ways_[w].chain;
        return w;
    }

    /** Remove valid way @p w from its hash chain. */
    void
    unchain(std::uint32_t w)
    {
        std::uint32_t *link = &buckets_[bucketOf(ways_[w].key)];
        while (*link != w)
            link = &ways_[*link].chain;
        *link = ways_[w].chain;
    }

    void
    unlink(std::uint32_t w)
    {
        ways_[ways_[w].prev].next = ways_[w].next;
        ways_[ways_[w].next].prev = ways_[w].prev;
    }

    /** Insert @p w after @p at in the recency list. */
    void
    linkAfter(std::uint32_t w, std::uint32_t at)
    {
        ways_[w].prev = at;
        ways_[w].next = ways_[at].next;
        ways_[ways_[at].next].prev = w;
        ways_[at].next = w;
    }

    void
    toFront(std::uint32_t w)
    {
        if (ways_[sentinel_].next == w)
            return;
        unlink(w);
        linkAfter(w, sentinel_);
    }
};

} // namespace toleo

#endif // TOLEO_CACHE_FULLY_ASSOC_HH
