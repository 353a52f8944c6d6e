/**
 * @file
 * Generic set-associative cache model with LRU replacement.
 *
 * Used for the data hierarchy (L1D/L2/L3), the MAC cache, the stealth
 * overflow buffer, and the Merkle version cache.  Large fully
 * associative structures (the shared last-level TLB and the stealth
 * update write-combining buffer) use FullyAssocCache instead, which
 * models SetAssocCache(1, N) without its O(N) scans.  The model
 * tracks tags, dirty bits, and hit/miss/writeback statistics -- no
 * data payloads, which is all the timing simulation needs.
 * Functional payloads live in the protection-engine models that need
 * them.
 *
 * The simulator spends about half its time probing these caches, so
 * the storage is one slab of 64-bit words, blocked per set: a set's
 * `assoc` keys followed by its `assoc` metadata words, where a
 * metadata word packs (lastUse << 2) | dirty | valid.  A whole
 * 16-way set then spans three host cache lines instead of five, the
 * LRU victim is a plain argmin over the metadata words (an invalid
 * line's word is 0, which any valid word exceeds), and the MRU line
 * is kept in way 0 so the common repeated-key probe needs neither
 * hash nor scan.
 */

#ifndef TOLEO_CACHE_SET_ASSOC_HH
#define TOLEO_CACHE_SET_ASSOC_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

/** SIMD tag probes: x86-64 with a GNU-flavored compiler can build the
 *  AVX2 scan as a target("avx2") function and dispatch on the host
 *  CPU at runtime, so the binary stays baseline-portable. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TOLEO_SET_ASSOC_SIMD 1
#else
#define TOLEO_SET_ASSOC_SIMD 0
#endif

namespace toleo {

/** Result of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Valid dirty victim evicted to make room (writeback needed). */
    std::optional<std::uint64_t> writebackTag;
    /** Valid clean victim evicted (silent drop). */
    std::optional<std::uint64_t> evictedTag;
};

/**
 * Set-associative cache over abstract 64-bit keys ("tags" here are
 * full keys; the set index is derived from the key).
 */
class SetAssocCache
{
  public:
    /**
     * @param num_sets Number of sets (1 == fully associative).
     * @param assoc Ways per set.
     */
    SetAssocCache(std::uint64_t num_sets, unsigned assoc);

    /** Construct from byte capacity / line size / associativity. */
    static SetAssocCache fromCapacity(std::uint64_t bytes,
                                      std::uint64_t line_size,
                                      unsigned assoc);

    /**
     * Access a key; allocates on miss (evicting LRU), promotes on hit.
     * The inline part is the MRU shortcut: after any access or fill,
     * the touched key sits in way 0 of its set (see moveToFront), so
     * a repeated key -- the dominant pattern when a core walks a
     * block in sub-block strides -- needs no hash and no tag scan.
     * @param key Lookup key (block number, page number, ...).
     * @param is_write Marks the line dirty on hit or fill.
     *
     * The probe paths (access/touch/markDirtyIfPresent/prefetchSet)
     * are annotated phase(private): L1/L2 instances are probed from
     * the concurrent private phase, so everything they reach must be
     * instance-local.  Shared-phase use of the same methods on L3 /
     * MAC / stealth instances is always legal (shared code may call
     * private-safe code; only the converse is a violation).
     */
    // toleo: phase(private)
    CacheAccessResult
    access(std::uint64_t key, bool is_write)
    {
        if (mruValid_ && key == mruKey_) {
            ++useClock_;
            ++hits_;
            std::uint64_t &meta = slab_[mruBase_ + assoc_];
            meta = (useClock_ << 2) | (meta & kDirty) |
                   (is_write ? kDirty : 0) | kValid;
            CacheAccessResult res;
            res.hit = true;
            return res;
        }
        return accessFull(key, is_write);
    }

    /** Probe without modifying state. */
    bool
    contains(std::uint64_t key) const
    {
        return findInSet(setBase(key), key) != wayNone;
    }

    /**
     * Non-allocating access: on a hit, refresh LRU (and optionally
     * the dirty bit); on a miss, do nothing.  Used for traffic that
     * must not displace the demand working set (e.g. version updates
     * for long-cold pages).
     */
    // toleo: phase(private)
    bool
    touch(std::uint64_t key, bool mark_dirty)
    {
        if (mruValid_ && key == mruKey_) {
            ++useClock_;
            ++hits_;
            std::uint64_t &meta = slab_[mruBase_ + assoc_];
            meta = (useClock_ << 2) | (meta & kDirty) |
                   (mark_dirty ? kDirty : 0) | kValid;
            return true;
        }
        return touchFull(key, mark_dirty);
    }

    /** Invalidate a key if present; returns true if it was dirty. */
    bool invalidate(std::uint64_t key);

    /** Invalidate every line; statistics are left untouched. */
    void invalidateAll();

    /**
     * Mark a resident key dirty; returns whether it was resident.
     * One set scan where contains() + markDirty() would take two.
     * Like contains(), does not touch LRU state or statistics.
     */
    // toleo: phase(private)
    bool
    markDirtyIfPresent(std::uint64_t key)
    {
        const std::size_t base = setBase(key);
        const unsigned w = findInSet(base, key);
        if (w == wayNone)
            return false;
        slab_[base + assoc_ + w] |= kDirty;
        return true;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    double hitRate() const;

    std::uint64_t numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }
    void resetStats();

    /** Way index meaning "not found" (see scanWays). */
    static constexpr unsigned wayNone = ~0u;
    /** Metadata word: (lastUse << 2) | kDirty | kValid. */
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;

    /**
     * Scalar reference scan over one set's key/metadata words: the
     * lowest way w with keys[w] == key whose valid bit is set, or
     * wayNone.  Public and static (alongside the SIMD variant below)
     * so tests/test_set_assoc.cc can property-test the two
     * implementations against each other on arbitrary slabs.
     */
    static unsigned
    scanWaysScalar(const std::uint64_t *keys, const std::uint64_t *meta,
                   unsigned assoc, std::uint64_t key)
    {
        for (unsigned w = 0; w < assoc; ++w) {
            // Keys of invalid lines are stale, so the (rare) tag
            // match still has to check the valid bit.
            if (keys[w] == key && (meta[w] & kValid))
                return w;
        }
        return wayNone;
    }

#if TOLEO_SET_ASSOC_SIMD
    /** AVX2 scan, scalar-identical by construction: 4-way compares
     *  walk the ways in ascending order and candidate lanes resolve
     *  lowest-first, so stale duplicates behind an invalid line
     *  cannot change which way wins. */
    static unsigned scanWaysAvx2(const std::uint64_t *keys,
                                 const std::uint64_t *meta,
                                 unsigned assoc, std::uint64_t key);

    /** Runtime CPU dispatch, resolved once before main() so the
     *  check is a plain bool load on the hot path. */
    static bool
    haveAvx2()
    {
        static const bool ok = __builtin_cpu_supports("avx2") != 0;
        return ok;
    }
#endif

    /** Dispatching scan: SIMD when the host supports it and the set
     *  is wide enough to amortize the setup, scalar otherwise. */
    static unsigned
    scanWays(const std::uint64_t *keys, const std::uint64_t *meta,
             unsigned assoc, std::uint64_t key)
    {
#if TOLEO_SET_ASSOC_SIMD
        if (assoc >= 8 && haveAvx2())
            return scanWaysAvx2(keys, meta, assoc, key);
#endif
        return scanWaysScalar(keys, meta, assoc, key);
    }

    /**
     * Hint the prefetcher at the slab lines an upcoming access to
     * @p key will probe (the set's keys and its metadata words).
     * Pure performance hint: no architectural state changes, so the
     * batching driver can issue these ahead of the access loop.
     */
    // toleo: phase(private)
    void
    prefetchSet(std::uint64_t key) const
    {
        const std::uint64_t *p = &slab_[setBase(key)];
        __builtin_prefetch(p, 1, 3);
        __builtin_prefetch(p + assoc_, 1, 3);
    }

  private:

    std::uint64_t numSets_;
    unsigned assoc_;
    /** Words per set block: assoc keys then assoc metadata words. */
    unsigned stride_;
    /** numSets - 1 when numSets is a power of two, else 0. */
    std::uint64_t setMask_;

    /** Per-set blocks of [keys | metadata], see the file comment. */
    std::vector<std::uint64_t> slab_;

    std::uint64_t useClock_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;

    /**
     * MRU shortcut state: mruKey_ is the key most recently accessed
     * or filled, which moveToFront keeps in way 0 of the set whose
     * slab block starts at mruBase_.  Invalidation clears it.
     */
    std::uint64_t mruKey_ = 0;
    std::size_t mruBase_ = 0;
    bool mruValid_ = false;

    /** access() past the MRU shortcut: hash, scan, hit or fill. */
    CacheAccessResult accessFull(std::uint64_t key, bool is_write);

    /** touch() past the MRU shortcut. */
    bool touchFull(std::uint64_t key, bool mark_dirty);

    /** Fill path: victim selection, eviction, and allocation. */
    CacheAccessResult accessMiss(std::size_t base, std::uint64_t key,
                                 bool is_write);

    /** Mix the key so low-entropy keys still spread across sets. */
    static std::uint64_t
    mixKey(std::uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return x;
    }

    /** Slab offset of the set block holding @p key. */
    std::size_t
    setBase(std::uint64_t key) const
    {
        if (numSets_ == 1)
            return 0;
        // Every real configuration has a power-of-two set count, for
        // which masking equals the modulo the model always used.
        const std::uint64_t set = setMask_
                                      ? (mixKey(key) & setMask_)
                                      : (mixKey(key) % numSets_);
        return set * stride_;
    }

    /** Scan one set for a valid line holding @p key; way or wayNone.
     *  The slab layout (a set's keys contiguous, then its metadata)
     *  was built for this: the scan is one dispatch into the
     *  vectorized probe over the key slab. */
    unsigned
    findInSet(std::size_t base, std::uint64_t key) const
    {
        return scanWays(&slab_[base], &slab_[base + assoc_], assoc_,
                        key);
    }

    /**
     * Keep the MRU line in way 0 so the usual hit terminates the tag
     * scan immediately.  Physical way order is unobservable: lookups
     * match the unique valid key wherever it sits, and the LRU victim
     * is picked by the (unique) lastUse timestamps, not by position.
     */
    void
    moveToFront(std::size_t base, unsigned w)
    {
        if (w == 0)
            return;
        std::swap(slab_[base], slab_[base + w]);
        std::swap(slab_[base + assoc_], slab_[base + assoc_ + w]);
    }
};

} // namespace toleo

#endif // TOLEO_CACHE_SET_ASSOC_HH
