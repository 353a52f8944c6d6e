/**
 * @file
 * Generic set-associative cache model with exact LRU replacement.
 *
 * Used for the data hierarchy (L1D/L2/L3), the MAC cache, the stealth
 * overflow buffer, and the Merkle version cache.  Large fully
 * associative structures (the shared last-level TLB and the stealth
 * update write-combining buffer) use FullyAssocCache instead, which
 * models SetAssocCache(1, N) without its per-probe row scans.  The
 * model tracks tags, dirty bits, and hit/miss/writeback statistics --
 * no data payloads, which is all the timing simulation needs.
 * Functional payloads live in the protection-engine models that need
 * them.
 *
 * The simulator spends about half its time probing these caches, so
 * each set is one small block of a single slab: three byte rows of
 * rowLanes(assoc) lanes (assoc rounded up to 16), then the set's
 * `assoc` 64-bit keys.
 *
 *   tags   8-bit fingerprint per way: the high byte of the same key
 *          hash that picks the set;
 *   ranks  LRU rank per way over the valid ways only, 0 = MRU;
 *   flags  kValid | kDirty per way.
 *
 * A 16-way set is 176 B, 48 B of it metadata.  A probe compares the
 * tag row against the needle's fingerprint (one SSE2 compare per 16
 * ways on x86-64, a scalar loop over the same rows elsewhere), keeps
 * the valid lanes, and compares full keys only on those candidates.
 *
 * Ranks give exact LRU without timestamps: a hit on rank r ages every
 * rank below r by one; a fill ages every rank below assoc - 1 and
 * takes the lowest invalid way, or the way ranked assoc - 1 when the
 * set is full; invalidate moves up every rank above the freed way.
 * The kernels run over whole rows, so invalid and pad lanes age too:
 * their tags and ranks are don't-care, every read of a rank is of a
 * valid lane, and a fill writes the lane's rank.  An all-zero block is
 * therefore an empty set, and construction and invalidateAll() are a
 * plain zero fill.
 *
 * The MRU key of the last access or fill is rank 0 of its set, so the
 * common repeated-key probe needs neither hash nor scan: it counts the
 * hit and may set the dirty flag, nothing else.
 */

#ifndef TOLEO_CACHE_SET_ASSOC_HH
#define TOLEO_CACHE_SET_ASSOC_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

/** SIMD row kernels: SSE2 is baseline on x86-64, so no runtime CPU
 *  dispatch is needed.  Other platforms run the scalar kernels. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TOLEO_SET_ASSOC_SIMD 1
#else
#define TOLEO_SET_ASSOC_SIMD 0
#endif

#if TOLEO_SET_ASSOC_SIMD
#include <emmintrin.h>
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
     * @param assoc Ways per set, 1..kMaxAssoc.
     */
    SetAssocCache(std::uint64_t num_sets, unsigned assoc);

    /** Construct from byte capacity / line size / associativity. */
    static SetAssocCache fromCapacity(std::uint64_t bytes,
                                      std::uint64_t line_size,
                                      unsigned assoc);

    /**
     * Access a key; allocates on miss (evicting LRU), promotes on hit.
     * The inline part is the MRU shortcut: the key of the last access
     * or fill is already rank 0 of its set, so a repeated key -- the
     * dominant pattern when a core walks a block in sub-block strides
     * -- needs no hash and no tag scan.
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
            ++hits_;
            if (is_write)
                rows(0)[mruFlag_] |= kDirty;
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
        const std::uint64_t h = mixKey(key);
        return find(blockOf(h), tagOf(h), key) != wayNone;
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
            ++hits_;
            if (mark_dirty)
                rows(0)[mruFlag_] |= kDirty;
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
     * One set probe where contains() + markDirty() would take two.
     * Like contains(), does not touch LRU state or statistics.
     */
    // toleo: phase(private)
    bool
    markDirtyIfPresent(std::uint64_t key)
    {
        const std::uint64_t h = mixKey(key);
        const std::size_t base = blockOf(h);
        const unsigned w = find(base, tagOf(h), key);
        if (w == wayNone)
            return false;
        rows(base)[2 * lanes_ + w] |= kDirty;
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

    /** Largest supported associativity: ranks are one byte. */
    static constexpr unsigned kMaxAssoc = 256;
    /** Way index meaning "not found". */
    static constexpr unsigned wayNone = ~0u;
    /** Flag-row bits. */
    static constexpr std::uint8_t kValid = 1;
    static constexpr std::uint8_t kDirty = 2;

    /** Lanes per metadata row: @p assoc rounded up to 16. */
    static constexpr unsigned
    rowLanes(unsigned assoc)
    {
        return (assoc + 15) & ~15u;
    }

    /**
     * Row kernels over one set's metadata.  @p lanes is a multiple of
     * 16; lanes past the associativity are pad lanes whose flags stay
     * 0.  findWay/ageBelow/pickVictim use SSE2 on x86-64;
     * the *Scalar twins are the reference loops (and the kernels on
     * other platforms).  Both produce identical results and identical
     * bytes in every lane, pad lanes included; tests/test_set_assoc.cc
     * checks that on randomized rows.  They are defined inline below
     * the class so every probe path inlines them.
     */

    /** Lowest valid way whose tag equals @p tag and key equals
     *  @p key, or wayNone. */
    static unsigned findWay(const std::uint8_t *tags,
                            const std::uint8_t *flags,
                            const std::uint64_t *keys, unsigned lanes,
                            std::uint8_t tag, std::uint64_t key);
    static unsigned findWayScalar(const std::uint8_t *tags,
                                  const std::uint8_t *flags,
                                  const std::uint64_t *keys,
                                  unsigned lanes, std::uint8_t tag,
                                  std::uint64_t key);

    /** Add one to every lane whose rank is below @p r. */
    static void ageBelow(std::uint8_t *ranks, unsigned lanes,
                         std::uint8_t r);
    static void ageBelowScalar(std::uint8_t *ranks, unsigned lanes,
                               std::uint8_t r);

    /** Subtract one from every lane whose rank is above @p r.  Only
     *  invalidate() calls it, rarely, so it has no SIMD twin. */
    static void ageAbove(std::uint8_t *ranks, unsigned lanes,
                         std::uint8_t r);

    /** Fill victim among ways [0, assoc): the lowest invalid way, else
     *  the lowest valid way ranked assoc - 1 (the LRU way of a full
     *  set), else wayNone. */
    static unsigned pickVictim(const std::uint8_t *ranks,
                               const std::uint8_t *flags,
                               unsigned assoc);
    static unsigned pickVictimScalar(const std::uint8_t *ranks,
                                     const std::uint8_t *flags,
                                     unsigned assoc);

    /**
     * Hint the prefetcher at the slab lines an upcoming access to
     * @p key will probe (the set's metadata rows and its keys).
     * Pure performance hint: no architectural state changes, so the
     * batching driver can issue these ahead of the access loop.
     */
    // toleo: phase(private)
    void
    prefetchSet(std::uint64_t key) const
    {
        const std::uint64_t *p = &slab_[blockOf(mixKey(key))];
        __builtin_prefetch(p, 1, 3);
        __builtin_prefetch(p + stride_ / 2, 1, 3);
        __builtin_prefetch(p + stride_ - 1, 1, 3);
    }

  private:
    std::uint64_t numSets_;
    unsigned assoc_;
    /** rowLanes(assoc_). */
    unsigned lanes_;
    /** Metadata words per set block: three rows of lanes_ bytes. */
    unsigned metaWords_;
    /** Words per set block: metaWords_ + assoc_. */
    unsigned stride_;
    /** numSets - 1 when numSets is a power of two. */
    std::uint64_t setMask_;
    bool pow2Sets_;

    /** Per-set blocks of [tags | ranks | flags | keys], see the file
     *  comment. */
    std::vector<std::uint64_t> slab_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;

    /**
     * MRU shortcut state: mruKey_ is the key most recently accessed
     * or filled (rank 0 of its set), and mruFlag_ the slab byte
     * offset of its flag lane.  Invalidation clears it.
     */
    std::uint64_t mruKey_ = 0;
    std::size_t mruFlag_ = 0;
    bool mruValid_ = false;

    /** access() past the MRU shortcut: hash, probe, hit or fill. */
    CacheAccessResult accessFull(std::uint64_t key, bool is_write);

    /** touch() past the MRU shortcut. */
    bool touchFull(std::uint64_t key, bool mark_dirty);

    /** Hit on way @p w of the block at @p base: set its dirty flag if
     *  @p dirty, rank it 0, and make @p key the MRU. */
    void promote(std::size_t base, unsigned w, std::uint64_t key,
                 bool dirty);

    /** Mix the key so low-entropy keys still spread across sets. */
    static std::uint64_t
    mixKey(std::uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return x;
    }

    /** Tag fingerprint of the key whose mixKey is @p h. */
    static std::uint8_t
    tagOf(std::uint64_t h)
    {
        return static_cast<std::uint8_t>(h >> 56);
    }

    /** Slab word offset of the set block for the mixKey @p h. */
    std::size_t
    blockOf(std::uint64_t h) const
    {
        // Every real configuration has a power-of-two set count, for
        // which masking equals the modulo the model always used.
        const std::uint64_t set = pow2Sets_ ? (h & setMask_)
                                            : (h % numSets_);
        return set * stride_;
    }

    /** Metadata rows of the block at @p base: tags, ranks at
     *  +lanes_, flags at +2 * lanes_. */
    std::uint8_t *
    rows(std::size_t base)
    {
        return reinterpret_cast<std::uint8_t *>(&slab_[base]);
    }

    const std::uint8_t *
    rows(std::size_t base) const
    {
        return reinterpret_cast<const std::uint8_t *>(&slab_[base]);
    }

    /** Valid way of the block at @p base holding @p key, or wayNone. */
    unsigned
    find(std::size_t base, std::uint8_t tag, std::uint64_t key) const
    {
        const std::uint8_t *meta = rows(base);
        return findWay(meta, meta + 2 * lanes_, &slab_[base + metaWords_],
                       lanes_, tag, key);
    }
};

#if TOLEO_SET_ASSOC_SIMD
namespace set_assoc_detail {

/** Rows are byte arrays inside a 64-bit slab: unaligned loads, which
 *  cost nothing on cache-resident data. */
inline __m128i
load16(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

inline void
store16(std::uint8_t *p, __m128i v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
}

/** Lane bits of a 16-lane group starting at way @p g that lie below
 *  @p assoc. */
inline unsigned
liveLanes(unsigned g, unsigned assoc)
{
    return assoc - g >= 16 ? 0xffffu : (1u << (assoc - g)) - 1;
}

} // namespace set_assoc_detail
#endif

inline unsigned
SetAssocCache::findWayScalar(const std::uint8_t *tags,
                             const std::uint8_t *flags,
                             const std::uint64_t *keys, unsigned lanes,
                             std::uint8_t tag, std::uint64_t key)
{
    for (unsigned w = 0; w < lanes; ++w) {
        // Keys of invalid lines are stale, so a key match still has
        // to check the valid flag.
        if (tags[w] == tag && (flags[w] & kValid) && keys[w] == key)
            return w;
    }
    return wayNone;
}

inline unsigned
SetAssocCache::findWay(const std::uint8_t *tags, const std::uint8_t *flags,
                       const std::uint64_t *keys, unsigned lanes,
                       std::uint8_t tag, std::uint64_t key)
{
#if TOLEO_SET_ASSOC_SIMD
    const __m128i needle = _mm_set1_epi8(static_cast<char>(tag));
    const __m128i zero = _mm_setzero_si128();
    for (unsigned g = 0; g < lanes; g += 16) {
        const __m128i invalid =
            _mm_cmpeq_epi8(set_assoc_detail::load16(flags + g), zero);
        const __m128i match =
            _mm_cmpeq_epi8(set_assoc_detail::load16(tags + g), needle);
        // Candidates resolve lowest lane first, as the scalar loop.
        for (auto mask = static_cast<unsigned>(
                 _mm_movemask_epi8(_mm_andnot_si128(invalid, match)));
             mask != 0; mask &= mask - 1) {
            const unsigned w =
                g + static_cast<unsigned>(__builtin_ctz(mask));
            if (keys[w] == key)
                return w;
        }
    }
    return wayNone;
#else
    return findWayScalar(tags, flags, keys, lanes, tag, key);
#endif
}

inline void
SetAssocCache::ageBelowScalar(std::uint8_t *ranks, unsigned lanes,
                              std::uint8_t r)
{
    for (unsigned w = 0; w < lanes; ++w)
        if (ranks[w] < r)
            ++ranks[w];
}

inline void
SetAssocCache::ageBelow(std::uint8_t *ranks, unsigned lanes,
                        std::uint8_t r)
{
#if TOLEO_SET_ASSOC_SIMD
    const __m128i rv = _mm_set1_epi8(static_cast<char>(r));
    const __m128i ones = _mm_set1_epi8(-1);
    for (unsigned g = 0; g < lanes; g += 16) {
        const __m128i x = set_assoc_detail::load16(ranks + g);
        // x >= r exactly where max(x, r) == x; the other lanes get
        // x - (-1).
        const __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(x, rv), x);
        set_assoc_detail::store16(
            ranks + g, _mm_sub_epi8(x, _mm_andnot_si128(ge, ones)));
    }
#else
    ageBelowScalar(ranks, lanes, r);
#endif
}

inline void
SetAssocCache::ageAbove(std::uint8_t *ranks, unsigned lanes,
                        std::uint8_t r)
{
    for (unsigned w = 0; w < lanes; ++w)
        if (ranks[w] > r)
            --ranks[w];
}

inline unsigned
SetAssocCache::pickVictimScalar(const std::uint8_t *ranks,
                                const std::uint8_t *flags, unsigned assoc)
{
    for (unsigned w = 0; w < assoc; ++w)
        if (!(flags[w] & kValid))
            return w;
    for (unsigned w = 0; w < assoc; ++w)
        if (ranks[w] == assoc - 1)
            return w;
    return wayNone;
}

inline unsigned
SetAssocCache::pickVictim(const std::uint8_t *ranks,
                          const std::uint8_t *flags, unsigned assoc)
{
#if TOLEO_SET_ASSOC_SIMD
    const __m128i zero = _mm_setzero_si128();
    const __m128i oldest = _mm_set1_epi8(static_cast<char>(assoc - 1));
    unsigned lru = wayNone;
    for (unsigned g = 0; g < assoc; g += 16) {
        const unsigned live = set_assoc_detail::liveLanes(g, assoc);
        const __m128i invalid =
            _mm_cmpeq_epi8(set_assoc_detail::load16(flags + g), zero);
        const unsigned free =
            static_cast<unsigned>(_mm_movemask_epi8(invalid)) & live;
        if (free != 0)
            return g + static_cast<unsigned>(__builtin_ctz(free));
        const __m128i lruLanes =
            _mm_cmpeq_epi8(set_assoc_detail::load16(ranks + g), oldest);
        const unsigned old =
            static_cast<unsigned>(_mm_movemask_epi8(lruLanes)) & live;
        if (lru == wayNone && old != 0)
            lru = g + static_cast<unsigned>(__builtin_ctz(old));
    }
    return lru;
#else
    return pickVictimScalar(ranks, flags, assoc);
#endif
}

} // namespace toleo

#endif // TOLEO_CACHE_SET_ASSOC_HH
