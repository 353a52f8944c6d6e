/**
 * @file
 * SetAssocCache row kernels and whole-cache equivalence.
 *
 * The row kernels (cache/set_assoc.hh) run as SSE2 on x86-64 and as
 * scalar loops elsewhere; the cache's behavior -- and through it every
 * golden fixture -- must not depend on which ran.  The kernel tests
 * drive both over randomized rows, pad lanes past the associativity
 * included, and require identical results and identical bytes.
 *
 * The differential tests drive the cache and the timestamp-argmin
 * implementation it replaced (RefSetAssocCache below) with seeded
 * random call streams over many geometries, and require every
 * returned field and every counter to match after every call.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/set_assoc.hh"
#include "common/logging.hh"
#include "common/rng.hh"

using namespace toleo;

namespace {

constexpr unsigned kLaneCounts[] = {1,  2,  3,  7,  8,  15, 16, 17,
                                    24, 31, 32, 33, 63, 64, 65, 100,
                                    127, 128, 129, 200, 255, 256};

/** One set's metadata rows and keys, sized as the cache sizes them. */
struct Rows
{
    explicit Rows(unsigned assoc)
        : assoc(assoc), lanes(SetAssocCache::rowLanes(assoc)),
          tags(lanes), ranks(lanes), flags(lanes), keys(lanes)
    {
    }

    unsigned assoc;
    unsigned lanes;
    std::vector<std::uint8_t> tags;
    std::vector<std::uint8_t> ranks;
    std::vector<std::uint8_t> flags;
    std::vector<std::uint64_t> keys;
};

/** Random rows in a state the cache can reach: valid ways rank a
 *  permutation of 0..nvalid-1; invalid ways and pad lanes hold junk
 *  tags, ranks and keys, and pad flags stay 0.  Tags and keys come
 *  from small pools so tag collisions and stale keys are common. */
Rows
randomRows(Rng &rng, unsigned assoc)
{
    Rows r(assoc);
    for (unsigned w = 0; w < r.lanes; ++w) {
        r.tags[w] = static_cast<std::uint8_t>(
            w < assoc ? rng.nextBounded(4) : rng.next());
        r.ranks[w] = static_cast<std::uint8_t>(rng.next());
        r.keys[w] = rng.nextBounded(assoc + 4);
    }
    const bool full = rng.nextBool(0.5);
    std::vector<unsigned> valid;
    for (unsigned w = 0; w < assoc; ++w) {
        if (full || rng.nextBool(0.7)) {
            r.flags[w] = rng.nextBool(0.5) ? SetAssocCache::kValid
                                           : SetAssocCache::kValid |
                                                 SetAssocCache::kDirty;
            valid.push_back(w);
        }
    }
    // Shuffle the ranks 0..nvalid-1 over the valid ways.
    std::vector<std::uint8_t> perm(valid.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<std::uint8_t>(i);
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.nextBounded(i)]);
    for (std::size_t i = 0; i < valid.size(); ++i)
        r.ranks[valid[i]] = perm[i];
    return r;
}

} // namespace

TEST(SetAssocScan, FindWayMatchesScalarOnRandomRows)
{
    Rng rng(0xdecafbad);
    for (const unsigned assoc : kLaneCounts) {
        for (unsigned trial = 0; trial < 100; ++trial) {
            const Rows r = randomRows(rng, assoc);
            for (std::uint64_t key = 0; key < assoc + 8; ++key) {
                for (std::uint8_t tag = 0; tag < 5; ++tag) {
                    const unsigned want = SetAssocCache::findWayScalar(
                        r.tags.data(), r.flags.data(), r.keys.data(),
                        r.lanes, tag, key);
                    const unsigned got = SetAssocCache::findWay(
                        r.tags.data(), r.flags.data(), r.keys.data(),
                        r.lanes, tag, key);
                    ASSERT_EQ(want, got)
                        << "assoc " << assoc << " trial " << trial
                        << " tag " << unsigned{tag} << " key " << key;
                    if (want != SetAssocCache::wayNone) {
                        ASSERT_LT(want, assoc);
                        ASSERT_EQ(r.keys[want], key);
                    }
                }
            }
        }
    }
}

TEST(SetAssocScan, RankAgingMatchesScalarOnRandomRows)
{
    Rng rng(0xfeedface);
    for (const unsigned assoc : kLaneCounts) {
        const unsigned lanes = SetAssocCache::rowLanes(assoc);
        for (unsigned trial = 0; trial < 200; ++trial) {
            // Every lane random, pad lanes included: the kernels are
            // lane-wise, so both must leave identical bytes.
            std::vector<std::uint8_t> row(lanes);
            for (auto &b : row)
                b = static_cast<std::uint8_t>(rng.next());
            const auto r = static_cast<std::uint8_t>(
                trial % 4 == 0 ? (trial % 8 ? 0 : 255) : rng.next());

            std::vector<std::uint8_t> want = row, got = row;
            SetAssocCache::ageBelowScalar(want.data(), lanes, r);
            SetAssocCache::ageBelow(got.data(), lanes, r);
            ASSERT_EQ(want, got) << "ageBelow assoc " << assoc
                                 << " r " << unsigned{r};
            for (unsigned w = 0; w < lanes; ++w)
                ASSERT_EQ(want[w], row[w] < r ? row[w] + 1 : row[w]);

            got = row;
            SetAssocCache::ageAbove(got.data(), lanes, r);
            for (unsigned w = 0; w < lanes; ++w)
                ASSERT_EQ(got[w], row[w] > r ? row[w] - 1 : row[w]);
        }
    }
}

TEST(SetAssocScan, VictimPickMatchesScalarOnRandomRows)
{
    Rng rng(0xc0ffee);
    for (const unsigned assoc : kLaneCounts) {
        for (unsigned trial = 0; trial < 200; ++trial) {
            const Rows r = randomRows(rng, assoc);
            const unsigned want = SetAssocCache::pickVictimScalar(
                r.ranks.data(), r.flags.data(), assoc);
            const unsigned got = SetAssocCache::pickVictim(
                r.ranks.data(), r.flags.data(), assoc);
            ASSERT_EQ(want, got) << "assoc " << assoc << " trial "
                                 << trial;
            // The lowest free way, else the LRU way of the full set;
            // never a pad lane, even one ranked assoc - 1.
            ASSERT_LT(got, assoc);
            unsigned firstFree = SetAssocCache::wayNone;
            for (unsigned w = 0; w < assoc; ++w)
                if (r.flags[w] == 0 && firstFree == SetAssocCache::wayNone)
                    firstFree = w;
            if (firstFree != SetAssocCache::wayNone)
                ASSERT_EQ(got, firstFree);
            else
                ASSERT_EQ(r.ranks[got], assoc - 1);
        }
    }
}

TEST(SetAssocScan, ValidDuplicateResolvesToLowestWay)
{
    // Duplicate *valid* keys cannot arise from cache operation, but
    // the lowest-way contract is what makes the SSE2 and scalar probes
    // interchangeable, so pin it directly.
    Rows r(8);
    const std::uint64_t keys[8] = {9, 7, 7, 3, 7, 1, 2, 7};
    for (unsigned w = 0; w < 8; ++w) {
        r.keys[w] = keys[w];
        r.tags[w] = 0x5a;
        r.flags[w] = SetAssocCache::kValid;
    }
    EXPECT_EQ(1u, SetAssocCache::findWay(r.tags.data(), r.flags.data(),
                                         r.keys.data(), r.lanes, 0x5a, 7));
    EXPECT_EQ(1u, SetAssocCache::findWayScalar(
                      r.tags.data(), r.flags.data(), r.keys.data(),
                      r.lanes, 0x5a, 7));

    // The first duplicate invalidated: the next valid one wins.
    r.flags[1] = 0;
    EXPECT_EQ(2u, SetAssocCache::findWay(r.tags.data(), r.flags.data(),
                                         r.keys.data(), r.lanes, 0x5a, 7));
    EXPECT_EQ(2u, SetAssocCache::findWayScalar(
                      r.tags.data(), r.flags.data(), r.keys.data(),
                      r.lanes, 0x5a, 7));
}

TEST(SetAssocScan, StaleKeyOnInvalidLineDoesNotHit)
{
    Rows r(8);
    for (unsigned w = 0; w < 8; ++w) {
        r.keys[w] = 5 + w;
        r.tags[w] = static_cast<std::uint8_t>(w);
        r.flags[w] = SetAssocCache::kValid;
    }
    r.flags[2] = 0; // key 7 is stale: its tag and key still match
    auto find = [&r](std::uint8_t tag, std::uint64_t key) {
        const unsigned got = SetAssocCache::findWay(
            r.tags.data(), r.flags.data(), r.keys.data(), r.lanes, tag,
            key);
        EXPECT_EQ(got, SetAssocCache::findWayScalar(
                           r.tags.data(), r.flags.data(), r.keys.data(),
                           r.lanes, tag, key));
        return got;
    };
    EXPECT_EQ(SetAssocCache::wayNone, find(2, 7));
    EXPECT_EQ(6u, find(6, 11));
    EXPECT_EQ(SetAssocCache::wayNone, find(6, 42));

    // The same through the cache: an invalidated key's way keeps its
    // tag and key, and must not hit.
    SetAssocCache c(1, 8);
    for (std::uint64_t k = 0; k < 8; ++k)
        c.access(k, false);
    EXPECT_FALSE(c.invalidate(3));
    EXPECT_FALSE(c.contains(3));
    EXPECT_FALSE(c.markDirtyIfPresent(3));
    EXPECT_FALSE(c.touch(3, true));
    EXPECT_FALSE(c.access(3, false).hit);
}

TEST(SetAssocScan, FingerprintCollisionResolvesByFullKey)
{
    // Every way carries the needle's fingerprint; only the full key
    // decides, in the SIMD group and in the tail group alike.
    Rows r(20);
    for (unsigned w = 0; w < 20; ++w) {
        r.keys[w] = 100 + w;
        r.tags[w] = 0xa5;
        r.flags[w] = SetAssocCache::kValid | SetAssocCache::kDirty;
    }
    for (const unsigned w : {0u, 5u, 15u, 16u, 19u}) {
        EXPECT_EQ(w, SetAssocCache::findWay(r.tags.data(), r.flags.data(),
                                            r.keys.data(), r.lanes, 0xa5,
                                            100 + w));
    }
    EXPECT_EQ(SetAssocCache::wayNone,
              SetAssocCache::findWay(r.tags.data(), r.flags.data(),
                                     r.keys.data(), r.lanes, 0xa5, 99));
    // The right key under the wrong fingerprint cannot hit either.
    EXPECT_EQ(SetAssocCache::wayNone,
              SetAssocCache::findWay(r.tags.data(), r.flags.data(),
                                     r.keys.data(), r.lanes, 0xa4, 105));
}

TEST(SetAssocScan, ZeroFilledSetBehavesAsEmpty)
{
    // All-zero rows: key 0 with tag 0 sits on every (invalid) way,
    // and must not hit; the fill takes way 0.
    for (const unsigned assoc : {1u, 8u, 16u, 17u, 256u}) {
        const Rows r(assoc);
        EXPECT_EQ(SetAssocCache::wayNone,
                  SetAssocCache::findWay(r.tags.data(), r.flags.data(),
                                         r.keys.data(), r.lanes, 0, 0));
        EXPECT_EQ(0u, SetAssocCache::pickVictim(r.ranks.data(),
                                                r.flags.data(), assoc));
    }

    // And through the cache, fresh and after invalidateAll: nothing
    // hits, and the first assoc fills of a set evict nothing.
    SetAssocCache c(1, 4);
    for (int round = 0; round < 2; ++round) {
        EXPECT_FALSE(c.contains(0));
        EXPECT_FALSE(c.markDirtyIfPresent(0));
        EXPECT_FALSE(c.invalidate(0));
        for (std::uint64_t k = 0; k < 4; ++k) {
            const CacheAccessResult res = c.access(k, true);
            EXPECT_FALSE(res.hit);
            EXPECT_FALSE(res.writebackTag);
            EXPECT_FALSE(res.evictedTag);
        }
        EXPECT_EQ(c.access(4, false).writebackTag, std::uint64_t{0});
        c.invalidateAll();
    }
}

namespace {

/**
 * Reference model: the timestamp-argmin SetAssocCache that the
 * rank-byte layout replaced, kept as the differential oracle.
 *
 * Storage is one slab of 64-bit words, blocked per set: a set's
 * `assoc` keys followed by its `assoc` metadata words, where a
 * metadata word packs (lastUse << 2) | dirty | valid.  The LRU victim
 * is a plain argmin over the metadata words (an invalid line's word is
 * 0, which any valid word exceeds), and the MRU line is kept in way 0
 * so the repeated-key probe needs neither hash nor scan.  The tag scan
 * is the scalar loop; the model's AVX2 scan was identical by
 * construction and is not needed in an oracle.
 */
class RefSetAssocCache
{
  public:
    RefSetAssocCache(std::uint64_t num_sets, unsigned assoc)
        : numSets_(num_sets), assoc_(assoc), stride_(2 * assoc),
          setMask_((num_sets & (num_sets - 1)) == 0 ? num_sets - 1 : 0),
          slab_(num_sets * 2 * assoc, 0)
    {
        if (num_sets == 0 || assoc == 0)
            panic("SetAssocCache: zero sets or ways");
    }

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

    bool
    contains(std::uint64_t key) const
    {
        return findInSet(setBase(key), key) != wayNone;
    }

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

    bool
    invalidate(std::uint64_t key)
    {
        const std::size_t base = setBase(key);
        const unsigned w = findInSet(base, key);
        if (w == wayNone)
            return false;
        std::uint64_t &meta = slab_[base + assoc_ + w];
        const bool was_dirty = (meta & kDirty) != 0;
        meta = 0;
        if (mruValid_ && key == mruKey_)
            mruValid_ = false;
        return was_dirty;
    }

    void
    invalidateAll()
    {
        for (std::uint64_t s = 0; s < numSets_; ++s) {
            const std::size_t meta = s * stride_ + assoc_;
            std::fill_n(slab_.begin() + meta, assoc_, std::uint64_t{0});
        }
        mruValid_ = false;
    }

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

    double
    hitRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(hits_) / total : 0.0;
    }

    void resetStats() { hits_ = misses_ = writebacks_ = 0; }

  private:
    static constexpr unsigned wayNone = ~0u;
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;

    std::uint64_t numSets_;
    unsigned assoc_;
    unsigned stride_;
    std::uint64_t setMask_;
    std::vector<std::uint64_t> slab_;

    std::uint64_t useClock_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;

    std::uint64_t mruKey_ = 0;
    std::size_t mruBase_ = 0;
    bool mruValid_ = false;

    CacheAccessResult
    accessFull(std::uint64_t key, bool is_write)
    {
        ++useClock_;
        const std::size_t base = setBase(key);

        const unsigned w = findInSet(base, key);
        if (w != wayNone) {
            ++hits_;
            std::uint64_t &meta = slab_[base + assoc_ + w];
            meta = (useClock_ << 2) | (meta & kDirty) |
                   (is_write ? kDirty : 0) | kValid;
            moveToFront(base, w);
            mruKey_ = key;
            mruBase_ = base;
            mruValid_ = true;
            CacheAccessResult res;
            res.hit = true;
            return res;
        }
        return accessMiss(base, key, is_write);
    }

    bool
    touchFull(std::uint64_t key, bool mark_dirty)
    {
        ++useClock_;
        const std::size_t base = setBase(key);
        const unsigned w = findInSet(base, key);
        if (w != wayNone) {
            ++hits_;
            std::uint64_t &meta = slab_[base + assoc_ + w];
            meta = (useClock_ << 2) | (meta & kDirty) |
                   (mark_dirty ? kDirty : 0) | kValid;
            moveToFront(base, w);
            mruKey_ = key;
            mruBase_ = base;
            mruValid_ = true;
            return true;
        }
        ++misses_;
        return false;
    }

    CacheAccessResult
    accessMiss(std::size_t base, std::uint64_t key, bool is_write)
    {
        CacheAccessResult res;
        ++misses_;

        // LRU victim = argmin over the metadata words: the first
        // invalid way if any, else the unique least-recently-used way.
        unsigned victim = 0;
        std::uint64_t best = slab_[base + assoc_];
        for (unsigned w = 1; w < assoc_; ++w) {
            const std::uint64_t m = slab_[base + assoc_ + w];
            if (m < best) {
                best = m;
                victim = w;
            }
        }

        if (best & kValid) {
            if (best & kDirty) {
                ++writebacks_;
                res.writebackTag = slab_[base + victim];
            } else {
                res.evictedTag = slab_[base + victim];
            }
        }

        slab_[base + victim] = key;
        slab_[base + assoc_ + victim] =
            (useClock_ << 2) | (is_write ? kDirty : 0) | kValid;
        moveToFront(base, victim);
        mruKey_ = key;
        mruBase_ = base;
        mruValid_ = true;
        return res;
    }

    static std::uint64_t
    mixKey(std::uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return x;
    }

    std::size_t
    setBase(std::uint64_t key) const
    {
        if (numSets_ == 1)
            return 0;
        const std::uint64_t set = setMask_
                                      ? (mixKey(key) & setMask_)
                                      : (mixKey(key) % numSets_);
        return set * stride_;
    }

    unsigned
    findInSet(std::size_t base, std::uint64_t key) const
    {
        const std::uint64_t *keys = &slab_[base];
        const std::uint64_t *meta = &slab_[base + assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            // Keys of invalid lines are stale, so the (rare) tag
            // match still has to check the valid bit.
            if (keys[w] == key && (meta[w] & kValid))
                return w;
        }
        return wayNone;
    }

    void
    moveToFront(std::size_t base, unsigned w)
    {
        if (w == 0)
            return;
        std::swap(slab_[base], slab_[base + w]);
        std::swap(slab_[base + assoc_], slab_[base + assoc_ + w]);
    }
};

/** The cache's set hash (cache/set_assoc.hh), to craft keys that
 *  share a set and a fingerprint. */
std::uint64_t
mixKey(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

struct Geometry
{
    std::uint64_t sets;
    unsigned assoc;
};

void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.sets << "x" << g.assoc;
}

std::vector<Geometry>
allGeometries()
{
    std::vector<Geometry> out;
    for (const std::uint64_t sets : {1u, 3u, 4u, 64u})
        for (const unsigned assoc : {1u, 2u, 3u, 8u, 15u, 16u, 17u, 32u,
                                     256u})
            out.push_back({sets, assoc});
    return out;
}

/**
 * Key pool for one geometry: distinct keys, where every eighth key
 * shares the set and fingerprint of the key before it but differs in
 * the full key.  The pool holds about twice the capacity, so with the
 * hot/cold draw below hits, clean and dirty evictions, and absent
 * invalidations are all common.
 */
std::vector<std::uint64_t>
keyPool(const Geometry &g, Rng &rng)
{
    const std::uint64_t capacity = g.sets * g.assoc;
    std::vector<std::uint64_t> pool(2 * capacity + 8);
    auto setOf = [&g](std::uint64_t h) { return h % g.sets; };
    for (std::size_t i = 0; i < pool.size(); ++i) {
        pool[i] = (i + 1) * 0x9e3779b97f4a7c15ULL;
        if (i % 8 != 7 || i > 8 * 256)
            continue;
        const std::uint64_t h = mixKey(pool[i - 1]);
        std::uint64_t k = rng.next();
        while (mixKey(k) >> 56 != h >> 56 ||
               setOf(mixKey(k)) != setOf(h) || k == pool[i - 1])
            ++k;
        pool[i] = k;
    }
    return pool;
}

class SetAssocDiff : public ::testing::TestWithParam<Geometry>
{
};

void
expectSameCounters(const RefSetAssocCache &ref, const SetAssocCache &c,
                   std::uint64_t op)
{
    ASSERT_EQ(c.hits(), ref.hits()) << "op " << op;
    ASSERT_EQ(c.misses(), ref.misses()) << "op " << op;
    ASSERT_EQ(c.writebacks(), ref.writebacks()) << "op " << op;
    ASSERT_EQ(c.accesses(), ref.accesses()) << "op " << op;
    ASSERT_EQ(c.hitRate(), ref.hitRate()) << "op " << op;
}

} // namespace

TEST_P(SetAssocDiff, MatchesReferenceModel)
{
    const Geometry g = GetParam();
    SetAssocCache cache(g.sets, g.assoc);
    RefSetAssocCache ref(g.sets, g.assoc);
    Rng rng(g.sets * 1000 + g.assoc);
    const std::vector<std::uint64_t> pool = keyPool(g, rng);
    const std::uint64_t capacity = g.sets * g.assoc;
    const std::uint64_t hot = capacity / 2 + 1;
    const std::uint64_t ops = 20000 + 10 * capacity;
    std::uint64_t hits = 0, dirtyEvictions = 0, cleanEvictions = 0;

    for (std::uint64_t op = 0; op < ops; ++op) {
        // Half the draws from a hot window that fits, half from the
        // whole pool; an occasional key no pool member equals.
        const std::uint64_t key =
            rng.nextBool(0.02)
                ? rng.next() | 1
                : pool[rng.nextBounded(rng.nextBool(0.5) ? hot
                                                         : pool.size())];
        const std::uint64_t kind = rng.nextBounded(10000);
        if (kind < 5000) {
            const bool is_write = kind < 2000;
            const CacheAccessResult want = ref.access(key, is_write);
            const CacheAccessResult got = cache.access(key, is_write);
            ASSERT_EQ(got.hit, want.hit) << "op " << op;
            ASSERT_EQ(got.writebackTag, want.writebackTag) << "op " << op;
            ASSERT_EQ(got.evictedTag, want.evictedTag) << "op " << op;
            hits += got.hit;
            dirtyEvictions += got.writebackTag.has_value();
            cleanEvictions += got.evictedTag.has_value();
        } else if (kind < 6500) {
            const bool dirty = kind < 5750;
            ASSERT_EQ(cache.touch(key, dirty), ref.touch(key, dirty))
                << "op " << op;
        } else if (kind < 7500) {
            ASSERT_EQ(cache.invalidate(key), ref.invalidate(key))
                << "op " << op;
        } else if (kind < 8700) {
            ASSERT_EQ(cache.markDirtyIfPresent(key),
                      ref.markDirtyIfPresent(key))
                << "op " << op;
        } else if (kind < 9990) {
            ASSERT_EQ(cache.contains(key), ref.contains(key))
                << "op " << op;
        } else {
            cache.resetStats();
            ref.resetStats();
        }
        // Rare enough that even the largest cache fills and evicts
        // between two flushes.
        if (rng.nextBounded(4 * capacity + 2000) == 0) {
            cache.invalidateAll();
            ref.invalidateAll();
        }
        ASSERT_NO_FATAL_FAILURE(expectSameCounters(ref, cache, op));
        if (op % 4099 == 0) {
            for (const std::uint64_t k : pool)
                ASSERT_EQ(cache.contains(k), ref.contains(k))
                    << "op " << op << " key " << k;
        }
    }
    // The stream must exercise what it claims to.
    EXPECT_GT(hits, ops / 10);
    EXPECT_GT(dirtyEvictions, 200u);
    EXPECT_GT(cleanEvictions, 200u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocDiff, ::testing::ValuesIn(allGeometries()),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "sets" + std::to_string(info.param.sets) + "_assoc" +
               std::to_string(info.param.assoc);
    });
