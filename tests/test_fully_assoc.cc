/**
 * @file
 * FullyAssocCache against SetAssocCache(1, N) as the oracle: seeded
 * random streams of every call the two share must produce identical
 * results and counters after every operation.  Also checks the
 * Trip store's FlatIndex against std::map across table growth.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/fully_assoc.hh"
#include "cache/set_assoc.hh"
#include "common/flat_index.hh"
#include "common/rng.hh"

using namespace toleo;

namespace {

/** Keys that collide in the low bits, with some in a far slice (the
 *  multi-initiator page-offset shape). */
std::uint64_t
keyOf(std::uint64_t k)
{
    return k * 1024 + ((k & 3) == 3 ? (std::uint64_t{1} << 40) : 0);
}

void
expectSameCounters(const SetAssocCache &oracle, const FullyAssocCache &fa,
                   int op)
{
    ASSERT_EQ(fa.hits(), oracle.hits()) << "op " << op;
    ASSERT_EQ(fa.misses(), oracle.misses()) << "op " << op;
    ASSERT_EQ(fa.writebacks(), oracle.writebacks()) << "op " << op;
    ASSERT_EQ(fa.accesses(), oracle.accesses()) << "op " << op;
    ASSERT_EQ(fa.hitRate(), oracle.hitRate()) << "op " << op;
}

void
runDifferential(unsigned n, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "entries " << n << " seed "
                                    << seed);
    SetAssocCache oracle(1, n);
    FullyAssocCache fa(n);
    ASSERT_EQ(fa.entries(), n);
    Rng rng(seed);
    // About half the key space fits, so hits, clean and dirty
    // evictions, and absent invalidations all occur.
    const std::uint64_t key_space = 2 * std::uint64_t{n} + 3;
    const int ops = 40000;
    for (int op = 0; op < ops; ++op) {
        const std::uint64_t key = keyOf(rng.nextBounded(key_space));
        const std::uint64_t kind = rng.nextBounded(1000);
        if (kind < 500) {
            const bool is_write = kind < 200;
            const CacheAccessResult want = oracle.access(key, is_write);
            const CacheAccessResult got = fa.access(key, is_write);
            ASSERT_EQ(got.hit, want.hit) << "op " << op;
            ASSERT_EQ(got.writebackTag, want.writebackTag) << "op " << op;
            ASSERT_EQ(got.evictedTag, want.evictedTag) << "op " << op;
        } else if (kind < 800) {
            const bool dirty = kind < 650;
            ASSERT_EQ(fa.touch(key, dirty), oracle.touch(key, dirty))
                << "op " << op;
        } else if (kind < 990) {
            ASSERT_EQ(fa.contains(key), oracle.contains(key))
                << "op " << op;
            ASSERT_EQ(fa.invalidate(key), oracle.invalidate(key))
                << "op " << op;
        } else if (kind < 995) {
            oracle.invalidateAll();
            fa.invalidateAll();
        } else {
            oracle.resetStats();
            fa.resetStats();
        }
        expectSameCounters(oracle, fa, op);
        if (op % 97 == 0) {
            for (std::uint64_t k = 0; k < key_space; ++k)
                ASSERT_EQ(fa.contains(keyOf(k)), oracle.contains(keyOf(k)))
                    << "op " << op << " key " << keyOf(k);
        }
    }
}

} // namespace

TEST(FullyAssocCache, MatchesSetAssocOracle)
{
    for (unsigned n : {1u, 2u, 16u, 200u, 256u})
        for (std::uint64_t seed : {1u, 2u, 3u})
            runDifferential(n, seed * 7919 + n);
}

TEST(FullyAssocCache, ZeroEntriesIsFatal)
{
    EXPECT_EXIT({ FullyAssocCache c(0); }, testing::ExitedWithCode(1),
                "FullyAssocCache: zero entries");
}

TEST(FullyAssocCache, InvalidatedLineIsRefilledBeforeEvicting)
{
    FullyAssocCache c(3);
    c.access(1, true);
    c.access(2, false);
    c.access(3, false);
    EXPECT_TRUE(c.invalidate(1)); // was dirty
    EXPECT_FALSE(c.invalidate(1));
    // The freed way takes the fill: nothing is evicted.
    const CacheAccessResult r = c.access(4, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.writebackTag);
    EXPECT_FALSE(r.evictedTag);
    // Now full: the LRU line (2) goes next.
    EXPECT_EQ(c.access(5, false).evictedTag, std::uint64_t{2});
}

TEST(FlatIndex, MatchesMapAcrossGrowth)
{
    // Keys that collide in the low bits so probe chains are long, and
    // enough of them to cross several doublings.
    FlatIndex idx;
    std::map<std::uint64_t, std::uint32_t> ref;
    Rng rng(11);
    unsigned growths = 0;
    for (std::uint32_t op = 0; op < 20000; ++op) {
        const std::uint64_t key = rng.nextBounded(3000) << 20;
        const std::size_t cap = idx.capacity();
        const auto [slot, inserted] = idx.findOrInsert(key, op);
        const auto [it, fresh] = ref.emplace(key, op);
        ASSERT_EQ(inserted, fresh) << op;
        ASSERT_EQ(slot, it->second) << op;
        ASSERT_EQ(idx.size(), ref.size());
        ASSERT_LE(2 * idx.size(), idx.capacity());
        if (idx.capacity() != cap) {
            ++growths;
            for (std::uint64_t k = 0; k < 3000; ++k) {
                const auto at = ref.find(k << 20);
                ASSERT_EQ(idx.find(k << 20),
                          at == ref.end() ? FlatIndex::npos : at->second);
            }
        }
    }
    EXPECT_GE(growths, 5u);
}
