/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hh"
#include "cache/tlb.hh"

using namespace toleo;

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(16, 4);
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, FromCapacityGeometry)
{
    auto c = SetAssocCache::fromCapacity(32 * KiB, 64, 8);
    EXPECT_EQ(c.numSets(), 64u);
    EXPECT_EQ(c.assoc(), 8u);
}

TEST(SetAssocCache, FromCapacityRejectsZeroLineSize)
{
    EXPECT_DEATH(SetAssocCache::fromCapacity(32 * KiB, 0, 8),
                 "SetAssocCache: zero line size");
}

TEST(SetAssocCache, FromCapacityRejectsZeroAssociativity)
{
    EXPECT_DEATH(SetAssocCache::fromCapacity(32 * KiB, 64, 0),
                 "SetAssocCache: zero associativity");
}

TEST(SetAssocCache, RejectsZeroSetsOrWays)
{
    EXPECT_DEATH(SetAssocCache(0, 8), "SetAssocCache: zero sets");
    EXPECT_DEATH(SetAssocCache::fromCapacity(0, 64, 8),
                 "SetAssocCache: zero sets");
    EXPECT_DEATH(SetAssocCache(4, 0), "SetAssocCache: zero associativity");
}

TEST(SetAssocCache, RejectsAssociativityAboveMax)
{
    EXPECT_DEATH(SetAssocCache::fromCapacity(64 * 257, 64, 257),
                 "SetAssocCache: associativity 257 exceeds 256");
    EXPECT_DEATH(SetAssocCache(1, 257),
                 "SetAssocCache: associativity 257 exceeds 256");
    // The largest supported geometry still builds.
    EXPECT_EQ(SetAssocCache(1, 256).assoc(), 256u);
}

TEST(SetAssocCache, LruEvictsOldest)
{
    // Fully associative, 2 ways: the LRU key must be the victim.
    SetAssocCache c(1, 2);
    c.access(1, false);
    c.access(2, false);
    c.access(1, false);      // 2 becomes LRU
    auto r = c.access(3, false);
    EXPECT_FALSE(r.hit);
    ASSERT_TRUE(r.evictedTag.has_value());
    EXPECT_EQ(*r.evictedTag, 2u);
    EXPECT_TRUE(c.contains(1));
    EXPECT_FALSE(c.contains(2));
}

TEST(SetAssocCache, DirtyVictimReportsWriteback)
{
    SetAssocCache c(1, 1);
    c.access(7, true);
    auto r = c.access(8, false);
    ASSERT_TRUE(r.writebackTag.has_value());
    EXPECT_EQ(*r.writebackTag, 7u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SetAssocCache, CleanVictimNoWriteback)
{
    SetAssocCache c(1, 1);
    c.access(7, false);
    auto r = c.access(8, false);
    EXPECT_FALSE(r.writebackTag.has_value());
    ASSERT_TRUE(r.evictedTag.has_value());
    EXPECT_EQ(*r.evictedTag, 7u);
}

TEST(SetAssocCache, WriteHitMarksDirty)
{
    SetAssocCache c(1, 1);
    c.access(7, false);
    c.access(7, true); // hit, now dirty
    auto r = c.access(8, false);
    ASSERT_TRUE(r.writebackTag.has_value());
}

TEST(SetAssocCache, InvalidateReturnsDirtiness)
{
    SetAssocCache c(4, 2);
    c.access(1, true);
    c.access(2, false);
    EXPECT_TRUE(c.invalidate(1));
    EXPECT_FALSE(c.invalidate(2));
    EXPECT_FALSE(c.invalidate(99)); // absent
    EXPECT_FALSE(c.contains(1));
}

TEST(SetAssocCache, MarkDirtyOnResident)
{
    SetAssocCache c(1, 2);
    c.access(1, false);
    EXPECT_TRUE(c.markDirtyIfPresent(1));
    EXPECT_TRUE(c.invalidate(1)); // invalidate reports it was dirty
    EXPECT_FALSE(c.markDirtyIfPresent(99));
}

TEST(SetAssocCache, HitRateMath)
{
    SetAssocCache c(16, 4);
    c.access(1, false);
    c.access(1, false);
    c.access(1, false);
    c.access(2, false);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
}

TEST(SetAssocCache, HalfCapacityWorkingSetMostlyFits)
{
    // A working set at half capacity should mostly hit after warmup
    // (the hashed index still allows a few conflict misses).
    auto c = SetAssocCache::fromCapacity(4 * KiB, 64, 4);
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t k = 0; k < 32; ++k)
            c.access(k, false);
    c.resetStats();
    for (std::uint64_t k = 0; k < 32; ++k)
        c.access(k, false);
    EXPECT_GT(c.hitRate(), 0.8);
}

TEST(SetAssocCache, ThrashingWorkingSetMisses)
{
    auto c = SetAssocCache::fromCapacity(4 * KiB, 64, 4);
    for (std::uint64_t k = 0; k < 4096; ++k)
        c.access(k, false);
    c.resetStats();
    for (std::uint64_t k = 0; k < 4096; ++k)
        c.access(k, false);
    EXPECT_LT(c.hitRate(), 0.2);
}

TEST(SharedTlb, BasicHitMiss)
{
    SharedTlb tlb(4, 12);
    EXPECT_FALSE(tlb.access(1));
    EXPECT_TRUE(tlb.access(1));
    EXPECT_EQ(tlb.extensionBytes(), 48u);
}

TEST(SharedTlb, FullyAssociativeLru)
{
    SharedTlb tlb(2, 12);
    tlb.access(1);
    tlb.access(2);
    tlb.access(1);
    tlb.access(3); // evicts 2
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_FALSE(tlb.contains(2));
}

