/**
 * @file
 * Tests for the TripStore -- the heart of the reproduction.
 *
 * Covers: flat/uneven/full format transitions (Section 4.3), version
 * arithmetic under each format, offset normalization, the
 * probabilistic reset policy (Section 4.2), page free/downgrade, and
 * the critical security invariant that full versions never repeat
 * for a block within a run (Section 6.2), checked exhaustively with
 * shrunken parameters.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "toleo/device.hh"
#include "toleo/trip.hh"

using namespace toleo;

namespace {

/** A block address inside page `pg` at index `idx`. */
BlockNum
blk(PageNum pg, unsigned idx)
{
    return (pg << (pageBits - blockBits)) | idx;
}

TripConfig
noResetConfig()
{
    TripConfig cfg;
    cfg.resetLog2 = 63; // effectively never reset
    return cfg;
}

} // namespace

TEST(Trip, UntouchedPageIsFlat)
{
    TripStore t(noResetConfig());
    EXPECT_EQ(t.formatOf(42), TripFormat::Flat);
    EXPECT_EQ(t.touchedPages(), 0u);
}

TEST(Trip, FirstWriteBumpsBlockVersionByOne)
{
    TripStore t(noResetConfig());
    auto r = t.update(blk(1, 3));
    EXPECT_EQ(r.fmtBefore, TripFormat::Flat);
    EXPECT_EQ(r.fmtAfter, TripFormat::Flat);
    // Written block is one ahead of untouched neighbours.
    const auto v_written = t.stealth(blk(1, 3));
    const auto v_other = t.stealth(blk(1, 4));
    const auto mask = (1u << 27) - 1;
    EXPECT_EQ(v_written, (v_other + 1) & mask);
}

TEST(Trip, UniformPageWriteStaysFlat)
{
    TripStore t(noResetConfig());
    for (unsigned i = 0; i < blocksPerPage; ++i)
        t.update(blk(2, i));
    EXPECT_EQ(t.formatOf(2), TripFormat::Flat);
    // Bit-vector folded into the base: all blocks share one version.
    const auto v0 = t.stealth(blk(2, 0));
    for (unsigned i = 1; i < blocksPerPage; ++i)
        EXPECT_EQ(t.stealth(blk(2, i)), v0);
    EXPECT_EQ(t.unevenCount(), 0u);
}

TEST(Trip, ManyUniformSweepsStayFlat)
{
    TripStore t(noResetConfig());
    const auto v_start = t.stealth(blk(3, 0));
    (void)v_start;
    for (int sweep = 0; sweep < 10; ++sweep)
        for (unsigned i = 0; i < blocksPerPage; ++i)
            t.update(blk(3, i));
    EXPECT_EQ(t.formatOf(3), TripFormat::Flat);
    EXPECT_EQ(t.upgradesToUneven(), 0u);
}

TEST(Trip, RepeatedBlockWriteUpgradesToUneven)
{
    TripStore t(noResetConfig());
    t.update(blk(4, 7));
    auto r = t.update(blk(4, 7)); // stride 2 > 1
    EXPECT_TRUE(r.upgraded);
    EXPECT_EQ(r.fmtAfter, TripFormat::Uneven);
    EXPECT_EQ(t.unevenCount(), 1u);
    // Version arithmetic is preserved across the upgrade.
    const auto mask = (1u << 27) - 1;
    EXPECT_EQ(t.stealth(blk(4, 7)),
              (t.stealth(blk(4, 8)) + 2) & mask);
}

TEST(Trip, UnevenTracksPerBlockStrides)
{
    TripStore t(noResetConfig());
    // Block 0 written 5 times, block 1 written twice, rest once.
    t.update(blk(5, 0));
    t.update(blk(5, 0));
    for (int i = 0; i < 3; ++i)
        t.update(blk(5, 0));
    t.update(blk(5, 1));
    t.update(blk(5, 1));
    const auto mask = (1u << 27) - 1;
    const auto base = t.stealth(blk(5, 9)); // untouched block
    EXPECT_EQ(t.stealth(blk(5, 0)), (base + 5) & mask);
    EXPECT_EQ(t.stealth(blk(5, 1)), (base + 2) & mask);
    EXPECT_EQ(t.formatOf(5), TripFormat::Uneven);
}

TEST(Trip, OffsetOverflowNormalizesWhenMinPositive)
{
    TripStore t(noResetConfig());
    // Raise every block past 1 so MIN > 0 can absorb an overflow.
    for (unsigned i = 0; i < blocksPerPage; ++i) {
        t.update(blk(6, i));
        t.update(blk(6, i));
        t.update(blk(6, i)); // all offsets ~3
    }
    ASSERT_EQ(t.formatOf(6), TripFormat::Uneven);
    // Now hammer one block to offset overflow; MIN=3 can be folded.
    for (int i = 0; i < 126; ++i)
        t.update(blk(6, 0));
    EXPECT_EQ(t.formatOf(6), TripFormat::Uneven);
    EXPECT_GE(t.normalizations(), 1u);
    EXPECT_EQ(t.upgradesToFull(), 0u);
}

TEST(Trip, StrideBeyond128UpgradesToFull)
{
    TripStore t(noResetConfig());
    t.update(blk(7, 0));
    t.update(blk(7, 0)); // uneven
    // Other blocks untouched -> MIN stays 0; hammering block 0 must
    // overflow 7 bits and go full.
    for (int i = 0; i < 130; ++i)
        t.update(blk(7, 0));
    EXPECT_EQ(t.formatOf(7), TripFormat::Full);
    EXPECT_EQ(t.fullCount(), 1u);
    EXPECT_EQ(t.unevenCount(), 0u); // uneven entry released
}

TEST(Trip, FullPreservesVersionArithmetic)
{
    TripStore t(noResetConfig());
    const auto mask = (1u << 27) - 1;
    const auto base = t.stealth(blk(8, 20));
    t.update(blk(8, 0));
    for (int i = 0; i < 200; ++i)
        t.update(blk(8, 0));
    ASSERT_EQ(t.formatOf(8), TripFormat::Full);
    EXPECT_EQ(t.stealth(blk(8, 0)), (base + 201) & mask);
    // An untouched block keeps the original base.
    EXPECT_EQ(t.stealth(blk(8, 20)), base);
}

TEST(Trip, FullVersionComposesUvAndStealth)
{
    TripConfig cfg = noResetConfig();
    TripStore t(cfg);
    t.update(blk(9, 0));
    const auto full = t.fullVersion(blk(9, 0));
    EXPECT_EQ(full & ((1ULL << cfg.stealthBits) - 1),
              t.stealth(blk(9, 0)));
    EXPECT_EQ(full >> cfg.stealthBits, t.upperVersion(9));
}

TEST(Trip, ResetRerandomizesAndBumpsUv)
{
    TripConfig cfg;
    cfg.resetLog2 = 0; // reset on every leading increment
    TripStore t(cfg);
    const auto uv_before = t.upperVersion(10);
    auto r = t.update(blk(10, 0));
    EXPECT_TRUE(r.reset);
    EXPECT_EQ(t.upperVersion(10), uv_before + 1);
    EXPECT_EQ(t.formatOf(10), TripFormat::Flat);
}

TEST(Trip, ResetDowngradesDynamicEntries)
{
    TripConfig cfg = noResetConfig();
    TripStore t(cfg);
    t.update(blk(11, 0));
    t.update(blk(11, 0));
    ASSERT_EQ(t.formatOf(11), TripFormat::Uneven);
    t.freePage(11);
    EXPECT_EQ(t.formatOf(11), TripFormat::Flat);
    EXPECT_EQ(t.unevenCount(), 0u);
    EXPECT_EQ(t.frees(), 1u);
}

TEST(Trip, FreePageBumpsUv)
{
    TripStore t(noResetConfig());
    t.update(blk(12, 0));
    const auto uv = t.upperVersion(12);
    t.freePage(12);
    EXPECT_EQ(t.upperVersion(12), uv + 1);
}

TEST(Trip, FreeUntouchedPageIsNoop)
{
    TripStore t(noResetConfig());
    t.freePage(999);
    EXPECT_EQ(t.frees(), 0u);
    EXPECT_EQ(t.touchedPages(), 0u);
}

TEST(Trip, DynamicBytesAccounting)
{
    TripStore t(noResetConfig());
    EXPECT_EQ(t.dynamicBytes(), 0u);
    t.update(blk(13, 0));
    t.update(blk(13, 0)); // uneven
    EXPECT_EQ(t.dynamicBytes(), unevenEntryBytes);
    for (int i = 0; i < 130; ++i)
        t.update(blk(13, 0)); // full
    EXPECT_EQ(t.dynamicBytes(), fullEntryAllocBytes);
}

TEST(Trip, BreakdownCountsFormats)
{
    TripStore t(noResetConfig());
    t.update(blk(20, 0));            // flat
    t.update(blk(21, 0));
    t.update(blk(21, 0));            // uneven
    t.update(blk(22, 0));
    for (int i = 0; i < 140; ++i)
        t.update(blk(22, 0));        // full
    auto b = t.breakdown();
    EXPECT_EQ(b.flat, 1u);
    EXPECT_EQ(b.uneven, 1u);
    EXPECT_EQ(b.full, 1u);
}

TEST(Trip, AvgEntryBytesMatchesTable4Formulas)
{
    TripStore t(noResetConfig());
    // One flat page only: 12 B.
    t.update(blk(30, 0));
    EXPECT_DOUBLE_EQ(t.avgEntryBytesPerPage(), 12.0);
    // Add one uneven page: (12 + 12+56)/2 = 40.
    t.update(blk(31, 0));
    t.update(blk(31, 0));
    EXPECT_DOUBLE_EQ(t.avgEntryBytesPerPage(), 40.0);
}

TEST(Trip, ResetProbabilityIsCalibrated)
{
    // With resetLog2 = 8 and N leading increments, expect ~N/256
    // resets.
    TripConfig cfg;
    cfg.resetLog2 = 8;
    TripStore t(cfg);
    const int n = 100000;
    // Each write to a fresh page is a leading increment.
    for (int i = 0; i < n; ++i)
        t.update(blk(100 + i, 0));
    const double expected = n / 256.0;
    EXPECT_GT(t.resets(), expected * 0.7);
    EXPECT_LT(t.resets(), expected * 1.3);
}

TEST(Trip, NonLeadingWritesDoNotDrawResets)
{
    TripConfig cfg;
    cfg.resetLog2 = 0; // every leading increment resets
    TripStore t(cfg);
    // First write: leading increment -> reset fires.
    auto r1 = t.update(blk(40, 0));
    EXPECT_TRUE(r1.reset);
    // Page is now flat with empty bitvec again.  Writes to *other*
    // blocks in the same stealth cycle: first one leads (resets),
    // after which remaining writes in a fresh cycle follow the same
    // pattern -- every write that does not advance the leading
    // version must not reset.  Construct that case: after a reset,
    // write block 1 (leads, resets), then block 2 write *in the new
    // cycle* leads again.  To get a non-leading write we need two
    // blocks at the same level: impossible with resetLog2=0 since
    // every leading write resets.  Use resetLog2=63 and count: zero
    // resets regardless.
    TripConfig cfg2;
    cfg2.resetLog2 = 63;
    TripStore t2(cfg2);
    for (unsigned i = 0; i < blocksPerPage; ++i)
        t2.update(blk(41, i));
    EXPECT_EQ(t2.resets(), 0u);
}

// ---------------------------------------------------------------------------
// Security invariant (Section 6.2): the full version of a block never
// repeats within a run.  Exercised with shrunken widths so the modular
// stealth counter wraps many times.
// ---------------------------------------------------------------------------

class TripNonRepeat : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TripNonRepeat, FullVersionNeverRepeats)
{
    TripConfig cfg;
    cfg.stealthBits = 8;           // tiny stealth space: wraps fast
    cfg.uvBits = 40;
    cfg.resetLog2 = GetParam();    // reset probability 2^-p
    cfg.seed = 1234 + GetParam();
    TripStore t(cfg);

    std::set<std::uint64_t> seen;
    const BlockNum b = blk(50, 0);
    bool collided = false;
    for (int i = 0; i < 30000; ++i) {
        t.update(b);
        const auto v = t.fullVersion(b);
        if (!seen.insert(v).second)
            collided = true;
    }
    // With reset probability 2^-p and stealth space 2^8, the chance
    // of running a full wrap without reset is (1-2^-p)^256 -- for
    // p <= 4 this is < 1e-7 per wrap, so 30000 updates are safe.
    EXPECT_FALSE(collided);
}

INSTANTIATE_TEST_SUITE_P(ResetRates, TripNonRepeat,
                         ::testing::Values(2u, 3u, 4u));

TEST(Trip, StealthWrapWithoutResetWouldCollide)
{
    // Negative control: disable resets entirely and wrap the tiny
    // stealth space -- the full version *must* collide, demonstrating
    // why the reset policy is load-bearing.
    TripConfig cfg;
    cfg.stealthBits = 8;
    cfg.resetLog2 = 63;
    TripStore t(cfg);
    std::set<std::uint64_t> seen;
    const BlockNum b = blk(60, 0);
    bool collided = false;
    for (int i = 0; i < 1000; ++i) {
        t.update(b);
        if (!seen.insert(t.fullVersion(b)).second)
            collided = true;
    }
    EXPECT_TRUE(collided);
}

TEST(Trip, RandomizedInitialStealthDiffersAcrossPages)
{
    // Address-side-channel defense (Section 4.2): bases must not all
    // start at the same value.
    TripStore t(noResetConfig());
    std::set<std::uint64_t> bases;
    for (PageNum p = 0; p < 64; ++p) {
        t.update(blk(70 + p, 0));
        bases.insert(t.stealth(blk(70 + p, 1)));
    }
    EXPECT_GT(bases.size(), 32u);
}

TEST(Trip, DeterministicAcrossRuns)
{
    TripConfig cfg;
    cfg.seed = 77;
    TripStore a(cfg), b(cfg);
    for (int i = 0; i < 1000; ++i) {
        const BlockNum x = blk(i % 7, (i * 13) % blocksPerPage);
        auto ra = a.update(x);
        auto rb = b.update(x);
        EXPECT_EQ(ra.version, rb.version);
        EXPECT_EQ(ra.fmtAfter, rb.fmtAfter);
    }
}

namespace {

/** Everything observable about a set of written pages and blocks. */
struct TripSnapshot
{
    std::vector<TripFormat> formats;
    std::vector<std::uint64_t> versions;
    std::uint64_t flat = 0, uneven = 0, full = 0;
    std::uint64_t touched = 0;
    std::uint64_t dynamic = 0;
};

TripSnapshot
snapshotOf(const TripStore &t, const std::vector<PageNum> &pages,
           const std::vector<BlockNum> &blocks)
{
    TripSnapshot s;
    for (PageNum pg : pages)
        s.formats.push_back(t.formatOf(pg));
    for (BlockNum b : blocks)
        s.versions.push_back(t.fullVersion(b));
    const TripStore::Breakdown b = t.breakdown();
    s.flat = b.flat;
    s.uneven = b.uneven;
    s.full = b.full;
    s.touched = t.touchedPages();
    s.dynamic = t.dynamicBytes();
    return s;
}

} // namespace

TEST(Trip, IndexGrowthPreservesEveryPage)
{
    // Page numbers that collide in the low bits (multiples of 1024)
    // and pages in a second initiator's slice, with a mix of flat,
    // uneven and full pages, inserted until the page index has
    // doubled several times.  Each insert that grows the index must
    // leave every earlier page exactly as it was.
    TripStore t(noResetConfig());
    std::vector<PageNum> pages;
    std::vector<BlockNum> blocks;
    unsigned growths = 0;
    for (unsigned i = 0; i < 300; ++i) {
        const PageNum pg =
            (i / 2) * 1024 +
            (i % 2 ? ToleoDevice::initiatorPageStride : 0);
        const BlockNum first = blk(pg, i % blocksPerPage);

        const std::size_t cap = t.indexCapacity();
        const TripSnapshot before = snapshotOf(t, pages, blocks);
        const auto res = t.update(first); // inserts pg
        if (t.indexCapacity() != cap) {
            ++growths;
            const TripSnapshot after = snapshotOf(t, pages, blocks);
            EXPECT_EQ(after.formats, before.formats) << "insert " << i;
            EXPECT_EQ(after.versions, before.versions) << "insert " << i;
            EXPECT_EQ(after.flat, before.flat + 1) << "insert " << i;
            EXPECT_EQ(after.uneven, before.uneven) << "insert " << i;
            EXPECT_EQ(after.full, before.full) << "insert " << i;
            EXPECT_EQ(after.touched, before.touched + 1) << "insert " << i;
            EXPECT_EQ(after.dynamic, before.dynamic) << "insert " << i;
            // The new page itself is as in a store that saw only it.
            TripStore fresh(noResetConfig());
            EXPECT_EQ(res.version, fresh.update(first).version);
            EXPECT_EQ(t.fullVersion(first), fresh.fullVersion(first));
        }
        pages.push_back(pg);
        blocks.push_back(first);
        if (i % 3 == 1) {
            t.update(first); // second write: uneven
        } else if (i % 7 == 2) {
            for (int k = 0; k < 130; ++k) // stride past 2^7: full
                t.update(first);
        }
    }
    EXPECT_GE(growths, 3u);
    EXPECT_GT(t.unevenCount(), 0u);
    EXPECT_GT(t.fullCount(), 0u);

    // Freeing a page that was never touched stays a no-op, even when
    // its number shares low bits with resident pages.
    const TripSnapshot before = snapshotOf(t, pages, blocks);
    const std::size_t cap = t.indexCapacity();
    t.freePage(999 * 1024);
    t.freePage(999 * 1024 + ToleoDevice::initiatorPageStride);
    const TripSnapshot after = snapshotOf(t, pages, blocks);
    EXPECT_EQ(after.formats, before.formats);
    EXPECT_EQ(after.versions, before.versions);
    EXPECT_EQ(after.touched, before.touched);
    EXPECT_EQ(after.dynamic, before.dynamic);
    EXPECT_EQ(t.frees(), 0u);
    EXPECT_EQ(t.indexCapacity(), cap);
}
