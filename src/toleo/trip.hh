/**
 * @file
 * TripStore: the tri-level page-granularity stealth-version store
 * (Section 4.3) that runs inside the Toleo device.
 *
 * Every protected page is statically mapped to a 12 B *flat* entry:
 * a shared 27-bit stealth base plus a 64-bit dirty bit-vector.  Pages
 * whose blocks drift apart by more than one version upgrade to an
 * *uneven* entry (64 x 7-bit private offsets, MIN/MAX tracked in the
 * flat entry); offsets drifting past 2^7 upgrade to a *full* entry
 * (64 x 27-bit).  Version resets (probability 2^-20 per leading
 * increment) and OS page frees downgrade back to flat.
 *
 * The store is fully functional: it really tracks versions, so the
 * security properties (non-repetition of the full version, scramble
 * on free) are testable, and the same state drives the timing model's
 * space/caching statistics.
 */

#ifndef TOLEO_TOLEO_TRIP_HH
#define TOLEO_TOLEO_TRIP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "common/flat_index.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "toleo/version.hh"

namespace toleo {

/** What happened inside the store on one version update. */
struct TripUpdateResult
{
    TripFormat fmtBefore = TripFormat::Flat;
    TripFormat fmtAfter = TripFormat::Flat;
    /** Stealth reset fired: UV incremented, page must re-encrypt. */
    bool reset = false;
    /** Flat->Uneven or Uneven->Full transition happened. */
    bool upgraded = false;
    /** Uneven offsets were renormalized (MIN folded into base). */
    bool normalized = false;
    /** New full version of the updated block. */
    std::uint64_t version = 0;
};

class TripStore
{
  public:
    explicit TripStore(const TripConfig &cfg);

    /**
     * Record a write(back) to a cache block: increments its stealth
     * version, applying format transitions and the probabilistic
     * reset policy.
     */
    TripUpdateResult update(BlockNum blk);

    /** Current 64-bit full version of a block (UV ‖ stealth). */
    std::uint64_t fullVersion(BlockNum blk) const;

    /** Current 27-bit stealth version of a block. */
    std::uint64_t stealth(BlockNum blk) const;

    /** Current shared UV of a page. */
    std::uint64_t upperVersion(PageNum page) const;

    /** Current Trip format of a page (Flat if never touched). */
    TripFormat formatOf(PageNum page) const;

    /**
     * OS downgrade on page free/remap (Section 4.3): reset the
     * stealth version and bump UV *without* re-encrypting, which
     * scrambles the old contents.
     */
    void freePage(PageNum page);

    /** Number of pages ever touched (drives flat-array accounting). */
    std::uint64_t touchedPages() const { return pages_.size(); }
    /** Page-index table entries; grows by doubling (tests watch it). */
    std::size_t indexCapacity() const { return index_.capacity(); }
    std::uint64_t unevenCount() const { return unevenCount_; }
    std::uint64_t fullCount() const { return fullCount_; }

    /** Dynamically allocated entry bytes (uneven + full). */
    std::uint64_t dynamicBytes() const;

    /** Trip-format page-count breakdown. */
    struct Breakdown
    {
        std::uint64_t flat = 0;
        std::uint64_t uneven = 0;
        std::uint64_t full = 0;
    };
    Breakdown breakdown() const;

    /** Average trusted bytes per touched page (Table 4 "Avg"). */
    double avgEntryBytesPerPage() const;

    std::uint64_t resets() const { return resets_; }
    std::uint64_t upgradesToUneven() const { return upToUneven_; }
    std::uint64_t upgradesToFull() const { return upToFull_; }
    std::uint64_t normalizations() const { return normalizations_; }
    std::uint64_t frees() const { return frees_; }
    std::uint64_t updates() const { return updates_; }

    const TripConfig &config() const { return cfg_; }

  private:
    struct FullEntry
    {
        /** Modular 27-bit stealth per block. */
        std::array<std::uint32_t, blocksPerPage> ver;
        /** Non-modular increment count (leading-version tracking). */
        std::array<std::uint64_t, blocksPerPage> vcnt;
    };

    struct UnevenEntry
    {
        std::array<std::uint8_t, blocksPerPage> off;
    };

    struct PageState
    {
        TripFormat fmt = TripFormat::Flat;
        /** Shared 27-bit stealth base (random-initialized). */
        std::uint32_t base = 0;
        /** Non-modular count of base increments since last reset. */
        std::uint64_t vbase = 0;
        /** Flat dirty bit-vector. */
        std::uint64_t bitvec = 0;
        /** Shared 37-bit upper version. */
        std::uint64_t uv = 0;
        /** Max/min uneven offsets (packed in flat entry, Sec 4.3). */
        std::uint8_t maxOff = 0;
        std::uint8_t minOff = 0;
        /** Virtual leading version (max increments since reset). */
        std::uint64_t vlead = 0;
        std::unique_ptr<UnevenEntry> uneven;
        std::unique_ptr<FullEntry> full;
    };

    TripConfig cfg_;
    std::uint32_t stealthMask_;
    std::uint64_t uvMask_;
    std::uint32_t offsetMax_;
    mutable Rng rng_;
    /**
     * Touched pages in first-touch order.  A deque never relocates
     * its elements on growth, so no PageState is ever copied; the
     * flat index maps each page number to its position with one
     * probe per lookup.
     */
    std::deque<PageState> pages_;
    FlatIndex index_;

    std::uint64_t unevenCount_ = 0;
    std::uint64_t fullCount_ = 0;
    std::uint64_t resets_ = 0;
    std::uint64_t upToUneven_ = 0;
    std::uint64_t upToFull_ = 0;
    std::uint64_t normalizations_ = 0;
    std::uint64_t frees_ = 0;
    std::uint64_t updates_ = 0;

    PageState &page(PageNum pg);
    const PageState *findPage(PageNum pg) const;

    /**
     * Deterministic random-looking initial stealth base of a page's
     * statically mapped flat entry (what the device's TRNG wrote at
     * provisioning time).
     */
    std::uint32_t initialBase(PageNum pg) const;

    std::uint32_t randomStealth();
    std::uint32_t incStealth(std::uint32_t v) const;

    /** Apply a stealth reset: UV++, re-randomize, downgrade flat. */
    void resetPage(PageState &ps);

    void releaseEntries(PageState &ps);

    /** Modular stealth of a block given page state. */
    std::uint32_t stealthOf(const PageState &ps, unsigned idx) const;
};

} // namespace toleo

#endif // TOLEO_TOLEO_TRIP_HH
