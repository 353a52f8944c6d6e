/**
 * @file
 * Shared last-level (L2) TLB with the Toleo stealth-version extension.
 *
 * Section 4.4 / Table 3: 256 entries, fully associative, shared by all
 * cores [6].  Toleo extends each entry's data array by 12 bytes to
 * hold the page's flat Trip entry; the tag array is unchanged, so the
 * flat-entry hit rate equals the TLB hit rate by construction.
 */

#ifndef TOLEO_CACHE_TLB_HH
#define TOLEO_CACHE_TLB_HH

#include "cache/fully_assoc.hh"
#include "common/types.hh"

namespace toleo {

class SharedTlb
{
  public:
    /**
     * @param entries Number of TLB entries (256 in Table 3).
     * @param stealth_ext_bytes Flat-entry extension per entry
     *        (12 B in the paper; 0 models a baseline TLB).
     */
    explicit SharedTlb(unsigned entries = 256,
                       unsigned stealth_ext_bytes = 12)
        : cache_(entries), extBytes_(stealth_ext_bytes)
    {}

    /** Look up a page; fills on miss (LRU). Returns hit. */
    bool
    access(PageNum page)
    {
        return cache_.access(page, false).hit;
    }

    bool contains(PageNum page) const { return cache_.contains(page); }
    void invalidate(PageNum page) { cache_.invalidate(page); }

    std::uint64_t hits() const { return cache_.hits(); }
    std::uint64_t misses() const { return cache_.misses(); }
    double hitRate() const { return cache_.hitRate(); }
    void resetStats() { cache_.resetStats(); }

    /** On-chip SRAM added by the stealth extension, bytes. */
    std::uint64_t
    extensionBytes() const
    {
        return static_cast<std::uint64_t>(extBytes_) * cache_.entries();
    }

  private:
    FullyAssocCache cache_;
    unsigned extBytes_;
};

} // namespace toleo

#endif // TOLEO_CACHE_TLB_HH
