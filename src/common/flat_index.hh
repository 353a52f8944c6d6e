/**
 * @file
 * FlatIndex: an insert-only open-addressing map from 64-bit keys to
 * 32-bit slot numbers -- the page-number index of the Trip store.
 *
 * One flat array of {key, slot} entries with linear probing from a
 * Fibonacci hash of the key, so a lookup usually touches one host
 * cache line, and an absent key (a read of a never-written page)
 * stops at the first empty entry.  The table doubles once it is more
 * than half full.  Slots are positions in the caller's own storage,
 * so growth moves 16-byte entries and never the caller's payload.
 */

#ifndef TOLEO_COMMON_FLAT_INDEX_HH
#define TOLEO_COMMON_FLAT_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace toleo {

class FlatIndex
{
  public:
    /** Slot value meaning "absent" (never stored). */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    FlatIndex() { resize(16); }

    /** Slot of @p key, or npos. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Entry &e = table_[i];
            if (e.slot == npos || e.key == key)
                return e.slot;
        }
    }

    /**
     * One probe for lookup-or-insert: the slot of @p key if present,
     * else store @p slot for it.  Returns {slot, inserted}.
     */
    std::pair<std::uint32_t, bool>
    findOrInsert(std::uint64_t key, std::uint32_t slot)
    {
        std::size_t i = home(key);
        for (; table_[i].slot != npos; i = (i + 1) & mask_) {
            if (table_[i].key == key)
                return {table_[i].slot, false};
        }
        table_[i] = Entry{key, slot};
        if (2 * ++size_ > table_.size())
            resize(2 * table_.size());
        return {slot, true};
    }

    std::size_t size() const { return size_; }
    /** Table entries (a power of two, at least twice size()). */
    std::size_t capacity() const { return table_.size(); }

  private:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint32_t slot = npos;
    };

    std::vector<Entry> table_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    /** Rebuild at @p cap entries (a power of two). */
    void
    resize(std::size_t cap)
    {
        std::vector<Entry> old(cap);
        old.swap(table_);
        mask_ = cap - 1;
        shift_ = 64;
        for (std::size_t c = cap; c > 1; c /= 2)
            --shift_;
        for (const Entry &e : old) {
            if (e.slot == npos)
                continue;
            std::size_t i = home(e.key);
            while (table_[i].slot != npos)
                i = (i + 1) & mask_;
            table_[i] = e;
        }
    }
};

} // namespace toleo

#endif // TOLEO_COMMON_FLAT_INDEX_HH
