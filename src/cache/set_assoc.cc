#include "cache/set_assoc.hh"

#include <algorithm>

namespace toleo {

namespace {

/** Named rejection of an associativity the rank bytes cannot hold;
 *  runs before anything sizes or divides by it. */
unsigned
checkAssoc(unsigned assoc)
{
    if (assoc == 0)
        panic("SetAssocCache: zero associativity");
    if (assoc > SetAssocCache::kMaxAssoc)
        panic("SetAssocCache: associativity %u exceeds %u", assoc,
              SetAssocCache::kMaxAssoc);
    return assoc;
}

} // namespace

SetAssocCache::SetAssocCache(std::uint64_t num_sets, unsigned assoc)
    : numSets_(num_sets), assoc_(checkAssoc(assoc)),
      lanes_(rowLanes(assoc)), metaWords_(3 * lanes_ / 8),
      stride_(metaWords_ + assoc), setMask_(num_sets - 1),
      pow2Sets_((num_sets & (num_sets - 1)) == 0),
      // All-zero blocks are empty sets (see the file comment).  Filled
      // here with a constant 0 the compiler turns into one memset.
      slab_(num_sets * stride_, 0)
{
    if (num_sets == 0)
        panic("SetAssocCache: zero sets");
}

SetAssocCache
SetAssocCache::fromCapacity(std::uint64_t bytes, std::uint64_t line_size,
                            unsigned assoc)
{
    if (line_size == 0)
        panic("SetAssocCache: zero line size");
    checkAssoc(assoc);
    if (bytes % (line_size * assoc) != 0)
        panic("SetAssocCache: capacity %llu not divisible by way size",
              static_cast<unsigned long long>(bytes));
    return SetAssocCache(bytes / (line_size * assoc), assoc);
}

void
SetAssocCache::promote(std::size_t base, unsigned w, std::uint64_t key,
                       bool dirty)
{
    std::uint8_t *ranks = rows(base) + lanes_;
    std::uint8_t *flags = ranks + lanes_;
    flags[w] |= dirty ? kDirty : 0;
    if (const std::uint8_t r = ranks[w]; r != 0) {
        ageBelow(ranks, lanes_, r);
        ranks[w] = 0;
    }
    mruKey_ = key;
    mruFlag_ = base * sizeof(std::uint64_t) + 2 * lanes_ + w;
    mruValid_ = true;
}

CacheAccessResult
SetAssocCache::accessFull(std::uint64_t key, bool is_write)
{
    const std::uint64_t h = mixKey(key);
    const std::size_t base = blockOf(h);
    const std::uint8_t tag = tagOf(h);
    CacheAccessResult res;

    const unsigned hitWay = find(base, tag, key);
    if (hitWay != wayNone) {
        ++hits_;
        promote(base, hitWay, key, is_write);
        res.hit = true;
        return res;
    }

    ++misses_;
    std::uint8_t *tags = rows(base);
    std::uint8_t *ranks = tags + lanes_;
    std::uint8_t *flags = ranks + lanes_;
    std::uint64_t *keys = &slab_[base + metaWords_];
    const unsigned victim = pickVictim(ranks, flags, assoc_);
    if (flags[victim] & kValid) {
        if (flags[victim] & kDirty) {
            ++writebacks_;
            res.writebackTag = keys[victim];
        } else {
            res.evictedTag = keys[victim];
        }
    }

    keys[victim] = key;
    tags[victim] = tag;
    flags[victim] = is_write ? kValid | kDirty : kValid;
    ageBelow(ranks, lanes_, static_cast<std::uint8_t>(assoc_ - 1));
    ranks[victim] = 0;
    mruKey_ = key;
    mruFlag_ = base * sizeof(std::uint64_t) + 2 * lanes_ + victim;
    mruValid_ = true;
    return res;
}

bool
SetAssocCache::touchFull(std::uint64_t key, bool mark_dirty)
{
    const std::uint64_t h = mixKey(key);
    const std::size_t base = blockOf(h);
    const unsigned w = find(base, tagOf(h), key);
    if (w == wayNone) {
        ++misses_;
        return false;
    }
    ++hits_;
    promote(base, w, key, mark_dirty);
    return true;
}

bool
SetAssocCache::invalidate(std::uint64_t key)
{
    const std::uint64_t h = mixKey(key);
    const std::size_t base = blockOf(h);
    const unsigned w = find(base, tagOf(h), key);
    if (w == wayNone)
        return false;
    std::uint8_t *ranks = rows(base) + lanes_;
    std::uint8_t *flags = ranks + lanes_;
    const bool was_dirty = (flags[w] & kDirty) != 0;
    flags[w] = 0;
    ageAbove(ranks, lanes_, ranks[w]);
    if (mruValid_ && key == mruKey_)
        mruValid_ = false;
    return was_dirty;
}

void
SetAssocCache::invalidateAll()
{
    std::fill(slab_.begin(), slab_.end(), std::uint64_t{0});
    mruValid_ = false;
}

double
SetAssocCache::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / total : 0.0;
}

void
SetAssocCache::resetStats()
{
    hits_ = misses_ = writebacks_ = 0;
}

} // namespace toleo
