#include "cache/fully_assoc.hh"

#include "common/logging.hh"

namespace toleo {

FullyAssocCache::FullyAssocCache(unsigned entries)
    : ways_(entries + std::size_t{1}), sentinel_(entries), shift_(63)
{
    if (entries == 0)
        fatal("FullyAssocCache: zero entries");
    std::size_t buckets = 2;
    while (buckets < 2 * std::size_t{entries}) {
        buckets *= 2;
        --shift_;
    }
    buckets_.assign(buckets, kNone);
    // Ring in way order; every way starts invalid, so the order is
    // arbitrary until the first fills.
    for (std::uint32_t w = 0; w < sentinel_; ++w) {
        ways_[w].next = w + 1;
        ways_[w + 1].prev = w;
    }
    ways_[sentinel_].next = 0;
    ways_[0].prev = sentinel_;
}

bool
FullyAssocCache::invalidate(std::uint64_t key)
{
    const std::uint32_t w = find(buckets_[bucketOf(key)], key);
    if (w == kNone)
        return false;
    unchain(w);
    Way &line = ways_[w];
    line.valid = false;
    // Free ways live at the LRU end, where the next fill takes them.
    unlink(w);
    linkAfter(w, ways_[sentinel_].prev);
    return line.dirty;
}

void
FullyAssocCache::invalidateAll()
{
    for (std::uint32_t w = 0; w < sentinel_; ++w)
        ways_[w].valid = false;
    buckets_.assign(buckets_.size(), kNone);
}

double
FullyAssocCache::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / total : 0.0;
}

} // namespace toleo
