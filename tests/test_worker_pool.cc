/**
 * @file
 * WorkerPool contract: every index in [0, n) runs exactly once per
 * run(), for any n against any thread count, across many run() calls
 * on one pool (the rack calls run() once per epoch), with the first
 * exception rethrown after the barrier.
 */

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/worker_pool.hh"

using namespace toleo;

namespace {

/**
 * Run one task of @p n indices on @p pool and assert each index ran
 * exactly once.  Index i spins for a cost that varies steeply with i
 * (every 7th index is ~100x dearer), so threads finish their claims
 * at very different times.
 */
void
expectEachIndexOnce(WorkerPool &pool, std::size_t n)
{
    std::vector<std::atomic<unsigned>> hits(n);
    for (auto &h : hits)
        h.store(0);
    pool.run(n, [&](std::size_t i) {
        volatile unsigned sink = 0;
        const unsigned spin = i % 7 == 0 ? 2000 : 20;
        for (unsigned k = 0; k < spin; ++k)
            sink = sink + k;
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " of " << n;
}

} // namespace

TEST(WorkerPool, ZeroIndicesRunNothing)
{
    WorkerPool pool(4);
    std::atomic<unsigned> ran{0};
    pool.run(0, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 0u);
    // The pool still dispatches normally afterwards.
    expectEachIndexOnce(pool, 3);
}

TEST(WorkerPool, FewerIndicesThanThreads)
{
    WorkerPool pool(4);
    expectEachIndexOnce(pool, 1);
    expectEachIndexOnce(pool, 3);
}

TEST(WorkerPool, ManyUnevenIndicesRunOnceEach)
{
    WorkerPool pool(4);
    expectEachIndexOnce(pool, 20000);
}

TEST(WorkerPool, ManyConsecutiveRunsOnOnePool)
{
    // The rack reuses one pool for every epoch; sizes cycle through
    // n = 0, n < T, n = T and n >> T so each run() starts from a
    // different leftover counter.
    WorkerPool pool(4);
    const std::size_t sizes[] = {0, 1, 3, 4, 5, 257};
    for (unsigned r = 0; r < 600; ++r)
        expectEachIndexOnce(pool, sizes[r % 6]);
}

TEST(WorkerPool, SingleThreadRunsInIndexOrder)
{
    WorkerPool pool(1);
    std::vector<std::size_t> order;
    pool.run(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, ThrowingIndexDoesNotSkipTheOthers)
{
    // One body throws; every other index still runs once, the first
    // exception reaches the caller, and the pool takes the next run.
    for (const unsigned threads : {1u, 4u}) {
        WorkerPool pool(threads);
        std::vector<std::atomic<unsigned>> hits(64);
        for (auto &h : hits)
            h.store(0);
        EXPECT_THROW(pool.run(hits.size(),
                              [&](std::size_t i) {
                                  hits[i].fetch_add(1);
                                  if (i == 10)
                                      throw std::runtime_error("boom");
                              }),
                     std::runtime_error);
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
        expectEachIndexOnce(pool, 64);
    }
}
