/**
 * @file
 * The simulator's one worker pool, shared by both thread tiers.
 *
 *  - Sweep cells (--jobs): runSweep/runRackSweep (sim/sweep.cc) run
 *    one grid cell per index.  Each cell builds its own System (or
 *    rack of Systems), so cells share no mutable state.
 *  - Rack node halves (--rack-threads): runRack (sim/rack.cc) stages
 *    each live node's private epoch half (System::stepEpochPrivate:
 *    generator draws, L1/L2, event staging) per index, once per
 *    epoch.  Every node's shared replay (L3, topology, protection
 *    engine, the shared Toleo device) still runs single-threaded in
 *    node order afterwards.
 *
 * tools/toleo_lint bans raw std::thread outside this pool: new
 * parallelism must go through it, so the deterministic-replay
 * structure survives.
 *
 * Design constraints, in order:
 *  - determinism: threads claim indices dynamically from one shared
 *    counter, so which thread runs which index varies from run to
 *    run.  Nothing about that can leak into results, because every
 *    body touches only its own index's state;
 *  - uneven work: dynamic claiming keeps every thread busy while
 *    cells (or nodes) of very different cost remain;
 *  - cheap dispatch: a rack epoch half is only a few thousand
 *    references per node, so a dispatch is one mutex round-trip and
 *    one condition-variable wake, with the threads kept alive across
 *    run() calls (no spawn/join per epoch);
 *  - clean teardown under exceptions: a throwing body is captured and
 *    the first exception is rethrown on the caller after the barrier.
 */

#ifndef TOLEO_SIM_WORKER_POOL_HH
#define TOLEO_SIM_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace toleo {

class WorkerPool
{
  public:
    /**
     * @param threads Total concurrency including the calling thread:
     * the pool spawns threads - 1 workers.  Must be >= 1; 1 spawns
     * nothing and run() degenerates to a plain loop in index order.
     */
    explicit WorkerPool(unsigned threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run fn(i) exactly once for every i in [0, n).  The caller and
     * the workers claim indices from a shared counter until none is
     * left.  Blocks until every index has completed.  A throwing body
     * does not stop the other indices; the first exception thrown is
     * rethrown here after the barrier, and the pool stays usable.
     * The bodies must touch disjoint state per index -- the pool adds
     * no locking around them.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();
    /** Claim and run indices of the current task until none is left. */
    void drain(const std::function<void(std::size_t)> &fn, std::size_t n);

    unsigned workers_; ///< spawned threads (total - 1)
    std::vector<std::thread> pool_;

    /** Next unclaimed index of the current task. */
    std::atomic<std::size_t> next_{0};

    std::mutex mutex_;
    std::condition_variable start_;
    std::condition_variable done_;
    /** Dispatch ticket: bumped once per run(); workers latch it. */
    std::uint64_t epoch_ = 0;
    /** Workers still inside the current task. */
    unsigned pending_ = 0;
    bool stop_ = false;
    std::size_t taskN_ = 0;
    const std::function<void(std::size_t)> *task_ = nullptr;
    std::exception_ptr firstError_;
};

} // namespace toleo

#endif // TOLEO_SIM_WORKER_POOL_HH
