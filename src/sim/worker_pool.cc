#include "sim/worker_pool.hh"

#include "common/logging.hh"

namespace toleo {

WorkerPool::WorkerPool(unsigned threads)
    : workers_(threads > 0 ? threads - 1 : 0)
{
    if (threads == 0)
        panic("WorkerPool: thread count must be >= 1");
    pool_.reserve(workers_);
    for (unsigned s = 0; s < workers_; ++s)
        pool_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_.notify_all();
    for (auto &t : pool_)
        t.join();
}

void
WorkerPool::drain(const std::function<void(std::size_t)> &fn,
                  std::size_t n)
{
    // Relaxed is enough: the counter only hands out distinct indices.
    // The bodies' writes reach the caller through mutex_ (pending_
    // below and in run()).
    for (;;) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return;
        try {
            fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
    }
}

void
WorkerPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_.wait(lock,
                        [&] { return stop_ || epoch_ != seen; });
            if (stop_)
                return;
            seen = epoch_;
            fn = task_;
            n = taskN_;
        }
        drain(*fn, n);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
        }
        done_.notify_one();
    }
}

void
WorkerPool::run(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    // Every worker left the previous task before run() returned, so
    // nothing else touches the counter here; the epoch_ bump below
    // publishes the reset to them.
    next_.store(0, std::memory_order_relaxed);
    if (workers_ == 0) {
        drain(fn, n);
    } else {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            task_ = &fn;
            taskN_ = n;
            pending_ = workers_;
            ++epoch_;
        }
        start_.notify_all();
        drain(fn, n);
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return pending_ == 0; });
        task_ = nullptr;
    }
    if (firstError_) {
        std::exception_ptr err;
        std::swap(err, firstError_);
        std::rethrow_exception(err);
    }
}

} // namespace toleo
