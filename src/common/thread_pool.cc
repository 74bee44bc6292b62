#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <memory>
#include <system_error>

#include "common/error.hh"

namespace wanify {

namespace {

/** The largest pool WANIFY_THREADS may ask for. */
constexpr std::size_t kMaxThreads = 1024;

std::size_t
defaultThreadCount()
{
    if (const char *env = std::getenv("WANIFY_THREADS"))
        return ThreadPool::parseThreadCount(env);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/** Shared state of one parallelFor() batch. */
struct Batch
{
    std::size_t n = 0;
    const std::function<void(std::size_t)> *fn = nullptr;

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::size_t done = 0; // guarded by mutex
    std::exception_ptr error;
    std::mutex mutex;
    std::condition_variable cv;

    /**
     * Claim and run indices until the batch is exhausted. Every index
     * in [0, n) is claimed exactly once, so `done` reaches n exactly
     * when the batch is complete; after a failure the remaining
     * indices are still claimed but their work is skipped.
     */
    void
    drain()
    {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            if (!failed.load(std::memory_order_relaxed)) {
                try {
                    (*fn)(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!error)
                        error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (++done == n)
                cv.notify_all();
        }
    }
};

} // namespace

std::size_t
ThreadPool::parseThreadCount(const std::string &value)
{
    // An unsigned from_chars takes no sign or space and reports
    // overflow; the whole string must be digits.
    const char *end = value.data() + value.size();
    std::size_t count = 0;
    const auto [ptr, ec] = std::from_chars(value.data(), end, count);
    if (ec != std::errc() || ptr != end || count < 1 || count > kMaxThreads)
        fatal("WANIFY_THREADS must be an integer in [1, 1024]");
    return count;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t workers = threads <= 1 ? 0 : threads - 1;
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreadCount());
    return pool;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    // No workers (a 1-thread pool, e.g. WANIFY_THREADS=1): the caller
    // runs everything inline, in index order.
    if (n == 1 || workers_.empty()) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->fn = &fn;

    // One helper per worker (capped at n - 1: the caller drains too).
    // Helpers that wake after the batch is exhausted exit immediately.
    const std::size_t helpers =
        std::min(workers_.size(), n - 1);
    for (std::size_t i = 0; i < helpers; ++i)
        enqueue([batch] { batch->drain(); });

    batch->drain();

    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->cv.wait(lock, [&] { return batch->done == batch->n; });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace wanify
