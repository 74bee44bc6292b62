/**
 * @file
 * Fixed-size thread pool with a parallel-for helper.
 *
 * The control-plane hot paths — growing the WAN Prediction Model's
 * trees and fanning out independent experiment trials — are
 * embarrassingly parallel. The pool keeps them cheap (Terra's lesson:
 * cross-layer GDA machinery is only practical when the control plane
 * stays fast) without giving up determinism: callers pre-derive any
 * random seeds, and parallelFor() assigns work by index, so results
 * are bit-identical to a sequential loop regardless of scheduling.
 *
 * The calling thread participates in its own parallelFor() batch, so
 * nested use from a worker thread cannot deadlock: the nested caller
 * drains its own batch even when every pool thread is busy.
 */

#ifndef WANIFY_COMMON_THREAD_POOL_HH
#define WANIFY_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wanify {

class ThreadPool
{
  public:
    /**
     * Create a pool with @p threads total concurrency, including the
     * calling thread: threads - 1 workers are spawned, and the caller
     * contributes the remaining executor inside parallelFor(). A pool
     * of 1 (or 0) spawns no workers and runs batches sequentially on
     * the caller, in index order.
     */
    explicit ThreadPool(std::size_t threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Process-wide pool sized from the WANIFY_THREADS environment
     * variable when set (see parseThreadCount), otherwise
     * std::thread::hardware_concurrency().
     */
    static ThreadPool &global();

    /**
     * The pool size a WANIFY_THREADS value asks for. Only a whole
     * decimal integer in [1, 1024] is accepted (no sign, space or
     * suffix); anything else is fatal. Builds no pool.
     */
    static std::size_t parseThreadCount(const std::string &value);

    /** Total concurrency: workers plus the participating caller. */
    std::size_t threadCount() const { return workers_.size() + 1; }

    /**
     * Invoke @p fn(i) for every i in [0, n), distributing indices
     * across the pool, and block until all complete. The calling
     * thread executes work items too. If any invocation throws, the
     * first exception is rethrown here after the batch drains (the
     * remaining unstarted indices are abandoned).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();
    void enqueue(std::function<void()> task);

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

} // namespace wanify

#endif // WANIFY_COMMON_THREAD_POOL_HH
