// Fixed-size worker pool for independent, index-addressed jobs.
//
// The pool exists for scenario-level parallelism: dozens of independent
// simulations that each take milliseconds to minutes.  Work is handed out
// as the half-open index range [0, job_count) through an atomic counter,
// so results keyed by index are deterministic regardless of thread count
// or scheduling; the caller's thread participates in the work, and a pool
// constructed with one thread degrades to a plain serial loop.
//
// Between batches an idle worker (and a caller waiting on stragglers)
// yields in a short bounded spin before it parks on a condition
// variable, so back-to-back batches, such as one fleet step after
// another, find the workers awake on their own CPUs.  Parking after
// every batch made each batch a wake-up, and a guest scheduler with idle
// vCPUs may place woken workers on the caller's CPU and keep them there,
// running the whole batch serially on one core.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ltsc::util {

class thread_pool {
public:
    /// Creates a pool that executes jobs on `thread_count` threads in
    /// total (including the calling thread).  0 means "one per hardware
    /// thread".
    explicit thread_pool(std::size_t thread_count = 0);

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    ~thread_pool();

    /// Total execution width, including the calling thread.
    [[nodiscard]] std::size_t thread_count() const { return workers_.size() + 1; }

    /// Runs `job(i)` for every i in [0, job_count), distributing indices
    /// across the pool, and returns when all jobs finished.  The first
    /// exception thrown by any job is rethrown here (remaining indices
    /// are abandoned).  Not reentrant: one run at a time per pool.
    void run_indexed(std::size_t job_count, const std::function<void(std::size_t)>& job);

private:
    void worker_loop();
    void work_through();

    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable batch_done_;
    const std::function<void(std::size_t)>* job_ = nullptr;
    std::size_t job_count_ = 0;
    std::atomic<std::size_t> next_index_{0};
    // Changed only under mutex_; the bounded spins read them without it.
    std::atomic<std::size_t> busy_workers_{0};
    std::atomic<std::uint64_t> generation_{0};
    bool stopping_ = false;
    std::exception_ptr first_error_;
};

}  // namespace ltsc::util
