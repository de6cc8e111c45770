#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"

namespace ltsc::util {

namespace {

std::size_t resolve_thread_count(std::size_t requested) {
    if (requested != 0) {
        return requested;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max<std::size_t>(1, hw);
}

// How long an idle thread keeps yielding before it parks.  Long enough
// to bridge the gap between two batches of sub-millisecond jobs, short
// enough that a pool idling between long batches costs next to nothing.
constexpr std::chrono::microseconds kSpinBeforePark{200};

// Yields until `done()` holds or the spin budget runs out; returns
// whether `done()` held.
template <class Pred>
bool spin_until(Pred done) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
    while (!done()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        std::this_thread::yield();
    }
    return true;
}

}  // namespace

thread_pool::thread_pool(std::size_t thread_count) {
    const std::size_t total = resolve_thread_count(thread_count);
    workers_.reserve(total - 1);
    for (std::size_t i = 0; i + 1 < total; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

thread_pool::~thread_pool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& w : workers_) {
        w.join();
    }
}

void thread_pool::work_through() {
    // Claim indices until the range is exhausted.  On an exception,
    // record the first one and drain the remaining indices so the batch
    // still terminates promptly.
    while (true) {
        const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
        if (i >= job_count_) {
            return;
        }
        try {
            (*job_)(i);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_) {
                first_error_ = std::current_exception();
            }
            next_index_.store(job_count_, std::memory_order_relaxed);
            return;
        }
    }
}

void thread_pool::worker_loop() {
    std::uint64_t seen_generation = 0;
    const auto new_batch = [&] { return generation_ != seen_generation; };
    while (true) {
        // Spin only between batches: a pool that has not run one yet
        // parks at once rather than compete with the thread building it.
        if (seen_generation == 0 || !spin_until(new_batch)) {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [&] { return stopping_ || new_batch(); });
            if (stopping_) {
                return;
            }
        }
        seen_generation = generation_;
        work_through();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --busy_workers_;
        }
        batch_done_.notify_one();
    }
}

void thread_pool::run_indexed(std::size_t job_count,
                              const std::function<void(std::size_t)>& job) {
    ensure(job != nullptr, "thread_pool::run_indexed: null job");
    if (job_count == 0) {
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ensure(job_ == nullptr, "thread_pool::run_indexed: pool already running a batch");
        job_ = &job;
        job_count_ = job_count;
        next_index_.store(0, std::memory_order_relaxed);
        busy_workers_ = workers_.size();
        first_error_ = nullptr;
        ++generation_;
    }
    work_ready_.notify_all();

    // The calling thread is a full member of the pool.
    work_through();

    const auto all_done = [&] { return busy_workers_ == 0; };
    spin_until(all_done);
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        batch_done_.wait(lock, all_done);
        job_ = nullptr;
        error = first_error_;
        first_error_ = nullptr;
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

}  // namespace ltsc::util
