// util::thread_pool: coverage of the index distribution contract that
// sim::parallel_runner's determinism rests on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

using ltsc::util::thread_pool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        thread_pool pool(threads);
        EXPECT_EQ(pool.thread_count(), threads);
        std::vector<std::atomic<int>> hits(257);
        pool.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", threads " << threads;
        }
    }
}

TEST(ThreadPool, ReusableAcrossBatches) {
    thread_pool pool(3);
    std::atomic<int> total{0};
    for (int batch = 0; batch < 5; ++batch) {
        pool.run_indexed(10, [&](std::size_t) { ++total; });
    }
    EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, SpinningAndParkedWorkersBothPickUpBatches) {
    // Back-to-back batches reach workers still spinning from the last
    // one; a pause longer than the spin budget makes them park first.
    thread_pool pool(4);
    std::atomic<int> total{0};
    for (int batch = 0; batch < 2000; ++batch) {
        pool.run_indexed(4, [&](std::size_t) { ++total; });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.run_indexed(4, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 2001 * 4);
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
    thread_pool pool(2);
    pool.run_indexed(0, [](std::size_t) { FAIL() << "job ran for empty batch"; });
}

TEST(ThreadPool, MoreThreadsThanJobs) {
    thread_pool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1);
    }
}

TEST(ThreadPool, FirstExceptionPropagates) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        thread_pool pool(threads);
        EXPECT_THROW(
            pool.run_indexed(64,
                             [&](std::size_t i) {
                                 if (i % 7 == 3) {
                                     throw std::runtime_error("boom");
                                 }
                             }),
            std::runtime_error);
        // The pool stays usable after a failed batch.
        std::atomic<int> ok{0};
        pool.run_indexed(8, [&](std::size_t) { ++ok; });
        EXPECT_EQ(ok.load(), 8);
    }
}

TEST(ThreadPool, NullJobThrows) {
    thread_pool pool(2);
    EXPECT_THROW(pool.run_indexed(1, std::function<void(std::size_t)>{}),
                 ltsc::util::precondition_error);
}

}  // namespace
