// Tests of the benchmark's own helpers: the percentile rule, open-loop
// lateness and backlog accounting, self-time subtraction, seed-to-inputs
// generation, and the result line.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace {

using namespace perfbench;

std::vector<double> one_to(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) {
        v.push_back(static_cast<double>(i));  // descending: summarize must sort
    }
    return v;
}

// --- percentile rule ------------------------------------------------------

TEST(PercentileRule, NearestRank) {
    EXPECT_EQ(percentile(one_to(100), 50.0), 50.0);
    EXPECT_EQ(percentile(one_to(100), 99.0), 99.0);
    EXPECT_EQ(percentile(one_to(100), 100.0), 100.0);
    EXPECT_EQ(percentile(one_to(10), 95.0), 10.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
    const tail_summary s = summarize(one_to(1000));
    EXPECT_EQ(s.count, 1000u);
    EXPECT_EQ(s.p50, 500.0);
    EXPECT_EQ(s.tail_pct, 99.0);  // 10 beyond rank 990; p99.9 has only 1
    EXPECT_EQ(s.tail, 990.0);
    EXPECT_EQ(s.p99, 990.0);
}

TEST(PercentileRule, FallsBackToLowerRungs) {
    const tail_summary s999 = summarize(one_to(10000));
    EXPECT_EQ(s999.tail_pct, 99.9);
    EXPECT_EQ(s999.tail, 9990.0);
    EXPECT_EQ(s999.p99, 9900.0);

    const tail_summary s95 = summarize(one_to(999));  // p99 leaves 9 beyond
    EXPECT_EQ(s95.tail_pct, 95.0);
    EXPECT_EQ(s95.tail, 950.0);
    EXPECT_EQ(s95.p99, 950.0);  // p99 does not meet the rule: the tail stands in

    const tail_summary s75 = summarize(one_to(40));
    EXPECT_EQ(s75.tail_pct, 75.0);
    EXPECT_EQ(s75.tail, 30.0);

    const tail_summary s50 = summarize(one_to(20));
    EXPECT_EQ(s50.tail_pct, 50.0);
    EXPECT_EQ(s50.tail, 10.0);
}

TEST(PercentileRule, TooFewSamplesReportTheMaximum) {
    const tail_summary s = summarize(one_to(19));
    EXPECT_EQ(s.tail_pct, 100.0);
    EXPECT_EQ(s.tail, 19.0);
    EXPECT_EQ(s.count, 19u);
    const tail_summary none = summarize({});
    EXPECT_EQ(none.count, 0u);
    EXPECT_EQ(none.tail, 0.0);
}

TEST(PercentileRule, RoundsReportMediansAcrossRounds) {
    std::vector<round_stats> rounds;
    for (const double t : {10.0, 30.0, 20.0}) {
        rounds.push_back({t, summarize(one_to(static_cast<std::size_t>(t) * 100))});
    }
    const rounds_summary s = summarize_rounds(rounds);
    EXPECT_EQ(s.rounds, 3u);
    EXPECT_EQ(s.throughput, 20.0);
    EXPECT_EQ(s.p50, 1000.0);  // the 2000-sample round's median
    EXPECT_EQ(s.p99, 1980.0);
    EXPECT_EQ(s.samples, 6000u);
    EXPECT_EQ(s.min_round_samples, 1000u);
    EXPECT_EQ(summarize_rounds({}).rounds, 0u);
}

// --- open-loop accounting -------------------------------------------------

TEST(OpenLoop, DueTimesFollowTheFixedRate) {
    const open_loop s(100.0);
    EXPECT_DOUBLE_EQ(s.due_s(0), 0.0);
    EXPECT_DOUBLE_EQ(s.due_s(25), 0.25);
    EXPECT_EQ(s.due_by(-0.001), 0u);
    EXPECT_EQ(s.due_by(0.0), 1u);
    EXPECT_EQ(s.due_by(0.0099), 1u);
    EXPECT_EQ(s.due_by(0.01), 2u);
    EXPECT_THROW(open_loop(0.0), std::invalid_argument);
}

TEST(OpenLoop, LatenessAndBacklogAccounting) {
    open_loop s(100.0);  // one request every 10 ms
    s.on_send(0, 0.0);   // on time
    s.on_send(1, 0.012); // 2 ms late; due_by(12 ms) = 2, all sent
    // A 30 ms stall: at 45 ms requests 0..4 are due, 2 are sent.  Sending
    // request 2 leaves 3 and 4 waiting.
    s.on_send(2, 0.045);
    s.on_send(3, 0.046);
    s.on_send(4, 0.047);
    ASSERT_EQ(s.late_ms().size(), 5u);
    EXPECT_NEAR(s.late_ms()[0], 0.0, 1e-9);
    EXPECT_NEAR(s.late_ms()[1], 2.0, 1e-9);
    EXPECT_NEAR(s.late_ms()[2], 25.0, 1e-9);
    EXPECT_NEAR(s.late_ms()[4], 7.0, 1e-9);
    EXPECT_EQ(s.backlog_max(), 2u);
    EXPECT_EQ(s.sent(), 5u);
    // Latency counts from the due time, so the stall's wait is charged.
    EXPECT_NEAR(s.latency_from_due_ms(2, 0.046), 26.0, 1e-9);
    EXPECT_THROW(s.on_send(9, 0.1), std::invalid_argument);  // out of order
}

// --- spans and self time ----------------------------------------------------

TEST(SelfTime, SubtractsChildrenOnce) {
    span_log log(0, 16);
    const std::uint64_t root = log.begin(0, 0, 1, 0);
    const std::uint64_t a = log.add(1, root, 1, 10, 30);
    log.add(1, root, 1, 20, 40);  // overlaps a: [10, 40) covered once
    log.add(1, a, 1, 12, 14);     // grandchild: only a's self time shrinks
    log.add(1, root, 1, 90, 120); // sticks out of the parent: clipped to 100
    log.end(root, 100);
    const std::vector<std::int64_t> self = self_times_ns(log.spans());
    ASSERT_EQ(self.size(), 5u);
    EXPECT_EQ(self[0], 100 - 30 - 10);
    EXPECT_EQ(self[1], 20 - 2);
    EXPECT_EQ(self[2], 20);
    EXPECT_EQ(self[3], 2);
    EXPECT_EQ(self[4], 30);
}

TEST(SelfTime, ParentsAcrossLogs) {
    span_log a(0, 4);
    span_log b(1, 4);
    const std::uint64_t root = a.add(0, 0, 7, 0, 50);
    b.add(1, root, 7, 5, 15);
    EXPECT_NE(root, 0u);
    std::vector<span> all = a.spans();
    all.insert(all.end(), b.spans().begin(), b.spans().end());
    EXPECT_NE(all[0].id, all[1].id);
    const std::vector<std::int64_t> self = self_times_ns(all);
    EXPECT_EQ(self[0], 40);
    EXPECT_EQ(self[1], 10);
}

TEST(SpanLog, CountsDropsPastCapacity) {
    span_log log(0, 2);
    EXPECT_NE(log.add(0, 0, 0, 0, 1), 0u);
    EXPECT_NE(log.add(0, 0, 0, 1, 2), 0u);
    EXPECT_EQ(log.add(0, 0, 0, 2, 3), 0u);
    log.end(0, 5);  // closing a dropped span is a no-op
    EXPECT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.dropped(), 1u);
}

// --- seed-to-inputs generation ------------------------------------------------

bool same(const fleet_lane_input& a, const fleet_lane_input& b) {
    return a.plant_seed == b.plant_seed && a.ambient_c == b.ambient_c && a.test == b.test &&
           a.profile_seed == b.profile_seed && a.policy == b.policy &&
           a.monitored == b.monitored && a.campaign_seed == b.campaign_seed;
}

TEST(Inputs, FleetIsDeterministicPerSeed) {
    const auto a = make_fleet_inputs(42, 96);
    const auto b = make_fleet_inputs(42, 96);
    const auto c = make_fleet_inputs(43, 96);
    ASSERT_EQ(a.size(), 96u);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(same(a[i], b[i])) << i;
        differs = differs || !same(a[i], c[i]);
    }
    EXPECT_TRUE(differs);
}

TEST(Inputs, FleetMixIsBalancedInEveryBlockForEverySeed) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
        const auto in = make_fleet_inputs(seed, 96);
        for (std::size_t block = 0; block < 8; ++block) {
            int seen[4][3] = {};
            std::size_t monitored_per_policy[3] = {};
            for (std::size_t j = 0; j < 12; ++j) {
                const fleet_lane_input& l = in[block * 12 + j];
                ++seen[l.test][static_cast<int>(l.policy)];
                monitored_per_policy[static_cast<int>(l.policy)] += l.monitored ? 1 : 0;
                EXPECT_GE(l.ambient_c, 18.0);
                EXPECT_LT(l.ambient_c, 26.0);
            }
            for (const auto& row : seen) {
                for (const int n : row) {
                    EXPECT_EQ(n, 1);
                }
            }
            for (const std::size_t n : monitored_per_policy) {
                EXPECT_EQ(n, 1u);
            }
        }
    }
    EXPECT_EQ(make_fleet_inputs(3, 20).size(), 20u);  // partial last block
}

TEST(Inputs, RolloutAndTelemetryAreDeterministicPerSeed) {
    const auto r1 = make_rollout_inputs(5, 32);
    const auto r2 = make_rollout_inputs(5, 32);
    const auto r3 = make_rollout_inputs(6, 32);
    ASSERT_EQ(r1.size(), 32u);
    for (std::size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].plant_seed, r2[i].plant_seed);
        EXPECT_EQ(r1[i].ambient_c, r2[i].ambient_c);
        EXPECT_EQ(r1[i].test, i % 4);
        EXPECT_EQ(r1[i].lut_baseline, (i / 4) % 2 == 1);
        EXPECT_NE(r1[i].plant_seed, r3[i].plant_seed);
    }
    const auto t1 = make_telemetry_inputs(5, 8, 4);
    const auto t2 = make_telemetry_inputs(5, 8, 4);
    const auto t3 = make_telemetry_inputs(6, 8, 4);
    for (std::size_t l = 0; l < t1.size(); ++l) {
        ASSERT_EQ(t1[l].plateaus.size(), 4u);
        EXPECT_EQ(t1[l].plateaus, t2[l].plateaus);
        EXPECT_NE(t1[l].plateaus, t3[l].plateaus);
        for (const auto& [level, secs] : t1[l].plateaus) {
            EXPECT_GE(level, 20.0);
            EXPECT_LT(level, 95.0);
            EXPECT_GE(secs, 60.0);
            EXPECT_LT(secs, 600.0);
        }
    }
}

TEST(Inputs, SampleIndicesAreDistinctSortedAndSeeded) {
    const auto a = sample_indices(9, 100, 8);
    EXPECT_EQ(a, sample_indices(9, 100, 8));
    EXPECT_NE(a, sample_indices(10, 100, 8));
    ASSERT_EQ(a.size(), 8u);
    for (std::size_t i = 1; i < a.size(); ++i) {
        EXPECT_LT(a[i - 1], a[i]);
    }
    EXPECT_LT(a.back(), 100u);
    EXPECT_EQ(sample_indices(9, 3, 8).size(), 3u);
}

// --- result line ------------------------------------------------------------------

TEST(ResultJson, KeysAndFullPrecision) {
    const std::string s =
        result_json(true, 12, 1, {{"latency_ms", 1.0 / 3.0, "ms"}, {"setup_s", 2.5, "s"}});
    EXPECT_EQ(s,
              "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": "
              "{\"latency_ms\": {\"value\": 0.33333333333333331, \"unit\": \"ms\"}, "
              "\"setup_s\": {\"value\": 2.5, \"unit\": \"s\"}}}");
    EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

}  // namespace
