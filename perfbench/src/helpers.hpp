// Library-independent helpers of the end-to-end benchmark: the
// percentile rule, open-loop request accounting, span recording with
// self-time subtraction, seed-to-inputs generation, and result
// formatting.  Kept free of ltsc headers so the helper tests build and
// run without the simulator.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0` on the benchmark clock.
[[nodiscard]] double seconds_since(bench_clock::time_point t0);

/// Nanoseconds since an arbitrary process-wide epoch (span timestamps).
[[nodiscard]] std::int64_t now_ns();

// --- percentile rule ------------------------------------------------------

/// A timing summary: the median, the p99, and the highest percentile
/// of the ladder {99.9, 99, 95, 90, 75, 50} that has at least ten
/// samples beyond it (nearest-rank), plus the sample count.  With fewer
/// than 20 samples no ladder rung qualifies and the tail is the maximum
/// (tail_pct = 100).  `p99` is reported under that name only when it
/// meets the rule (count >= 1000); below that it equals the tail.  All
/// zero when there are no samples.
struct tail_summary {
    double p50 = 0.0;
    double p99 = 0.0;
    double tail = 0.0;
    double tail_pct = 0.0;
    std::size_t count = 0;
};

/// Nearest-rank percentile `pct` (0 < pct <= 100) of `samples`
/// (unsorted; copied).  0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double pct);

/// Applies the percentile rule to `samples`.
[[nodiscard]] tail_summary summarize(std::vector<double> samples);

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

/// One round of a measured window (an experiment, a batch of scenarios,
/// a one-second interval): its throughput and its latency summary.
struct round_stats {
    double throughput = 0.0;
    tail_summary latency;
};

/// End-to-end figures of a run: the median across rounds of each
/// round's throughput, p50 and p99, so one disturbed round cannot move
/// them.  `samples` totals the latency samples; `min_round_samples` is
/// the smallest round's count (each round's p99 meets the percentile
/// rule when it is at least 1000).
struct rounds_summary {
    double throughput = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t rounds = 0;
    std::size_t samples = 0;
    std::size_t min_round_samples = 0;
};

[[nodiscard]] rounds_summary summarize_rounds(const std::vector<round_stats>& rounds);

// --- open-loop request accounting ----------------------------------------

/// Fixed-rate open-loop schedule: request i is due at i / rate seconds
/// after the start, whether or not earlier requests have completed.
/// Tracks how late the generator sent each request and how many due
/// requests were still unsent (the backlog) at each send.
class open_loop {
public:
    explicit open_loop(double rate_per_s);

    [[nodiscard]] double rate_per_s() const { return rate_; }

    /// Due time of request `i` [s since start].
    [[nodiscard]] double due_s(std::uint64_t i) const;

    /// Requests due at or before `now_s` (request 0 is due at 0).
    [[nodiscard]] std::uint64_t due_by(double now_s) const;

    /// Records that request `i` (sent in order: i == sent()) left at
    /// `now_s`.  Its lateness is now_s - due_s(i) (never negative: a
    /// request is never sent early); the backlog is the number of
    /// requests due by `now_s` that are still unsent after this one.
    void on_send(std::uint64_t i, double now_s);

    [[nodiscard]] std::uint64_t sent() const { return sent_; }
    [[nodiscard]] const std::vector<double>& late_ms() const { return late_ms_; }
    [[nodiscard]] std::uint64_t backlog_max() const { return backlog_max_; }

    /// Latency of request `i` completed at `done_s`, measured from when
    /// it was due [ms].
    [[nodiscard]] double latency_from_due_ms(std::uint64_t i, double done_s) const;

private:
    double rate_;
    std::uint64_t sent_ = 0;
    std::uint64_t backlog_max_ = 0;
    std::vector<double> late_ms_;
};

// --- spans ----------------------------------------------------------------

/// One recorded span.  Ids are globally unique across logs (each log
/// owns an id range); parent 0 means a root span.  `group` is the id a
/// span shares with the other spans of one decision, step or request.
struct span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t group = 0;
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Single-writer in-memory span log.  Past `capacity` spans further
/// spans are counted as dropped instead of stored, so a long traced
/// run has bounded memory.
class span_log {
public:
    span_log(std::uint32_t log_index, std::size_t capacity);

    /// Opens a span and returns its id (0 when the log is full).
    std::uint64_t begin(std::uint32_t name, std::uint64_t parent, std::uint64_t group,
                        std::int64_t start_ns);
    /// Closes span `id` (ignored for id 0).
    void end(std::uint64_t id, std::int64_t end_ns);
    /// Records a closed span in one call; returns its id (0 when full).
    std::uint64_t add(std::uint32_t name, std::uint64_t parent, std::uint64_t group,
                      std::int64_t start_ns, std::int64_t end_ns);

    [[nodiscard]] const std::vector<span>& spans() const { return spans_; }
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

private:
    std::uint64_t base_;
    std::size_t capacity_;
    std::vector<span> spans_;
    std::uint64_t dropped_ = 0;
};

/// Self time of every span [ns], in input order: its duration minus the
/// part of its interval covered by the union of its children's
/// intervals (children clipped to the parent; overlapping children
/// counted once).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<span>& spans);

/// Writes spans as CSV (id,parent,group,name,start_ns,end_ns) with the
/// name table resolved.  Returns false when the file cannot be written.
bool write_spans_csv(const std::string& path, const std::vector<span>& spans,
                     const std::vector<std::string>& names);

// --- seed-to-inputs generation --------------------------------------------

/// SplitMix64 step: the benchmark's only source of generated inputs.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);
/// Uniform double in [lo, hi) from the stream.
[[nodiscard]] double uniform(std::uint64_t& state, double lo, double hi);

/// Controller kinds of the closed-loop fleet.
enum class fleet_policy : std::uint8_t { bang = 0, lut = 1, failsafe_bang = 2 };

/// One generated fleet lane (the 12 Table-I cells are added by the
/// workload, not generated).
struct fleet_lane_input {
    std::uint64_t plant_seed = 0;     ///< Sensor-noise seed.
    double ambient_c = 0.0;           ///< Inlet temperature.
    std::size_t test = 0;             ///< Paper test 0..3.
    std::uint64_t profile_seed = 0;   ///< Seed of the paper-test profile.
    fleet_policy policy = fleet_policy::lut;
    bool monitored = false;           ///< Residual monitor + fault campaign.
    std::uint64_t campaign_seed = 0;  ///< Survivable campaign seed.
};

/// Generates `lanes` heterogeneous fleet lanes from `seed`.  Every
/// block of 12 consecutive lanes holds each (paper test, policy) pair
/// once, in seeded order, and monitors 3 of them (one per policy, with a
/// seeded test), so any contiguous shard of the fleet gets the same mix
/// whatever the seed.  Ambients are in [18, 26) degC.
[[nodiscard]] std::vector<fleet_lane_input> make_fleet_inputs(std::uint64_t seed,
                                                              std::size_t lanes);

/// One generated rollout scenario.
struct rollout_scenario_input {
    std::size_t test = 0;            ///< Paper test 0..3.
    bool lut_baseline = false;       ///< Rollout(LUT) when true, else Rollout(Bang).
    std::uint64_t plant_seed = 0;
    double ambient_c = 0.0;
    std::uint64_t profile_seed = 0;
};

/// Generates `count` rollout scenarios from `seed`: tests and baselines
/// cycle through all eight (test, baseline) pairs, plant variants are
/// seeded.
[[nodiscard]] std::vector<rollout_scenario_input> make_rollout_inputs(std::uint64_t seed,
                                                                      std::size_t count);

/// One generated telemetry lane: a stepped plateau profile.
struct telemetry_lane_input {
    std::uint64_t plant_seed = 0;
    double ambient_c = 0.0;
    std::vector<std::pair<double, double>> plateaus;  ///< (level %, seconds)
};

/// Generates `lanes` telemetry lanes from `seed`, each with `plateaus`
/// plateaus of 20-95 % load lasting 60-600 s.
[[nodiscard]] std::vector<telemetry_lane_input> make_telemetry_inputs(std::uint64_t seed,
                                                                      std::size_t lanes,
                                                                      std::size_t plateaus);

/// Seed-chosen sample of `k` distinct indices from [0, n), sorted.
[[nodiscard]] std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                                      std::size_t k);

// --- results --------------------------------------------------------------

/// One reported metric.
struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every value printed with all its significant digits.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const std::vector<metric>& metrics);

/// JSON string literal of `s` (quotes and escapes).
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
