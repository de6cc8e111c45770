// ltsc_perfbench: one end-to-end run of one benchmark workload.
//
//   ltsc_perfbench --workload fleet_control|rollout_mpc
//                  --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--git-sha SHA]
//
// Prints a provenance line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics (from a separate traced pass)
// with --trace 1.  Exit status 0 on a completed run, even when output
// checks fail (they count as failed operations); 2 on bad arguments or
// an error that stopped the run.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

struct metric_def {
    const char* name;
    const char* unit;
};

/// The per-layer metrics, in report order (BENCHMARK.json's per_layer).
/// A layer a workload does not run reports 0.  latency_p99_ms comes
/// from the traced run's untraced half: on the reference host a p99 of
/// sub-millisecond operations is set by scheduler stalls, too unsteady
/// to carry a bound, so it is reported here instead of end to end.
constexpr metric_def kLayerMetrics[] = {
    {"latency_p99_ms", "ms"},
    {"core.decide_calls", "count"},
    {"core.decide_s", "s"},
    {"core.decide_ns_p50", "ns"},
    {"core.baseline_decide_s", "s"},
    {"rollout.self_s", "s"},
    {"rollout.candidates_per_decision", "count"},
    {"rollout.lane_steps_per_decision", "count"},
    {"rollout.degenerate_share", "ratio"},
    {"rollout.guarded_share", "ratio"},
    {"rollout.engine_build_s", "s"},
    {"fleet.shard_span_s_max", "s"},
    {"fleet.shard_imbalance", "ratio"},
    {"plant.self_s", "s"},
    {"metrics.compute_s", "s"},
    {"trace.bytes_per_lane_step", "B"},
    {"telemetry.history_bytes_per_lane", "B"},
    {"faults.events_fired", "count"},
    {"monitor.lanes", "count"},
    {"service.ingest_rows_per_s", "1/s"},
    {"http.query_ms_p50", "ms"},
    {"fleet.step_ms_p50", "ms"},
    {"fleet.step_ms_p99", "ms"},
    {"fleet.shard_skew_ms_p50", "ms"},
    {"service.publish_us_p50", "us"},
    {"service.publish_us_p99", "us"},
    {"service.published_groups", "count"},
    {"service.applied_groups", "count"},
    {"service.dropped_groups", "count"},
    {"service.aggregator_lag_epochs_p99", "count"},
    {"service.drain_s", "s"},
    {"http.requests", "count"},
    {"http.errors", "count"},
    {"http.torn_reads", "count"},
    {"http.epoch_regressions", "count"},
    {"client.late_ms_p99", "ms"},
    {"client.backlog_max", "count"},
    {"trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "error: %s\nusage: ltsc_perfbench --workload fleet_control|rollout_mpc "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]\n",
                 why);
    std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE || s[0] == '-') {
        return false;
    }
    out = v;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    run_options opt;
    opt.out_dir = ".";
    std::string git_sha = "unknown";
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + arg).c_str());
        }
        const char* val = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            if (!parse_u64(val, opt.seed)) {
                usage("--seed must be a non-negative integer");
            }
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parse_u64(val, n) || n < 1 || n > 3600) {
                usage("--seconds must be an integer in [1, 3600]");
            }
            opt.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (arg == "--trace") {
            if (!parse_u64(val, n) || n > 1) {
                usage("--trace must be 0 or 1");
            }
            opt.trace = n == 1;
            have_trace = true;
        } else if (arg == "--out-dir") {
            opt.out_dir = val;
        } else if (arg == "--git-sha") {
            git_sha = val;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    opt.cpus = affinity_cpus();

    workload_result r;
    try {
        if (opt.workload == "fleet_control") {
            r = run_fleet_control(opt);
        } else if (opt.workload == "rollout_mpc") {
            r = run_rollout_mpc(opt);
        } else {
            usage(("unknown workload " + opt.workload).c_str());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    const rounds_summary e2e = summarize_rounds(r.rounds);
    std::vector<metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"throughput_per_s", e2e.throughput, "1/s"},
            {"latency_p50_ms", e2e.p50, "ms"},
            {"table1_energy_err_pct", r.table1_energy_err_pct, "%"},
            {"setup_s", r.setup_s, "s"},
            {"peak_rss_mb", peak_rss_mb(), "MiB"},
        };
    } else {
        r.layer["latency_p99_ms"] = e2e.p99;
        const auto report = [&](const metric_def& d) {
            const auto it = r.layer.find(d.name);
            metrics.push_back({d.name, it == r.layer.end() ? 0.0 : it->second, d.unit});
        };
        std::for_each(std::begin(kLayerMetrics), std::end(kLayerMetrics), report);
    }

    r.provenance["workload"] = json_string(opt.workload);
    r.provenance["seed"] = std::to_string(opt.seed);
    r.provenance["seconds"] = std::to_string(static_cast<long>(opt.seconds));
    r.provenance["trace"] = opt.trace ? "1" : "0";
    r.provenance["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    r.provenance["affinity_cpus"] = std::to_string(opt.cpus);
    r.provenance["affinity"] = json_string(affinity_list());
    r.provenance["build_type"] = json_string(PERFBENCH_BUILD_TYPE);
    r.provenance["compiler"] = json_string(__VERSION__);
    r.provenance["git_sha"] = json_string(git_sha);
    r.provenance["rounds"] = std::to_string(e2e.rounds);
    r.provenance["latency_samples"] = std::to_string(e2e.samples);
    r.provenance["latency_min_round_samples"] = std::to_string(e2e.min_round_samples);
    std::string prov = "{\"provenance\": {";
    for (const auto& [k, v] : r.provenance) {
        prov += (prov.back() == '{' ? "" : ", ") + json_string(k) + ": " + v;
    }
    prov += "}}";
    const std::string result = result_json(r.correct, r.attempted, r.failed, metrics);

    const std::string path = opt.out_dir + "/" + opt.workload + (opt.trace ? ".trace" : "") +
                             ".result.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "%s\n{\"rounds\": [", prov.c_str());
        for (std::size_t i = 0; i < r.rounds.size(); ++i) {
            const round_stats& rd = r.rounds[i];
            std::fprintf(f, "%s{\"throughput\": %.9g, \"p50\": %.9g, \"p99\": %.9g, \"n\": %zu}",
                         i == 0 ? "" : ", ", rd.throughput, rd.latency.p50, rd.latency.p99,
                         rd.latency.count);
        }
        std::fprintf(f, "]}\n%s\n", result.c_str());
        std::fclose(f);
    }
    std::printf("%s\n%s\n", prov.c_str(), result.c_str());
    return 0;
}
