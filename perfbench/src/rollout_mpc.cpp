// rollout_mpc: Rollout(LUT) and Rollout(Bang) (the fig_rollout
// configuration) over the four paper tests x seeded plant variants,
// fanned out on sim::parallel_runner with serial engines.
//
// Why this workload: decisions take most of the CPU here.  Each one is
// a snapshot/load round trip plus a small in-cache batch of <= 16
// candidate lanes stepped by sim::rollout_engine, so it exercises the
// small-batch fixed costs that fleet_control amortizes away, and
// server_batch through a different route.
//
// One operation is one committed decision (and each of the 12 Table-I
// cells run after the window is one more).  Decision latency is timed
// by a decorator around each rollout controller; the first decision
// that rolls out after a plant attach builds the engine and is left out
// of the latency samples (set-up time includes one engine build).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/lut_controller.hpp"
#include "core/rollout_controller.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/rollout_engine.hpp"
#include "sim/server_simulator.hpp"
#include "workload/paper_tests.hpp"

namespace perfbench {

using namespace ltsc;

namespace {

constexpr std::size_t kScenarioPool = 4096;
constexpr std::size_t kScalarSamples = 2;
constexpr std::size_t kSpanCapacity = 1u << 16;

enum span_name : std::uint32_t { kDecision, kBaseline };
const std::vector<std::string> kSpanNames = {"core.rollout_decide", "core.baseline_decide"};

/// The fig_rollout configuration.
core::rollout_controller_config rollout_config() {
    core::rollout_controller_config cfg;
    cfg.decision_period = util::seconds_t{30.0};
    cfg.horizon = util::seconds_t{180.0};
    cfg.lattice_step = util::rpm_t{300.0};
    cfg.lattice_radius = 2;
    cfg.guard_temp_c = 75.0;
    return cfg;
}

/// Everything one scenario records.  Written only by the runner thread
/// that runs the scenario.
struct scenario_record {
    scenario_record() : log(0, 0) {}
    std::vector<double> latency_ms;  ///< Decisions past the engine build.
    std::uint64_t decisions = 0;
    std::uint64_t rolled = 0;      ///< Decisions that ran a rollout.
    std::uint64_t candidates = 0;  ///< Candidates over rolled decisions.
    std::uint64_t guarded = 0;     ///< Candidates cut short by the guard.
    std::uint64_t lane_steps = 0;  ///< Candidate lane-steps integrated.
    bool traced = false;
    span_log log;
    std::uint64_t open_decision = 0;  ///< Span of the decision in flight.
};

/// The scenario's wrapped baseline policy.
std::unique_ptr<core::fan_controller> make_baseline(const rollout_scenario_input& in,
                                                    const core::fan_lut& lut) {
    if (in.lut_baseline) {
        return std::make_unique<core::lut_controller>(lut);
    }
    return std::make_unique<core::bang_bang_controller>();
}

/// Outer probe: per-decision latency and rollout readouts.
class decision_probe final : public decide_probe {
public:
    decision_probe(scenario_record& rec, const core::rollout_controller& rc)
        : rec_(&rec), rc_(&rc) {}
    void on_attach(const core::plant_access* plant) override {
        if (plant != nullptr) {
            engine_built_ = false;
        }
    }
    void before(std::int64_t t0) override {
        if (rec_->traced) {
            rec_->open_decision = rec_->log.begin(kDecision, 0, rec_->decisions + 1, t0);
        }
    }
    void after(std::int64_t t0, std::int64_t t1) override {
        ++rec_->decisions;
        rec_->log.end(rec_->open_decision, t1);
        const sim::rollout_result& last = rc_->last_rollout();
        if (last.scores.empty()) {
            rec_->latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
            return;
        }
        ++rec_->rolled;
        rec_->candidates += last.scores.size();
        for (const sim::candidate_score& c : last.scores) {
            rec_->guarded += c.guarded ? 1 : 0;
            rec_->lane_steps += static_cast<std::uint64_t>(c.steps);
        }
        if (engine_built_) {
            rec_->latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        }
        engine_built_ = true;
    }

private:
    scenario_record* rec_;
    const core::rollout_controller* rc_;
    bool engine_built_ = false;
};

/// Inner probe around the wrapped baseline (traced pass only).
class baseline_probe final : public decide_probe {
public:
    explicit baseline_probe(scenario_record& rec) : rec_(&rec) {}
    void after(std::int64_t t0, std::int64_t t1) override {
        rec_->log.add(kBaseline, rec_->open_decision, rec_->decisions + 1, t0, t1);
    }

private:
    scenario_record* rec_;
};

/// Rollout controller of a scenario, decorated for timing: the outer
/// probe times every decision and, in a traced pass, an inner probe
/// times the wrapped baseline.
std::unique_ptr<core::fan_controller> make_probed_rollout(const rollout_scenario_input& in,
                                                          const core::fan_lut& lut,
                                                          scenario_record& rec) {
    std::unique_ptr<core::fan_controller> base = make_baseline(in, lut);
    if (rec.traced) {
        base = std::make_unique<timed_controller>(std::move(base),
                                                  std::make_unique<baseline_probe>(rec));
    }
    auto rc = std::make_unique<core::rollout_controller>(std::move(base), rollout_config());
    auto probe = std::make_unique<decision_probe>(rec, *rc);
    return std::make_unique<timed_controller>(std::move(rc), std::move(probe));
}

sim::scenario make_scenario(const rollout_scenario_input& in) {
    sim::scenario sc;
    sc.config = sim::paper_server();
    sc.config.seed = in.plant_seed;
    sc.config.thermal.ambient_c = in.ambient_c;
    sc.profile = workload::make_paper_test(paper_test_of(in.test), in.profile_seed);
    sc.name = sc.profile.name() + (in.lut_baseline ? "/Rollout(LUT)" : "/Rollout(Bang)");
    return sc;
}

struct pass_result {
    std::vector<round_stats> rounds;  ///< One per measured batch.
    std::vector<std::size_t> scenario_ids;  ///< Pool indices run, in order.
    std::vector<sim::run_metrics> metrics;
    std::vector<std::unique_ptr<scenario_record>> records;
};

/// Runs warm-up batches for `warmup_s` of wall time, then measured
/// batches until `seconds` are spent (at least one).  Warm-up batches
/// are run and checked but are not rounds.
pass_result run_pass(sim::parallel_runner& runner, const std::vector<rollout_scenario_input>& pool,
                     const core::fan_lut& lut, std::size_t& cursor, double warmup_s,
                     double seconds, bool traced) {
    pass_result out;
    const std::size_t batch = 16 * runner.thread_count();
    auto t0 = bench_clock::now();
    bool measuring = warmup_s <= 0.0;
    for (;;) {
        std::vector<sim::scenario> scenarios;
        for (std::size_t b = 0; b < batch; ++b) {
            const std::size_t id = cursor++ % pool.size();
            out.scenario_ids.push_back(id);
            out.records.push_back(std::make_unique<scenario_record>());
            scenario_record* rec = out.records.back().get();
            rec->traced = traced;
            if (traced) {
                rec->log = span_log(static_cast<std::uint32_t>(out.records.size()), kSpanCapacity);
            }
            sim::scenario sc = make_scenario(pool[id]);
            const rollout_scenario_input in = pool[id];
            sc.make_controller = [in, &lut, rec]() -> std::unique_ptr<core::fan_controller> {
                return make_probed_rollout(in, lut, *rec);
            };
            scenarios.push_back(std::move(sc));
        }
        const std::size_t first = out.records.size() - scenarios.size();
        const auto tb = bench_clock::now();
        std::vector<sim::run_metrics> m = runner.run(scenarios);
        const double wall = seconds_since(tb);
        std::move(m.begin(), m.end(), std::back_inserter(out.metrics));
        std::uint64_t decisions = 0;
        std::vector<double> latency;
        for (std::size_t i = first; i < out.records.size(); ++i) {
            decisions += out.records[i]->decisions;
            latency.insert(latency.end(), out.records[i]->latency_ms.begin(),
                           out.records[i]->latency_ms.end());
        }
        if (!measuring) {
            if (seconds_since(t0) >= warmup_s) {
                measuring = true;
                t0 = bench_clock::now();
            }
            continue;
        }
        out.rounds.push_back(
            {static_cast<double>(decisions) / wall, summarize(std::move(latency))});
        if (seconds_since(t0) >= seconds) {
            break;
        }
    }
    return out;
}

/// Tracing cost: the untraced pass's median batch throughput against
/// the traced pass's [%].
double overhead_pct(const std::vector<round_stats>& untraced,
                    const std::vector<round_stats>& traced) {
    return (summarize_rounds(untraced).throughput / summarize_rounds(traced).throughput - 1.0) *
           100.0;
}

std::uint64_t decisions_of(const pass_result& p) {
    std::uint64_t n = 0;
    for (const auto& r : p.records) {
        n += r->decisions;
    }
    return n;
}

}  // namespace

workload_result run_rollout_mpc(const run_options& opt) {
    workload_result r;

    // Set-up, kSetupReps times: LUT characterization, scenario generation,
    // runner, and one rollout engine build (what a controller's first
    // decision pays).
    std::vector<double> setups;
    std::vector<double> engine_builds;
    core::fan_lut lut;
    std::vector<rollout_scenario_input> pool;
    std::unique_ptr<sim::parallel_runner> runner;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        runner.reset();
        const auto t0 = bench_clock::now();
        sim::server_simulator rig;
        lut = core::characterize(rig).lut;
        pool = make_rollout_inputs(opt.seed, kScenarioPool);
        runner = std::make_unique<sim::parallel_runner>(opt.cpus);
        const auto te = bench_clock::now();
        const sim::rollout_engine engine(sim::paper_server(), rollout_config().max_candidates);
        engine_builds.push_back(seconds_since(te));
        setups.push_back(seconds_since(t0));
    }
    r.setup_s = median(setups);

    std::size_t cursor = 0;
    const double untraced_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    const pass_result base =
        run_pass(*runner, pool, lut, cursor, kWarmupSeconds, untraced_s, false);
    r.rounds = base.rounds;
    std::uint64_t traced_decisions = 0;

    if (opt.trace) {
        const pass_result traced =
            run_pass(*runner, pool, lut, cursor, 0.0, opt.seconds / 2.0, true);
        traced_decisions = decisions_of(traced);
        std::vector<span> spans;
        std::uint64_t dropped = 0;
        std::uint64_t rolled = 0, candidates = 0, guarded = 0, lane_steps = 0;
        for (const auto& rec : traced.records) {
            spans.insert(spans.end(), rec->log.spans().begin(), rec->log.spans().end());
            dropped += rec->log.dropped();
            rolled += rec->rolled;
            candidates += rec->candidates;
            guarded += rec->guarded;
            lane_steps += rec->lane_steps;
        }
        const std::vector<std::int64_t> self = self_times_ns(spans);
        std::vector<double> decide_ns;
        double decide_s = 0.0, baseline_s = 0.0, self_s = 0.0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
            if (spans[i].name == kDecision) {
                decide_ns.push_back(dur);
                decide_s += dur * 1e-9;
                self_s += static_cast<double>(self[i]) * 1e-9;
            } else {
                baseline_s += dur * 1e-9;
            }
        }
        const double decisions = static_cast<double>(decisions_of(traced));
        const double scenarios = static_cast<double>(traced.records.size());
        r.layer["core.decide_calls"] = decisions / scenarios;
        r.layer["core.decide_s"] = decide_s / scenarios;
        r.layer["core.decide_ns_p50"] = median(decide_ns);
        r.layer["core.baseline_decide_s"] = baseline_s / scenarios;
        r.layer["rollout.self_s"] = self_s / scenarios;
        r.layer["rollout.candidates_per_decision"] =
            rolled > 0 ? static_cast<double>(candidates) / static_cast<double>(rolled) : 0.0;
        r.layer["rollout.lane_steps_per_decision"] =
            rolled > 0 ? static_cast<double>(lane_steps) / static_cast<double>(rolled) : 0.0;
        r.layer["rollout.degenerate_share"] =
            decisions > 0.0 ? 1.0 - static_cast<double>(rolled) / decisions : 0.0;
        r.layer["rollout.guarded_share"] =
            candidates > 0 ? static_cast<double>(guarded) / static_cast<double>(candidates) : 0.0;
        r.layer["rollout.engine_build_s"] = median(engine_builds);
        r.layer["trace_overhead_pct"] = overhead_pct(base.rounds, traced.rounds);
        r.provenance["spans_dropped"] = std::to_string(dropped);
        const std::string path = opt.out_dir + "/rollout_mpc.spans.csv";
        if (!write_spans_csv(path, spans, kSpanNames)) {
            std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        }
    }

    // --- output checks ----------------------------------------------------
    // Seed-chosen scenarios of the untraced pass re-run alone on one
    // thread with plain (undecorated) controllers must reproduce bitwise;
    // every decision of a scenario that does not counts as failed.
    sim::parallel_runner serial(1);
    r.attempted = decisions_of(base) + traced_decisions;
    for (const std::size_t i : sample_indices(opt.seed, base.records.size(), kScalarSamples)) {
        const rollout_scenario_input in = pool[base.scenario_ids[i]];
        sim::scenario sc = make_scenario(in);
        sc.make_controller = [in, &lut]() -> std::unique_ptr<core::fan_controller> {
            return std::make_unique<core::rollout_controller>(make_baseline(in, lut),
                                                              rollout_config());
        };
        if (!same_metrics(serial.run({sc}).front(), base.metrics[i])) {
            r.failed += base.records[i]->decisions;
        }
    }
    const table1_outcome table1 = run_table1(lut, opt.cpus);
    r.attempted += table1_cells;
    r.failed += table1.failed_cells;
    r.correct = r.failed == 0;
    r.table1_energy_err_pct = table1.energy_err_pct;

    r.provenance["runner_threads"] = std::to_string(runner->thread_count());
    r.provenance["engine_threads"] = "1";
    r.provenance["scenarios"] = std::to_string(base.records.size());
    std::printf("rollout_mpc: %zu scenarios, %.4g decisions/s\n", base.records.size(),
                summarize_rounds(r.rounds).throughput);
    return r;
}

}  // namespace perfbench
