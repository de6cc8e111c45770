// fleet_control: a heterogeneous closed-loop fleet through
// core::run_controlled_fleet, one shard per pool thread.
//
// Why this workload: it is the wide-batch plant path (per-lane passes,
// harness poll, trace arena, monitor twin, sharding) with a state many
// times a core's L2, and controllers (Bang, LUT, Failsafe(Bang)) that
// cost nanoseconds, so plant and memory work dominate.  The 12 Table-I
// cells ride along at the paper configuration.
//
// One operation is one lane run.  The measured loop repeats the whole
// fleet experiment until the run time is spent; a lane run's latency is
// the wall time of the experiment that produced it (results arrive
// together).  A traced run is half untraced, a quarter traced fleet
// experiments, and a quarter the live-telemetry phase (telemetry_live.cpp),
// whose requests and row-groups are operations too.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/failsafe_controller.hpp"
#include "core/lut_controller.hpp"
#include "sim/batch_trace.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/fleet.hpp"
#include "sim/server_simulator.hpp"
#include "util/frame.hpp"
#include "workload/paper_tests.hpp"

namespace perfbench {

using namespace ltsc;

namespace {

// Lanes per shard: six blocks of the generator's 12-lane mix, so every
// shard holds whole blocks and its load does not depend on the seed
// (shard 0's first block is the 12 Table-I cells).
constexpr std::size_t kLanesPerShard = 72;
constexpr std::size_t kScalarSamples = 8;
constexpr std::size_t kSpanCapacity = 1u << 19;

enum span_name : std::uint32_t { kExperiment, kShard, kDecide, kComputeMetrics };
const std::vector<std::string> kSpanNames = {"fleet.experiment", "fleet.shard", "core.decide",
                                             "metrics.compute"};

/// Plant steps the runtime takes for a profile of `duration` seconds
/// at a 1 s step (the loop condition of run_controlled).
long steps_for(double duration) {
    long k = 0;
    for (double now = 0.0; now < duration - 1e-9; now += 1.0) {
        ++k;
    }
    return k;
}

/// Everything one fleet experiment needs; lanes 0..11 are the Table-I
/// cells, the rest are generated.
struct fleet_setup {
    core::fan_lut lut;
    std::vector<fleet_lane_input> inputs;  ///< Generated lanes (offset by 12).
    std::vector<sim::server_config> configs;
    std::vector<workload::utilization_profile> profiles;
    std::vector<const sim::fault_schedule*> schedules;  ///< nullptr = healthy.
    std::vector<sim::fault_schedule> campaigns;
    std::size_t threads = 1;
    std::unique_ptr<sim::fleet> fleet;
    long lane_steps = 0;  ///< Plant steps of one experiment, all lanes.
};

std::unique_ptr<core::fan_controller> make_policy(fleet_policy p, const core::fan_lut& lut) {
    switch (p) {
        case fleet_policy::bang: return std::make_unique<core::bang_bang_controller>();
        case fleet_policy::lut: return std::make_unique<core::lut_controller>(lut);
        default:
            return std::make_unique<core::failsafe_controller>(
                std::make_unique<core::bang_bang_controller>());
    }
}

/// Controller of global lane `l`.
std::unique_ptr<core::fan_controller> make_lane_controller(const fleet_setup& s, std::size_t l) {
    return l < table1_cells ? make_table1_controller(l, s.lut)
                            : make_policy(s.inputs[l - table1_cells].policy, s.lut);
}

/// Replaces the fleet with a fresh one.  Every experiment runs on a
/// fresh fleet: a cold start resets the plant state but not the sensor
/// noise streams, so only fresh plants make every experiment (and the
/// scalar re-run) bitwise-comparable.
void rebuild_fleet(fleet_setup& s) {
    s.fleet.reset();
    sim::fleet_config fc;
    fc.threads = s.threads;
    s.fleet = std::make_unique<sim::fleet>(s.configs, fc);
    for (std::size_t l = 0; l < s.configs.size(); ++l) {
        if (s.schedules[l] != nullptr) {
            s.fleet->bind_fault_schedule(l, *s.schedules[l]);
        }
    }
}

std::unique_ptr<fleet_setup> build_setup(const run_options& opt) {
    auto s = std::make_unique<fleet_setup>();
    sim::server_simulator rig;
    s->lut = core::characterize(rig).lut;
    const std::size_t lanes = kLanesPerShard * opt.cpus;
    s->inputs = make_fleet_inputs(opt.seed, lanes - table1_cells);

    s->configs.reserve(lanes);
    s->profiles.reserve(lanes);
    s->campaigns.reserve(lanes);
    for (std::size_t c = 0; c < table1_cells; ++c) {
        s->configs.push_back(sim::paper_server());
        s->profiles.push_back(table1_profile(c));
        s->schedules.push_back(nullptr);
    }
    for (const fleet_lane_input& in : s->inputs) {
        sim::server_config cfg = sim::paper_server();
        cfg.seed = in.plant_seed;
        cfg.thermal.ambient_c = in.ambient_c;
        cfg.monitor.enabled = in.monitored;
        s->configs.push_back(cfg);
        s->profiles.push_back(workload::make_paper_test(paper_test_of(in.test), in.profile_seed));
        if (in.monitored) {
            sim::fault_campaign_config fc;
            fc.duration_s = s->profiles.back().duration().value();
            s->campaigns.push_back(sim::make_random_campaign(in.campaign_seed, fc));
            s->schedules.push_back(&s->campaigns.back());
        } else {
            s->schedules.push_back(nullptr);
        }
    }
    for (const auto& p : s->profiles) {
        s->lane_steps += steps_for(p.duration().value());
    }
    s->threads = opt.cpus;
    rebuild_fleet(*s);
    return s;
}

/// Per-shard trace state.  Every lane probe of a shard runs on the one
/// pool thread that runs that shard's batch, so the log is single-writer.
struct shard_trace {
    explicit shard_trace(std::uint32_t index) : log(index, kSpanCapacity) {}
    span_log log;
    std::uint64_t parent = 0;  ///< Experiment span, set before each run.
    std::uint64_t span_id = 0;
    std::size_t open_lanes = 0;
    std::uint64_t next_group = 0;
    std::uint64_t runs = 0;  ///< Shard runs begun.
};

/// Brackets a shard's run by its lanes' plant attach/detach and records
/// every decision as a child span of the shard span.
class lane_probe final : public decide_probe {
public:
    explicit lane_probe(shard_trace& st) : st_(&st) {}
    void on_attach(const core::plant_access* plant) override {
        if (plant != nullptr) {
            if (st_->open_lanes++ == 0) {
                st_->span_id = st_->log.begin(kShard, st_->parent, 0, now_ns());
                ++st_->runs;
            }
        } else if (st_->open_lanes > 0 && --st_->open_lanes == 0) {
            st_->log.end(st_->span_id, now_ns());
        }
    }
    void after(std::int64_t t0, std::int64_t t1) override {
        st_->log.add(kDecide, st_->span_id, ++st_->next_group, t0, t1);
    }

private:
    shard_trace* st_;
};

struct pass_result {
    std::vector<double> makespans_s;  ///< Of the measured experiments.
    std::vector<std::vector<sim::run_metrics>> results;  ///< Every experiment.
};

/// Whether every shard's span log can hold another experiment as large
/// as the average one so far (a traced pass stops early rather than
/// drop the spans its self-time arithmetic needs).
bool room_for_one_more(const std::vector<shard_trace>& shards) {
    for (const shard_trace& st : shards) {
        const std::size_t used = st.log.spans().size();
        if (st.log.dropped() > 0 || used + used / std::max<std::uint64_t>(1, st.runs) >
                                        kSpanCapacity) {
            return false;
        }
    }
    return true;
}

/// Runs warm-up experiments for `warmup_s` of wall time, then measured
/// experiments until `seconds` are spent (at least one), each on a fresh
/// fleet built outside the timed span.  Warm-up results are kept for the
/// output checks but are not rounds.  `fresh` says the current fleet has
/// not run yet.  A traced pass (with `shards`) also stops when its span
/// logs could not hold another experiment.
pass_result run_pass(fleet_setup& s, const std::vector<core::fan_controller*>& controllers,
                     double warmup_s, double seconds, bool fresh, span_log* root,
                     std::vector<shard_trace>* shards) {
    pass_result out;
    auto t0 = bench_clock::now();
    bool measuring = warmup_s <= 0.0;
    for (;;) {
        if (!fresh) {
            rebuild_fleet(s);
        }
        fresh = false;
        std::uint64_t exp_span = 0;
        if (root != nullptr) {
            exp_span = root->begin(kExperiment, 0, out.results.size() + 1, now_ns());
            for (shard_trace& st : *shards) {
                st.parent = exp_span;
            }
        }
        const auto te = bench_clock::now();
        out.results.push_back(core::run_controlled_fleet(*s.fleet, controllers, s.profiles));
        const double makespan = seconds_since(te);
        if (root != nullptr) {
            root->end(exp_span, now_ns());
        }
        if (!measuring) {
            if (seconds_since(t0) >= warmup_s) {
                measuring = true;
                t0 = bench_clock::now();
            }
            continue;
        }
        out.makespans_s.push_back(makespan);
        if (seconds_since(t0) >= seconds || (shards != nullptr && !room_for_one_more(*shards))) {
            break;
        }
    }
    return out;
}

/// Tracing cost: the traced pass's median experiment time against the
/// untraced pass's [%].
double overhead_pct(const std::vector<double>& untraced, const std::vector<double>& traced) {
    return (median(traced) / median(untraced) - 1.0) * 100.0;
}

/// Re-runs lane `l` alone through the scalar runtime on a fresh
/// server_simulator (same config, profile, campaign, fresh controller).
sim::run_metrics scalar_rerun(const fleet_setup& s, std::size_t l) {
    sim::server_simulator sim(s.configs[l]);
    if (s.schedules[l] != nullptr) {
        sim.bind_fault_schedule(*s.schedules[l]);
    }
    auto controller = make_lane_controller(s, l);
    return core::run_controlled(sim, *controller, s.profiles[l]);
}

}  // namespace

workload_result run_fleet_control(const run_options& opt) {
    workload_result r;

    // Set-up, kSetupReps times; the median is reported and the last one kept.
    std::vector<double> setups;
    std::unique_ptr<fleet_setup> s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.reset();
        const auto t0 = bench_clock::now();
        s = build_setup(opt);
        setups.push_back(seconds_since(t0));
    }
    r.setup_s = median(setups);
    const std::size_t lanes = s->fleet->lane_count();

    std::vector<std::unique_ptr<core::fan_controller>> plain;
    std::vector<core::fan_controller*> plain_ptrs;
    for (std::size_t l = 0; l < lanes; ++l) {
        plain.push_back(make_lane_controller(*s, l));
        plain_ptrs.push_back(plain.back().get());
    }

    const double untraced_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    const pass_result base =
        run_pass(*s, plain_ptrs, kWarmupSeconds, untraced_s, true, nullptr, nullptr);
    std::vector<std::vector<sim::run_metrics>> all_results = base.results;

    if (opt.trace) {
        span_log root(0, kSpanCapacity);
        std::vector<shard_trace> shards;
        shards.reserve(s->fleet->shard_count());
        for (std::size_t k = 0; k < s->fleet->shard_count(); ++k) {
            shards.emplace_back(static_cast<std::uint32_t>(k + 1));
        }
        std::vector<std::unique_ptr<core::fan_controller>> timed;
        std::vector<core::fan_controller*> timed_ptrs;
        for (std::size_t l = 0; l < lanes; ++l) {
            timed.push_back(std::make_unique<timed_controller>(
                make_lane_controller(*s, l),
                std::make_unique<lane_probe>(shards[s->fleet->shard_of(l)])));
            timed_ptrs.push_back(timed.back().get());
        }
        const pass_result traced =
            run_pass(*s, timed_ptrs, 0.0, opt.seconds / 4.0, false, &root, &shards);

        // Post-hoc metric extraction over the last run's traces, timed
        // from outside, and checked against what the runtime returned.
        const std::int64_t m0 = now_ns();
        std::vector<sim::run_metrics> recomputed;
        recomputed.reserve(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            const sim::run_metrics& ref = traced.results.back()[l];
            recomputed.push_back(sim::compute_metrics(s->fleet->shard(s->fleet->shard_of(l)),
                                                      s->fleet->local_lane(l), ref.test_name,
                                                      ref.controller_name));
        }
        root.add(kComputeMetrics, 0, 0, m0, now_ns());
        for (std::size_t l = 0; l < lanes; ++l) {
            if (!same_metrics(recomputed[l], traced.results.back()[l])) {
                r.correct = false;
                ++r.failed;
            }
        }

        // Derive the per-layer metrics from the spans.
        std::vector<span> spans = root.spans();
        std::uint64_t dropped = root.dropped();
        for (const shard_trace& st : shards) {
            spans.insert(spans.end(), st.log.spans().begin(), st.log.spans().end());
            dropped += st.log.dropped();
        }
        const std::vector<std::int64_t> self = self_times_ns(spans);
        std::vector<double> decide_ns;
        double decide_s = 0.0;
        std::map<std::uint64_t, std::vector<std::pair<double, double>>> per_exp;  // span, self
        double compute_s = 0.0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const span& sp = spans[i];
            const double dur = static_cast<double>(sp.end_ns - sp.start_ns);
            if (sp.name == kDecide) {
                decide_ns.push_back(dur);
                decide_s += dur * 1e-9;
            } else if (sp.name == kShard) {
                per_exp[sp.parent].emplace_back(dur * 1e-9, static_cast<double>(self[i]) * 1e-9);
            } else if (sp.name == kComputeMetrics) {
                compute_s = dur * 1e-9;
            }
        }
        std::vector<double> span_max, imbalance, plant_self;
        for (const auto& [exp, list] : per_exp) {
            double lo = 1e300, hi = 0.0, self_sum = 0.0;
            for (const auto& [d, sf] : list) {
                lo = std::min(lo, d);
                hi = std::max(hi, d);
                self_sum += sf;
            }
            span_max.push_back(hi);
            imbalance.push_back(lo > 0.0 ? hi / lo : 0.0);
            plant_self.push_back(self_sum);
        }
        std::size_t history_bytes = 0;
        std::size_t arena_bytes = 0;
        for (std::size_t k = 0; k < s->fleet->shard_count(); ++k) {
            const sim::server_batch& b = s->fleet->shard(k);
            arena_bytes += b.traces().group_count() * b.lane_count() *
                           sim::batch_trace::slot_doubles * sizeof(double);
            for (std::size_t l = 0; l < b.lane_count(); ++l) {
                const util::frame& h = b.telemetry(l).history();
                history_bytes += h.size() * (h.channel_count() + 1) * sizeof(double);
            }
        }
        double events_fired = 0.0;
        double monitored = 0.0;
        for (std::size_t l = 0; l < lanes; ++l) {
            if (s->schedules[l] != nullptr) {
                monitored += 1.0;
                for (const sim::fault_event& e : s->schedules[l]->events()) {
                    events_fired += e.t_s < s->profiles[l].duration().value() ? 1.0 : 0.0;
                }
            }
        }
        const double exps = static_cast<double>(traced.results.size());
        r.layer["core.decide_calls"] = static_cast<double>(decide_ns.size()) / exps;
        r.layer["core.decide_s"] = decide_s / exps;
        r.layer["core.decide_ns_p50"] = median(decide_ns);
        r.layer["fleet.shard_span_s_max"] = median(span_max);
        r.layer["fleet.shard_imbalance"] = median(imbalance);
        // The shard span ends when the runtime detaches the lanes, which
        // is after it extracts each lane's run_metrics, so plant.self_s
        // also holds that extraction (metrics.compute_s times it alone).
        r.layer["plant.self_s"] = median(plant_self);
        r.layer["metrics.compute_s"] = compute_s;
        r.layer["trace.bytes_per_lane_step"] =
            static_cast<double>(arena_bytes) / static_cast<double>(s->lane_steps);
        r.layer["telemetry.history_bytes_per_lane"] =
            static_cast<double>(history_bytes) / static_cast<double>(lanes);
        r.layer["faults.events_fired"] = events_fired;
        r.layer["monitor.lanes"] = monitored;
        r.layer["trace_overhead_pct"] = overhead_pct(base.makespans_s, traced.makespans_s);
        r.provenance["spans_dropped"] = std::to_string(dropped);

        const std::string path = opt.out_dir + "/fleet_control.spans.csv";
        if (!write_spans_csv(path, spans, kSpanNames)) {
            std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        }
        all_results.insert(all_results.end(), traced.results.begin(), traced.results.end());
    }

    // --- output checks ----------------------------------------------------
    const std::vector<sim::run_metrics>& reference = all_results.front();
    std::vector<bool> bad(lanes, false);
    const std::vector<sim::run_metrics> cells(reference.begin(),
                                              reference.begin() + table1_cells);
    const std::vector<bool> shape = table1_shape_ok(cells);
    for (std::size_t c = 0; c < table1_cells; ++c) {
        bad[c] = !shape[c];
    }
    // Seed-chosen lanes re-run alone through the scalar runtime must
    // match bitwise (one Table-I cell and generated lanes).
    std::vector<std::size_t> sample =
        sample_indices(opt.seed, lanes - table1_cells, kScalarSamples);
    for (std::size_t& i : sample) {
        i += table1_cells;
    }
    sample.push_back(opt.seed % table1_cells);
    for (const std::size_t l : sample) {
        if (!same_metrics(scalar_rerun(*s, l), reference[l])) {
            bad[l] = true;
        }
    }
    for (const auto& run : all_results) {
        for (std::size_t l = 0; l < lanes; ++l) {
            const bool fail = bad[l] || !same_metrics(run[l], reference[l]);
            r.failed += fail ? 1 : 0;
        }
    }
    r.attempted = static_cast<std::uint64_t>(all_results.size() * lanes);
    r.correct = r.correct && r.failed == 0;
    r.table1_energy_err_pct = table1_energy_err_pct(cells);

    // One round per experiment: every lane run of it completes when the
    // experiment returns, so its latency is the experiment's makespan.
    for (const double m : base.makespans_s) {
        r.rounds.push_back({static_cast<double>(s->lane_steps) / m,
                            summarize(std::vector<double>(lanes, m * 1e3))});
    }

    // The traced run's last quarter measures the telemetry service.
    if (opt.trace) {
        run_live_telemetry(opt, opt.seconds / 4.0, r);
    }

    r.provenance["lanes"] = std::to_string(lanes);
    r.provenance["shards"] = std::to_string(s->fleet->shard_count());
    r.provenance["fleet_threads"] = std::to_string(s->fleet->thread_count());
    r.provenance["experiments"] = std::to_string(base.results.size());
    r.provenance["scalar_checked_lanes"] = std::to_string(sample.size());
    std::printf("fleet_control: %zu lanes x %zu experiments, %.4g lane-steps/s, "
                "table1 err %.4f %%\n",
                lanes, base.results.size(),
                summarize_rounds(r.rounds).throughput, r.table1_energy_err_pct);
    return r;
}

}  // namespace perfbench
