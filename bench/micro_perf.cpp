// Google-benchmark microbenchmarks: throughput of the library's hot
// paths.  These are engineering benchmarks (simulation speed), not paper
// reproductions — the figure/table harnesses live in the sibling
// binaries.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/lut_controller.hpp"
#include "core/rollout_controller.hpp"
#include "fit/nlls.hpp"
#include "sim/batch_trace.hpp"
#include "sim/fleet.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "sim/simulation_trace.hpp"
#include "telemetry_service/online_metrics.hpp"
#include "telemetry_service/service.hpp"
#include "thermal/server_thermal_model.hpp"
#include "thermal/steady_state.hpp"
#include "workload/loadgen.hpp"
#include "workload/paper_tests.hpp"
#include "workload/queueing.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// Runs `step` once per timed iteration.  Each step appends trace rows,
// so `clear` empties the traces every `clear_every` steps with the timer
// paused, and callers grow the arena untimed first (clearing keeps
// capacity): arena growth is page faults, whose cost swings with the
// host's memory state, so the timed loop reuses warm memory instead.
template <class Step, class Clear>
void time_steps_on_warm_traces(benchmark::State& state, int clear_every, Step step, Clear clear) {
    clear();
    int since_clear = 0;
    for (auto _ : state) {
        if (since_clear == clear_every) {
            state.PauseTiming();
            clear();
            state.ResumeTiming();
            since_clear = 0;
        }
        step();
        ++since_clear;
    }
}

void BM_ThermalStep(benchmark::State& state) {
    thermal::server_thermal_model m;
    m.set_cpu_heat(0, 115_W);
    m.set_cpu_heat(1, 115_W);
    m.set_dimm_heat(145_W);
    for (auto _ : state) {
        m.step(1_s);
        benchmark::DoNotOptimize(m.average_cpu_temp());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThermalStep);

void BM_ThermalStepImplicit(benchmark::State& state) {
    thermal::server_thermal_model m(thermal::server_thermal_config{},
                                    thermal::integration_scheme::implicit_euler);
    m.set_cpu_heat(0, 115_W);
    m.set_cpu_heat(1, 115_W);
    m.set_dimm_heat(145_W);
    for (auto _ : state) {
        m.step(1_s);
        benchmark::DoNotOptimize(m.average_cpu_temp());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThermalStepImplicit);

void BM_ThermalSteadyStateSolve(benchmark::State& state) {
    thermal::server_thermal_model m;
    m.set_cpu_heat(0, 115_W);
    m.set_cpu_heat(1, 115_W);
    m.set_dimm_heat(145_W);
    for (auto _ : state) {
        m.settle_to_steady_state();
        benchmark::DoNotOptimize(m.average_cpu_temp());
    }
}
BENCHMARK(BM_ThermalSteadyStateSolve);

void BM_Characterize(benchmark::State& state) {
    // The paper's characterization on a fresh plant: the 45-point steady
    // sweep (each point a 96-solve settle fixed point), the leakage fit
    // and the LUT build — the set-up every LUT-driven study pays.
    for (auto _ : state) {
        sim::server_simulator rig;
        benchmark::DoNotOptimize(core::characterize(rig).lut.size());
    }
}
BENCHMARK(BM_Characterize);

void BM_SimulatorSecond(benchmark::State& state) {
    sim::server_simulator s;
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    s.bind_workload(p);
    constexpr int kClearEvery = 4096;
    const auto step = [&] { s.step(1_s); };
    for (int i = 0; i < kClearEvery; ++i) {
        step();
    }
    time_steps_on_warm_traces(state, kClearEvery, step, [&] { s.clear_trace(); });
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("simulated seconds per wall second");
}
BENCHMARK(BM_SimulatorSecond);

void BM_SimulatorSecondMonitored(benchmark::State& state) {
    // Detection overhead: the same scalar plant second with the residual
    // monitor enabled (twin thermal step + fan residuals every step,
    // sensor residuals every poll).  Read against BM_SimulatorSecond for
    // the monitor's cost; the monitor is off by default, so only
    // fault-aware runs pay it.
    sim::server_config config = sim::paper_server();
    config.monitor.enabled = true;
    sim::server_simulator s(config);
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    s.bind_workload(p);
    constexpr int kClearEvery = 4096;
    const auto step = [&] { s.step(1_s); };
    for (int i = 0; i < kClearEvery; ++i) {
        step();
    }
    time_steps_on_warm_traces(state, kClearEvery, step, [&] { s.clear_trace(); });
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("simulated seconds per wall second");
}
BENCHMARK(BM_SimulatorSecondMonitored);

void BM_BatchStep(benchmark::State& state) {
    // One batched plant second across N servers; items = server-steps, so
    // items/s is per-server throughput and can be read directly against
    // BM_SimulatorSecond (the scalar path).  The acceptance bar for the
    // SoA plant is N=64 per-server cost within 1.25x of scalar.
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    sim::server_batch batch(sim::paper_server(), lanes);
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    for (std::size_t l = 0; l < lanes; ++l) {
        batch.bind_workload(l, p);
    }
    constexpr int kClearEvery = 64;
    const auto step = [&] { batch.step(1_s); };
    const auto clear = [&] {
        for (std::size_t l = 0; l < lanes; ++l) {
            batch.clear_trace(l);
        }
    };
    for (int i = 0; i < kClearEvery; ++i) {
        step();
    }
    time_steps_on_warm_traces(state, kClearEvery, step, clear);
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
    state.SetLabel("per-server simulated seconds per wall second");
}
BENCHMARK(BM_BatchStep)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

// A fleet that outlives one Google Benchmark call.  The library calls a
// benchmark function several times (iteration-count probes, then one
// call per repetition); a fresh fleet each time means a fresh thread pool
// each time, and a fresh pool's threads can share one CPU for about their
// first second while the OS scheduler spreads them (seen on a 4-vCPU KVM
// guest after the host sat idle: ~1.6 ms instead of ~0.33 ms per
// 1024-lane, 4-shard step).  So one fleet per (lanes, shards) is built
// and warmed untimed for at least 2 s, and later calls reuse it.
constexpr int kFleetClearEvery = 64;

void clear_fleet_traces(sim::fleet& fleet) {
    for (std::size_t l = 0; l < fleet.lane_count(); ++l) {
        fleet.clear_trace(l);
    }
}

sim::fleet& warm_fleet(std::size_t lanes, std::size_t shards) {
    struct cached_fleet {
        std::size_t shards = 0;
        std::unique_ptr<sim::fleet> fleet;
    };
    static cached_fleet cached;
    if (cached.fleet && cached.fleet->lane_count() == lanes && cached.shards == shards) {
        return *cached.fleet;
    }
    cached.fleet.reset();  // one fleet alive at a time
    sim::fleet_config fc;
    fc.shards = shards;
    fc.threads = shards;
    auto fleet = std::make_unique<sim::fleet>(sim::paper_server(), lanes, fc);
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    for (std::size_t l = 0; l < lanes; ++l) {
        fleet->bind_workload(l, p);
    }
    // At least kFleetClearEvery steps, so the trace arena reaches the
    // capacity the timed loop reuses, and at least 2 s of wall time.
    const auto warm_until = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (int i = 0; i < kFleetClearEvery || std::chrono::steady_clock::now() < warm_until; ++i) {
        if (i % kFleetClearEvery == 0) {
            clear_fleet_traces(*fleet);
        }
        fleet->step(1_s);
    }
    cached = {shards, std::move(fleet)};
    return *cached.fleet;
}

void BM_FleetStep(benchmark::State& state) {
    // Sharded fleet stepping: N lanes split across K server_batch shards
    // stepped on a K-wide thread pool (sim::fleet).  args = (lanes,
    // shards); items = server-steps, directly comparable to BM_BatchStep.
    // Shard results are bitwise invariant in K (the fleet suite pins
    // that), so this family measures pure partitioning/pool overhead or
    // payoff on the host at hand.  Timed on wall clock: the shards step
    // on pool threads whose CPU time the main-thread clock misses.
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    const std::size_t shards = static_cast<std::size_t>(state.range(1));
    sim::fleet& fleet = warm_fleet(lanes, shards);
    const auto step = [&] { fleet.step(1_s); };
    time_steps_on_warm_traces(state, kFleetClearEvery, step, [&] { clear_fleet_traces(fleet); });
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
    state.SetLabel("per-server simulated seconds per wall second");
}
BENCHMARK(BM_FleetStep)
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->Args({10240, 1})
    ->Args({10240, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_FleetStepServed(benchmark::State& state) {
    // BM_FleetStep with a telemetry service attached (HTTP off): each
    // shard step also folds its new row-group into the service's online
    // state on the stepping thread.  Read against BM_FleetStep at the
    // same args for the ingest's share of a step.
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    const std::size_t shards = static_cast<std::size_t>(state.range(1));
    sim::fleet& fleet = warm_fleet(lanes, shards);
    telemetry_service::service_config cfg;
    cfg.enable_http = false;
    const telemetry_service::service svc(fleet, cfg);
    const auto step = [&] { fleet.step(1_s); };
    time_steps_on_warm_traces(state, kFleetClearEvery, step, [&] { clear_fleet_traces(fleet); });
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_FleetStepServed)->Args({1024, 4})->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_TraceRecord(benchmark::State& state) {
    // Pure recording cost: one columnar row append (shared timestamp +
    // 12 channel values) per simulated step.  This is the storage layer
    // under BM_SimulatorSecond's record() call.
    // Cycle a pre-reserved working set so the number reflects
    // steady-state append cost (not first-touch vector growth) at any
    // --benchmark_min_time.
    constexpr std::size_t kRows = 1U << 16;
    sim::simulation_trace tr;
    tr.reserve(kRows);
    sim::trace_row row;
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        row.values[c] = 40.0 + static_cast<double>(c);
    }
    double t = 0.0;
    for (auto _ : state) {
        if (tr.size() == kRows) {
            tr.clear();
            t = 0.0;
        }
        tr.append(t, row);
        t += 1.0;
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("rows per second");
}
BENCHMARK(BM_TraceRecord);

void BM_TraceRecordBatch(benchmark::State& state) {
    // Fleet recording: one lane-major arena row-group per step (all N
    // lanes' rows land contiguously).  items = lane-rows, comparable to
    // BM_TraceRecord's per-row cost.
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    const std::size_t steps = (1U << 20) / lanes;
    sim::batch_trace traces(lanes);
    traces.reserve_steps(steps);
    sim::trace_row row;
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        row.values[c] = 40.0 + static_cast<double>(c);
    }
    double t = 0.0;
    for (auto _ : state) {
        if (traces.size(0) == steps) {
            for (std::size_t l = 0; l < lanes; ++l) {
                traces.clear(l);
            }
            t = 0.0;
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            traces.append(l, t, row);
        }
        t += 1.0;
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lanes));
    state.SetLabel("lane-rows per second");
}
BENCHMARK(BM_TraceRecordBatch)->Arg(64)->Arg(256);

void BM_LutDecision(benchmark::State& state) {
    sim::server_simulator s;
    core::lut_controller lut(core::characterize(s).lut);
    core::controller_inputs in;
    in.utilization_pct = 63.0;
    in.max_cpu_temp = 68_degC;
    in.current_rpm = 1800_rpm;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lut.decide(in));
    }
}
BENCHMARK(BM_LutDecision);

void BM_BangBangDecision(benchmark::State& state) {
    core::bang_bang_controller bang;
    core::controller_inputs in;
    in.max_cpu_temp = 72_degC;
    in.current_rpm = 2400_rpm;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bang.decide(in));
    }
}
BENCHMARK(BM_BangBangDecision);

void BM_RolloutDecision(benchmark::State& state) {
    // One full receding-horizon decision: snapshot the live plant, clone
    // it across the candidate lanes, integrate every candidate over the
    // horizon through the batched kernel, score, commit.  With the
    // lattice below each decision rolls ~5 candidates x 120 s, so one
    // decision costs ~600 batched lane-steps — the number to watch when
    // touching the snapshot/load path or the rollout loop.
    sim::server_simulator s;
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    s.bind_workload(p);
    s.force_cold_start();
    s.advance(300_s);

    core::rollout_controller_config cfg;
    cfg.horizon = 120_s;
    cfg.lattice_radius = 2;
    core::rollout_controller roll(std::make_unique<core::bang_bang_controller>(), cfg);
    const core::batch_lane_plant_view plant(s.batch(), 0);
    roll.attach_plant(&plant);

    core::controller_inputs in;
    in.now = s.now();
    in.utilization_pct = s.measured_utilization(240_s);
    in.max_cpu_temp = s.max_cpu_sensor_temp();
    in.current_rpm = s.average_fan_rpm();
    in.system_power = s.system_power_reading();
    for (auto _ : state) {
        benchmark::DoNotOptimize(roll.decide(in));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("rollout decisions per second");
}
BENCHMARK(BM_RolloutDecision);

void BM_LeakageFit(benchmark::State& state) {
    sim::server_simulator s;
    const auto sweep =
        sim::run_steady_sweep(s, sim::paper_utilization_levels(), power::paper_rpm_settings());
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::fit_power_model(sweep));
    }
}
BENCHMARK(BM_LeakageFit);

void BM_MmcSimulation(benchmark::State& state) {
    workload::mmc_config cfg;
    cfg.servers = 64;
    cfg.service_rate_hz = 0.05;
    cfg.arrival_rate_hz = 1.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            workload::simulate_mmc(cfg, util::seconds_t{static_cast<double>(state.range(0))}));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MmcSimulation)->Arg(600)->Arg(4800);

void BM_MeasuredUtilization(benchmark::State& state) {
    // The runtime's per-decision reading: a 240 s window over the
    // many-ramp Test-4 profile.  `t` advances 1 s per call (wrapping
    // inside the profile) so every call misses the one-entry memo.
    const workload::loadgen gen(workload::make_paper_test(workload::paper_test::test4_poisson));
    const double end = gen.profile().duration().value();
    double t = 240.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.measured_utilization(util::seconds_t{t}, 240_s));
        t = t + 1.0 < end ? t + 1.0 : 240.0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeasuredUtilization);

void BM_FullTable1Cell(benchmark::State& state) {
    // One Table-I cell: an 80-minute closed-loop run.
    sim::server_simulator s;
    const auto lut_table = core::characterize(s).lut;
    const auto profile = workload::make_paper_test(workload::paper_test::test3_frequent);
    for (auto _ : state) {
        core::lut_controller lut(lut_table);
        benchmark::DoNotOptimize(core::run_controlled(s, lut, profile));
    }
    state.SetLabel("80 simulated minutes per iteration");
}
BENCHMARK(BM_FullTable1Cell);

void BM_TelemetryIngest(benchmark::State& state) {
    // The telemetry service's per-step ingest: fold one 64-lane
    // row-group in place from a shard's batch_trace arena into the
    // shard's online state (what service::on_shard_step does on the
    // stepping thread, minus the lock).  The arena holds exactly one
    // 60-row window, filled untimed; cycling through it closes every
    // lane's window as its groups wrap, so the fold restarts a fresh
    // window at t = 0 and time never runs backwards inside one.
    // Items = lane-rows ingested.
    constexpr std::size_t lanes = 64;
    telemetry_service::online_state online(lanes);
    const std::size_t groups = online.config().window_rows;
    sim::batch_trace trace(lanes);
    sim::trace_row row;
    for (std::size_t g = 0; g < groups; ++g) {
        for (std::size_t l = 0; l < lanes; ++l) {
            row.values[static_cast<std::size_t>(sim::trace_channel::total_power)] =
                250.0 + static_cast<double>(l);
            row.values[static_cast<std::size_t>(sim::trace_channel::max_sensor_temp)] =
                60.0 + static_cast<double>((l + g) % 7);
            trace.append(l, static_cast<double>(g), row);
        }
    }
    std::size_t group = 0;
    for (auto _ : state) {
        online.apply_group(trace, group);
        group = group + 1 == groups ? 0 : group + 1;
    }
    benchmark::DoNotOptimize(online.rows());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_TelemetryIngest);

void BM_OnlineMetricsWindow(benchmark::State& state) {
    // Pure online-engine row cost: one lane folding rows through whole
    // 60-row windows (trapezoids, extrema, histogram, window close).
    telemetry_service::online_state online(1);
    double channels[sim::trace_channel_count] = {};
    channels[static_cast<std::size_t>(sim::trace_channel::total_power)] = 250.0;
    channels[static_cast<std::size_t>(sim::trace_channel::avg_fan_rpm)] = 2100.0;
    channels[static_cast<std::size_t>(sim::trace_channel::avg_cpu_temp)] = 58.0;
    channels[static_cast<std::size_t>(sim::trace_channel::max_sensor_temp)] = 63.0;
    double t = 0.0;
    for (auto _ : state) {
        t += 1.0;
        channels[static_cast<std::size_t>(sim::trace_channel::total_power)] =
            250.0 + (t * 7.0 - static_cast<double>(static_cast<int>(t * 7.0 / 40.0)) * 40.0);
        online.apply_row(0, t, channels);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OnlineMetricsWindow);

}  // namespace

BENCHMARK_MAIN();
