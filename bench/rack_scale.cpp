// Rack-scale throughput sweep: how cheaply can the structure-of-arrays
// plant step N servers, and what does a closed-loop fleet run cost?
//
//   $ ./rack_scale                  # full sweep (the 100k rows allocate ~35 GB)
//   $ ./rack_scale smoke [N] [K]    # deterministic fleet checksum for CI
//
// The default sweep reports
//   - raw per-server stepping throughput of sim::server_batch (one
//     batched thermal kernel, lane-contiguous state) against the
//     single-server baseline (a server_simulator: the same plant with
//     one lane),
//   - the sharded sim::fleet at N in {1k, 10k, 100k} across shard
//     counts {1, 2, 4, 8} (threads = shards), and
//   - a closed-loop fleet run (every lane under its own bang-bang
//     controller on Test-3) with fleet energy, as an MPC-rollout-shaped
//     workload: many identical plants, one instruction stream.
//
// `smoke` steps an N-lane fleet (default 10000) for 120 plant seconds
// with per-lane heterogeneous workloads/ambients and prints a bitwise
// checksum of the fleet state.  Thread width defers to LTSC_THREADS, so
// CI can diff the output across thread counts: any divergence is a
// violation of the fleet's determinism contract.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/controller_runtime.hpp"
#include "sim/fleet.hpp"
#include "sim/metrics.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "workload/paper_tests.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

workload::utilization_profile endless_profile() {
    workload::utilization_profile p("bench");
    p.constant(60.0, util::seconds_t{1e9});
    return p;
}

/// Fleet stepping throughput of an N-lane batch [server-steps/s]: every
/// batch step advances all N servers by one plant second.
double batch_throughput(std::size_t lanes, long total_server_steps) {
    sim::server_batch batch(sim::paper_server(), lanes);
    const auto profile = endless_profile();
    for (std::size_t l = 0; l < lanes; ++l) {
        batch.bind_workload(l, profile);
    }
    const long steps = std::max<long>(1, total_server_steps / static_cast<long>(lanes));
    const auto t0 = clock_type::now();
    for (long k = 0; k < steps; ++k) {
        batch.step(1_s);
    }
    const double wall = seconds_since(t0);
    return static_cast<double>(steps) * static_cast<double>(lanes) / wall;
}

/// Sharded fleet stepping throughput [server-steps/s].
double fleet_throughput(std::size_t lanes, std::size_t shards, long total_server_steps) {
    sim::fleet_config fc;
    fc.shards = shards;
    fc.threads = shards;
    sim::fleet fleet(sim::paper_server(), lanes, fc);
    const auto profile = endless_profile();
    for (std::size_t l = 0; l < lanes; ++l) {
        fleet.bind_workload(l, profile);
    }
    const long steps = std::max<long>(1, total_server_steps / static_cast<long>(lanes));
    const auto t0 = clock_type::now();
    for (long k = 0; k < steps; ++k) {
        fleet.step(1_s);
    }
    const double wall = seconds_since(t0);
    return static_cast<double>(steps) * static_cast<double>(lanes) / wall;
}

/// CI smoke: step a heterogeneous N-lane fleet and print a bitwise
/// state checksum.  Output must be identical for every LTSC_THREADS.
int run_smoke(std::size_t lanes, std::size_t shards) {
    sim::fleet_config fc;
    fc.shards = shards;
    fc.threads = 0;  // defer to LTSC_THREADS — the axis CI matrixes over
    sim::fleet fleet(sim::paper_server(), lanes, fc);
    const workload::utilization_profile profiles[3] = {
        workload::make_paper_test(workload::paper_test::test1_ramp),
        workload::make_paper_test(workload::paper_test::test2_periods),
        workload::make_paper_test(workload::paper_test::test3_frequent),
    };
    for (std::size_t l = 0; l < lanes; ++l) {
        fleet.bind_workload(l, profiles[l % 3]);
        fleet.set_ambient(l, util::celsius_t{22.0 + 0.5 * static_cast<double>(l % 7)});
    }
    fleet.force_cold_start();
    fleet.advance(util::seconds_t{120.0});

    double temp_sum = 0.0;
    double power_sum = 0.0;
    for (std::size_t l = 0; l < lanes; ++l) {
        temp_sum += fleet.max_cpu_sensor_temp(l).value();
        power_sum += fleet.system_power_reading(l).value();
    }
    std::printf("fleet-smoke lanes=%zu shards=%zu\n", lanes, fleet.shard_count());
    std::printf("temp_sum=%.17g\n", temp_sum);
    std::printf("power_sum=%.17g\n", power_sum);
    for (std::size_t l = 0; l < lanes; l += std::max<std::size_t>(1, lanes / 8)) {
        std::printf("lane %zu temp=%.17g\n", l, fleet.max_cpu_sensor_temp(l).value());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1 && std::strcmp(argv[1], "smoke") == 0) {
        const std::size_t lanes = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10000;
        const std::size_t shards = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;
        return run_smoke(lanes, shards);
    }
    std::printf("== rack_scale: SoA batch stepping vs a single server ==\n\n");

    // Single-server (1-lane) baseline at the same per-plant work.
    constexpr long kServerSteps = 1000000;
    double scalar_rate = 0.0;
    {
        sim::server_simulator s;
        s.bind_workload(endless_profile());
        const auto t0 = clock_type::now();
        for (long k = 0; k < kServerSteps; ++k) {
            s.step(1_s);
        }
        scalar_rate = static_cast<double>(kServerSteps) / seconds_since(t0);
    }
    std::printf("single server_simulator: %.0f steps/s\n\n", scalar_rate);

    std::printf("%8s %22s %26s\n", "N", "server-steps/s", "per-server cost vs single");
    for (std::size_t lanes : {1UL, 8UL, 64UL, 256UL}) {
        const double fleet_rate = batch_throughput(lanes, kServerSteps);
        std::printf("%8zu %22.0f %25.2fx\n", lanes, fleet_rate, scalar_rate / fleet_rate);
    }

    std::printf("\n== sharded fleet: sim::fleet, threads = shards ==\n"
                "   (per-row budget ~%ld server-steps; the 100k rows allocate ~35 GB)\n\n",
                kServerSteps);
    std::printf("%8s %8s %22s %20s\n", "N", "shards", "server-steps/s", "vs 1-shard");
    for (std::size_t lanes : {1000UL, 10000UL, 100000UL}) {
        double one_shard_rate = 0.0;
        for (std::size_t shards : {1UL, 2UL, 4UL, 8UL}) {
            const double rate = fleet_throughput(lanes, shards, kServerSteps);
            if (shards == 1) {
                one_shard_rate = rate;
            }
            std::printf("%8zu %8zu %22.0f %19.2fx\n", lanes, shards, rate,
                        rate / one_shard_rate);
        }
        std::printf("\n");
    }

    std::printf("== closed-loop fleet: Test-3 under bang-bang control ==\n\n");
    const auto profile = workload::make_paper_test(workload::paper_test::test3_frequent);
    std::printf("%8s %14s %16s %20s\n", "N", "wall [s]", "fleet kWh", "lane-steps/s");
    for (std::size_t lanes : {1UL, 8UL, 64UL}) {
        sim::server_batch batch(sim::paper_server(), lanes);
        std::vector<core::bang_bang_controller> bang(lanes);
        std::vector<core::fan_controller*> controllers;
        std::vector<workload::utilization_profile> profiles;
        for (std::size_t l = 0; l < lanes; ++l) {
            controllers.push_back(&bang[l]);
            profiles.push_back(profile);
        }
        const auto t0 = clock_type::now();
        const auto rows = core::run_controlled_batch(batch, controllers, profiles);
        const double wall = seconds_since(t0);
        double fleet_kwh = 0.0;
        for (const auto& m : rows) {
            fleet_kwh += m.energy_kwh;
        }
        const double lane_steps =
            static_cast<double>(lanes) * rows.front().duration_s / wall;
        std::printf("%8zu %14.3f %16.4f %20.0f\n", lanes, wall, fleet_kwh, lane_steps);
    }

    std::printf("\nreading: per-server step cost should stay flat (within ~1.25x of a\n"
                "single server) as N grows — the batch trades no per-lane fidelity for\n"
                "the shared instruction stream, which is what makes fleet sweeps and\n"
                "MPC-style many-rollout studies affordable.\n");
    return 0;
}
