// The server plant: workload -> power -> thermal -> telemetry, for N
// servers stepped through one instruction stream.
//
// This is the only plant model.  It stands in for the paper's physical
// testbed: its *control surface* is what the paper's DLC-PC had
// (per-pair fan speed commands, `sar`-style utilization polling), its
// *observation surface* is what CSTH reported (4 CPU sensors, 32 DIMM
// sensors, whole-system power), and plant internals (true die
// temperatures, the exact power breakdown) are exposed separately as
// ground truth the real controllers could not see.
//
// Every lane is a full server (workload synthesis, power models,
// sensors with their own seeded RNG stream, fault layer, residual
// monitor, telemetry poll clock and history, trace).  A lane's CSTH
// poll is one plain pass that reads its sensors and power state and
// appends one history row (poll_telemetry).  The thermal state lives in
// lane-contiguous flat arrays (thermal::rc_batch) and all lanes
// integrate through one batched RK4 kernel per step; power evaluation
// (active + leakage + fan) and controller decisions run as flat
// per-lane passes around it.  The single-server studies use the same
// code through sim::server_simulator, a facade over one lane.
//
// Contract: packing invariance.  A lane's trace, sensor noise stream
// and metrics are bitwise-identical whether it runs alone in a 1-lane
// batch (a server_simulator) or packed with any other lanes, including
// under mid-run fan-speed and ambient mutations; the batch_equivalence
// suite pins this.  Lanes may differ in configuration (ambient, seed,
// calibration), workload, controller, and fan commands; only the
// thermal network topology is shared.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fault_monitor.hpp"
#include "power/fan_model.hpp"
#include "power/leakage_model.hpp"
#include "power/server_power_model.hpp"
#include "sim/batch_trace.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/server_config.hpp"
#include "sim/server_state.hpp"
#include "sim/simulation_trace.hpp"
#include "telemetry/harness.hpp"
#include "thermal/rc_batch.hpp"
#include "thermal/sensors.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/rng.hpp"
#include "workload/loadgen.hpp"

namespace ltsc::sim {

/// N simulated servers in one structure-of-arrays plant.
class server_batch {
public:
    /// One lane per configuration (each validated on entry).
    explicit server_batch(std::vector<server_config> configs);

    /// N identical lanes from one configuration.
    server_batch(const server_config& config, std::size_t lanes);

    [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }

    // --- workload binding (per lane) ---------------------------------------
    /// Installs the lane's workload; resets its clock to 0, clears its
    /// trace and reactivates it.
    void bind_workload(std::size_t lane, workload::loadgen generator);
    /// Convenience: binds a profile with default LoadGen settings.
    void bind_workload(std::size_t lane, const workload::utilization_profile& profile);

    /// Skews how the CPU-bound load splits across the two sockets:
    /// socket 0 receives `fraction_socket0` of the CPU heat (0.5 =
    /// balanced, the paper's LoadGen default).  Utilization telemetry is
    /// skewed to match.
    void set_load_imbalance(std::size_t lane, double fraction_socket0);
    [[nodiscard]] double load_imbalance(std::size_t lane) const;
    /// Per-socket `sar` utilization: the socket's share of the measured
    /// load expressed against one socket's capacity (can exceed the
    /// system-level number under imbalance).
    [[nodiscard]] double measured_socket_utilization(std::size_t lane, std::size_t socket,
                                                     util::seconds_t window) const;

    // --- fault injection (per lane) -----------------------------------------
    /// Installs a fault campaign (copied).  Events fire at the top of the
    /// step whose start time reaches them; any live effects from a
    /// previous binding clear.  force_cold_start rewinds the campaign to
    /// its first event along with the clock.  Targets are validated
    /// against the lane's fan and sensor counts.  At least one fan pair
    /// must stay healthy at all times — a schedule failing every pair at
    /// once trips the plant's airflow precondition when it fires.
    void bind_fault_schedule(std::size_t lane, fault_schedule schedule);
    /// Removes the campaign and clears every live effect.
    void clear_fault_schedule(std::size_t lane);
    /// The bound campaign, or nullptr (predictive controllers bind it to
    /// their rollout lanes like the workload preview).
    [[nodiscard]] const fault_schedule* bound_fault_schedule(std::size_t lane) const {
        const auto& f = at(lane).faults;
        return f ? &*f : nullptr;
    }
    /// Live fault effects (which fans/sensors are degraded right now).
    [[nodiscard]] const fault_state& current_fault_state(std::size_t lane) const {
        return at(lane).fault;
    }

    /// The lane's residual monitor, or nullptr when the lane's
    /// config.monitor.enabled is false.  Read-only: the monitor is a
    /// passive observer of the plant (it never perturbs dynamics or the
    /// sensor RNG stream).
    [[nodiscard]] const core::fault_monitor* monitor(std::size_t lane) const {
        const auto& m = at(lane).monitor;
        return m ? &*m : nullptr;
    }

    /// Age of the lane's last telemetry poll: now minus the last poll
    /// time, or +infinity before the first poll.  Under telemetry loss
    /// this grows past the poll period — the failsafe controller's
    /// trigger.
    [[nodiscard]] double telemetry_age_s(std::size_t lane) const;

    // --- control surface (per lane) ----------------------------------------
    /// Commands one fan pair; the plant clamps to the legal RPM range and
    /// rejects an out-of-range pair index.  A pair under a fan fault
    /// latches the command without actuating it (applied on recovery,
    /// like re-plugging a PWM line); latched commands do not count as
    /// fan-speed changes.
    void set_fan_speed(std::size_t lane, std::size_t pair_index, util::rpm_t rpm);
    /// Commands all pairs at once (counts as a single fan-speed change).
    void set_all_fans(std::size_t lane, util::rpm_t rpm);
    /// Tachometer reading of one pair: the commanded speed, or 0 while
    /// the pair's rotor is failed.
    [[nodiscard]] util::rpm_t fan_speed(std::size_t lane, std::size_t pair_index) const;
    [[nodiscard]] util::rpm_t average_fan_rpm(std::size_t lane) const;
    /// Cumulative number of commands that actually changed a speed.
    [[nodiscard]] std::size_t fan_change_count(std::size_t lane) const;
    /// Zeroes the fan-change counter (e.g. after applying a run's initial
    /// speed, which Table I does not count as a controller action).
    void reset_fan_change_counter(std::size_t lane);

    /// `sar`-style utilization: mean instantaneous utilization over the
    /// trailing `window` (the DLC-PC polls this every second).
    [[nodiscard]] double measured_utilization(std::size_t lane, util::seconds_t window) const;

    // --- observation surface (per lane) ------------------------------------
    /// Latest CPU sensor readings (4 values), from the last telemetry poll
    /// (the reference stays valid; the values change at the next poll).
    [[nodiscard]] const std::vector<double>& cpu_sensor_temps(std::size_t lane) const;
    /// Maximum of the CPU sensor readings at the last telemetry poll.
    [[nodiscard]] util::celsius_t max_cpu_sensor_temp(std::size_t lane) const;
    /// Whole-system power as the power sensor reports it.
    [[nodiscard]] util::watts_t system_power_reading(std::size_t lane) const;
    /// The lane's sensor complement (4 CPU, `dimm_count` DIMM sensors).
    [[nodiscard]] const thermal::server_sensor_suite& sensors(std::size_t lane) const {
        return at(lane).sensors;
    }
    /// The lane's telemetry: poll clock and per-poll history (columns
    /// cpu0_temp_a, cpu0_temp_b, cpu1_temp_a, cpu1_temp_b, cpu0_current,
    /// cpu1_current, system_power, fan_power).
    [[nodiscard]] const telemetry::harness& telemetry(std::size_t lane) const;

    // --- ground truth (per lane; not visible to real controllers) ----------
    [[nodiscard]] util::celsius_t true_cpu_temp(std::size_t lane, std::size_t socket) const;
    [[nodiscard]] util::celsius_t true_avg_cpu_temp(std::size_t lane) const;
    [[nodiscard]] util::celsius_t true_dimm_temp(std::size_t lane) const;
    [[nodiscard]] power::power_breakdown current_power(std::size_t lane) const;

    /// Changes one lane's room (inlet) temperature mid-run; takes effect
    /// through the plant dynamics on subsequent steps (aisle gradients,
    /// setpoint drift, ambient sweeps).
    void set_ambient(std::size_t lane, util::celsius_t t);
    [[nodiscard]] util::celsius_t ambient(std::size_t lane) const;

    // --- lane state save/restore --------------------------------------------
    /// Writes one lane's complete dynamic state into `out` (overwriting
    /// it; see server_state for exactly what that covers).  Pure read:
    /// the lane is left untouched, so interleaving snapshots with
    /// stepping cannot perturb a run.
    void snapshot_lane_state(std::size_t lane, server_state& out) const;

    /// Clones a snapshot (from any lane of a plant built from the same
    /// configuration) into one lane: the rollout and rewind primitive.
    /// The lane's workload binding is left as-is — bind first, load
    /// after, since binding resets the clock this call sets.  The lane's
    /// trace and telemetry histories clear (recording restarts at the
    /// snapshot instant) and the lane reactivates if it was inert.
    /// Subsequent stepping is bitwise-identical to the snapshot's source
    /// plant (snapshot_roundtrip suite).
    void load_lane_state(std::size_t lane, const server_state& state);

    /// The lane's bound workload, or nullptr before any bind_workload
    /// (read-only; predictive controllers use it as the rollout preview).
    [[nodiscard]] const workload::loadgen* workload(std::size_t lane) const {
        const auto& w = at(lane).workload;
        return w ? &*w : nullptr;
    }

    // --- time ---------------------------------------------------------------
    /// Advances every *active* lane by `dt` through the batched thermal
    /// kernel.  Inert lanes (see set_lane_active) are left bitwise
    /// untouched: no heat update, no integration, no time advance, no
    /// recording, no telemetry poll.  A step with every lane inert is a
    /// no-op.
    void step(util::seconds_t dt = util::seconds_t{1.0});
    /// Repeatedly steps until `duration` has elapsed.
    void advance(util::seconds_t duration, util::seconds_t dt = util::seconds_t{1.0});
    [[nodiscard]] util::seconds_t now(std::size_t lane) const;

    /// Ragged fleets: marks one lane (in)active for subsequent steps.
    /// Lanes whose workload finishes early go inert while the rest of
    /// the fleet keeps stepping; binding a workload or forcing a cold
    /// start reactivates the lane.
    void set_lane_active(std::size_t lane, bool active);
    [[nodiscard]] bool lane_active(std::size_t lane) const;

    /// The paper's cold-start protocol on one lane / every lane:
    /// temperatures settle to the idle steady state with fans at the
    /// cold-start speed, live fault effects clear and the campaign
    /// rewinds, time rewinds to 0 and the trace clears.
    void force_cold_start(std::size_t lane);
    void force_cold_start();

    /// Jumps one lane to the self-consistent steady state of a constant
    /// utilization at its current fan speeds (characterization sweeps
    /// use this instead of integrating long transients).  Does not touch
    /// the trace or the clock.
    void settle_at(std::size_t lane, double u_pct);

    /// Steady-state idle wall power at the given fan speed (the quantity
    /// the paper subtracts to compute net savings).
    [[nodiscard]] util::watts_t idle_power(std::size_t lane, util::rpm_t fan_rpm) const;

    // --- recording (per lane) -----------------------------------------------
    /// View of one lane's recording in the shared lane-major arena
    /// (invalidated by the next step/clear; materialize with
    /// `simulation_trace{batch.trace(l)}` to keep it).
    [[nodiscard]] trace_view trace(std::size_t lane) const;
    void clear_trace(std::size_t lane);

    /// The shared lane-major recording arena (row-group publication for
    /// the streaming telemetry service reads it directly).
    [[nodiscard]] const batch_trace& traces() const { return traces_; }

    [[nodiscard]] const server_config& config(std::size_t lane) const;

private:
    struct lane_state {
        explicit lane_state(const server_config& cfg)
            : config(cfg),
              rng(cfg.seed, 0xda3e39cb94b95bdbULL),
              fans(cfg.fan_pairs, cfg.fan, cfg.default_fan_rpm),
              leakage(cfg.leakage),
              active(cfg.active_coeff_w_per_pct, cfg.split, cfg.cpu_heat_shape_exponent),
              sensors(thermal::make_server_sensors(cfg.dimm_count, cfg.sensor_noise_sigma,
                                                   cfg.sensor_quantum)),
              telemetry(util::seconds_t{cfg.telemetry_period_s}, history_names(sensors)) {}

        server_config config;
        util::pcg32 rng;
        power::fan_bank fans;
        power::leakage_model leakage;
        power::active_model active;
        thermal::server_sensor_suite sensors;
        telemetry::harness telemetry;
        std::optional<workload::loadgen> workload;

        double now_s = 0.0;
        double imbalance = 0.5;
        std::size_t fan_changes = 0;
        std::vector<double> last_cpu_sensor_reads;

        std::optional<fault_schedule> faults;
        fault_state fault;  ///< Always sized, so snapshots are always valid.
        std::optional<core::fault_monitor> monitor;  ///< Present iff config.monitor.enabled.

        // Mirror of server_thermal_model's per-plant scalar state; the
        // node/edge state itself lives in the shared rc_batch lanes.
        std::vector<double> zone_airflow_cfm;
        double cpu_heat_w[2] = {0.0, 0.0};
        double dimm_heat_w = 0.0;
        double sink_g_w_per_k[2] = {0.0, 0.0};
        double stream_capacity_w_per_k = 0.0;
    };

    void init_lane(std::size_t lane, const server_config& config);
    /// Telemetry history row: the 4 CPU sensors, 2 socket rail currents,
    /// system power, fan power.
    static constexpr std::size_t history_columns = 8;
    [[nodiscard]] static std::vector<std::string> history_names(
        const thermal::server_sensor_suite& sensors);
    /// One CSTH poll of a lane: reads every sensor, delivers the CPU
    /// readings, appends one history row and moves the poll clock.
    void poll_telemetry(std::size_t lane);
    void apply_due_faults(std::size_t lane);
    void apply_fault_event(std::size_t lane, const fault_event& event);
    void clear_fault_effects(std::size_t lane);
    [[nodiscard]] double corrupt_sensor_reading(std::size_t lane, std::size_t sensor,
                                                double raw) const;
    void apply_airflow(std::size_t lane);
    void update_conductances(std::size_t lane);
    void update_preheat(std::size_t lane);
    void apply_heat(std::size_t lane, double u_inst);
    void settle_to_steady_state(std::size_t lane);
    void record(std::size_t lane, double u_target, double u_inst);
    [[nodiscard]] power::power_breakdown breakdown_at(std::size_t lane, double u_inst) const;
    [[nodiscard]] double total_airflow_cfm(std::size_t lane) const;
    [[nodiscard]] double effective_airflow_cfm(std::size_t lane, std::size_t component_zone) const;
    [[nodiscard]] double die_temp(std::size_t lane, std::size_t socket) const;

    [[nodiscard]] lane_state& at(std::size_t lane);
    [[nodiscard]] const lane_state& at(std::size_t lane) const;

    // Topology prototype (node/edge handles) shared by every lane.
    thermal::server_thermal_model proto_;
    thermal::rc_batch batch_;
    std::vector<std::unique_ptr<lane_state>> lanes_;

    // Lane-major columnar recording: all lanes of a step append into one
    // contiguous arena row-group.
    batch_trace traces_;

    // Per-lane active flags (ragged fleets); inert_count_ keeps the
    // all-active hot path on the unmasked kernel.
    std::vector<unsigned char> active_;
    std::size_t inert_count_ = 0;

    // Per-step scratch so stepping does not allocate.
    std::vector<double> u_target_scratch_;
    std::vector<double> u_inst_scratch_;
};

/// Steady-state idle wall power of a server described by `config` with
/// every fan pair at `fan_rpm` (server_batch::idle_power's accounting
/// floor), from a scratch plant that disturbs no live one.
[[nodiscard]] util::watts_t steady_idle_power(const server_config& config, util::rpm_t fan_rpm);

}  // namespace ltsc::sim
