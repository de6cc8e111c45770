// One simulated enterprise server: the paper's testbed.
//
// A server_simulator is a facade over lane 0 of a 1-lane server_batch.
// Every method forwards to the lane, so a single-server study and a
// fleet run the same plant code and a server_simulator is, bit for bit,
// any lane of a batch driven through the same schedule.  See
// server_batch for the semantics of each call: the control surface (fan
// commands, utilization polling), the observation surface (CPU sensors,
// system power), ground truth, fault injection, snapshots and
// recording.
#pragma once

#include <vector>

#include "sim/server_batch.hpp"

namespace ltsc::sim {

/// Simulated enterprise server (one lane of a server_batch).
class server_simulator {
public:
    /// Builds the plant from a configuration (validated on entry).
    explicit server_simulator(const server_config& config = paper_server())
        : batch_(config, 1) {}

    // --- workload binding -------------------------------------------------
    /// Installs the workload; resets simulation time to 0.
    void bind_workload(workload::loadgen generator) {
        batch_.bind_workload(0, std::move(generator));
    }
    void bind_workload(const workload::utilization_profile& profile) {
        batch_.bind_workload(0, profile);
    }

    void set_load_imbalance(double fraction_socket0) {
        batch_.set_load_imbalance(0, fraction_socket0);
    }
    [[nodiscard]] double load_imbalance() const { return batch_.load_imbalance(0); }
    [[nodiscard]] double measured_socket_utilization(std::size_t socket,
                                                     util::seconds_t window) const {
        return batch_.measured_socket_utilization(0, socket, window);
    }

    // --- fault injection ----------------------------------------------------
    void bind_fault_schedule(fault_schedule schedule) {
        batch_.bind_fault_schedule(0, std::move(schedule));
    }
    void clear_fault_schedule() { batch_.clear_fault_schedule(0); }
    [[nodiscard]] const fault_schedule* bound_fault_schedule() const {
        return batch_.bound_fault_schedule(0);
    }
    [[nodiscard]] const fault_state& current_fault_state() const {
        return batch_.current_fault_state(0);
    }
    [[nodiscard]] const core::fault_monitor* monitor() const { return batch_.monitor(0); }
    [[nodiscard]] double telemetry_age_s() const { return batch_.telemetry_age_s(0); }

    // --- control surface (what the DLC-PC could actuate/poll) -------------
    void set_fan_speed(std::size_t pair_index, util::rpm_t rpm) {
        batch_.set_fan_speed(0, pair_index, rpm);
    }
    void set_all_fans(util::rpm_t rpm) { batch_.set_all_fans(0, rpm); }
    [[nodiscard]] util::rpm_t fan_speed(std::size_t pair_index) const {
        return batch_.fan_speed(0, pair_index);
    }
    [[nodiscard]] util::rpm_t average_fan_rpm() const { return batch_.average_fan_rpm(0); }
    [[nodiscard]] std::size_t fan_change_count() const { return batch_.fan_change_count(0); }
    void reset_fan_change_counter() { batch_.reset_fan_change_counter(0); }
    [[nodiscard]] double measured_utilization(util::seconds_t window) const {
        return batch_.measured_utilization(0, window);
    }

    // --- observation surface (what CSTH reported) --------------------------
    [[nodiscard]] std::vector<double> cpu_sensor_temps() const {
        return batch_.cpu_sensor_temps(0);
    }
    [[nodiscard]] util::celsius_t max_cpu_sensor_temp() const {
        return batch_.max_cpu_sensor_temp(0);
    }
    [[nodiscard]] util::watts_t system_power_reading() const {
        return batch_.system_power_reading(0);
    }
    [[nodiscard]] const telemetry::harness& telemetry() const { return batch_.telemetry(0); }

    // --- ground truth (plant internals; not visible to real controllers) ---
    [[nodiscard]] util::celsius_t true_cpu_temp(std::size_t socket) const {
        return batch_.true_cpu_temp(0, socket);
    }
    [[nodiscard]] util::celsius_t true_avg_cpu_temp() const {
        return batch_.true_avg_cpu_temp(0);
    }
    [[nodiscard]] util::celsius_t true_dimm_temp() const { return batch_.true_dimm_temp(0); }
    [[nodiscard]] power::power_breakdown current_power() const {
        return batch_.current_power(0);
    }

    // --- time ---------------------------------------------------------------
    void step(util::seconds_t dt = util::seconds_t{1.0}) { batch_.step(dt); }
    void advance(util::seconds_t duration, util::seconds_t dt = util::seconds_t{1.0}) {
        batch_.advance(duration, dt);
    }
    [[nodiscard]] util::seconds_t now() const { return batch_.now(0); }

    void force_cold_start() { batch_.force_cold_start(0); }
    void settle_at(double u_pct) { batch_.settle_at(0, u_pct); }
    [[nodiscard]] util::watts_t idle_power(util::rpm_t fan_rpm) const {
        return batch_.idle_power(0, fan_rpm);
    }
    void set_ambient(util::celsius_t t) { batch_.set_ambient(0, t); }
    [[nodiscard]] util::celsius_t ambient() const { return batch_.ambient(0); }

    // --- state save/restore --------------------------------------------------
    void snapshot_state(server_state& out) const { batch_.snapshot_lane_state(0, out); }
    [[nodiscard]] server_state snapshot_state() const {
        server_state out;
        snapshot_state(out);
        return out;
    }
    /// Rewinds the plant to a snapshot (bind the matching workload
    /// first; see server_batch::load_lane_state).
    void restore_state(const server_state& state) { batch_.load_lane_state(0, state); }

    [[nodiscard]] const workload::loadgen* workload() const { return batch_.workload(0); }

    // --- recording -----------------------------------------------------------
    /// View of the recording; invalidated by the next step or clear
    /// (materialize with `simulation_trace{sim.trace()}` to keep it).
    [[nodiscard]] trace_view trace() const { return batch_.trace(0); }
    void clear_trace() { batch_.clear_trace(0); }

    [[nodiscard]] const server_config& config() const { return batch_.config(0); }

    /// The underlying 1-lane plant (the controller runtime drives it
    /// through the same loop as any fleet).
    [[nodiscard]] server_batch& batch() { return batch_; }
    [[nodiscard]] const server_batch& batch() const { return batch_; }

private:
    server_batch batch_;
};

}  // namespace ltsc::sim
