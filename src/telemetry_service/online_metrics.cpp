#include "telemetry_service/online_metrics.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/units.hpp"

namespace ltsc::telemetry_service {

namespace {

[[nodiscard]] constexpr std::size_t ch(sim::trace_channel c) {
    return static_cast<std::size_t>(c);
}

}  // namespace

void window_accumulator::add(double t, const double* channels) {
    const double power = channels[ch(sim::trace_channel::total_power)];
    const double rpm = channels[ch(sim::trace_channel::avg_fan_rpm)];
    const double cpu = channels[ch(sim::trace_channel::avg_cpu_temp)];
    const double max_sensor = channels[ch(sim::trace_channel::max_sensor_temp)];
    if (rows_ == 0) {
        t_first_ = t;
        first_rpm_ = rpm;
        first_cpu_ = cpu;
        peak_power_ = power;
        max_temp_ = max_sensor;
    } else {
        util::ensure(t >= t_last_, "window_accumulator::add: non-monotonic timestamp");
        // The exact trapezoid sequence detail::integrate walks, one
        // segment at a time: identical operands, identical order.
        energy_j_ += 0.5 * (prev_power_ + power) * (t - t_last_);
        rpm_integral_ += 0.5 * (prev_rpm_ + rpm) * (t - t_last_);
        cpu_integral_ += 0.5 * (prev_cpu_ + cpu) * (t - t_last_);
        peak_power_ = std::max(peak_power_, power);
        max_temp_ = std::max(max_temp_, max_sensor);
    }
    if (max_sensor >= guard_temp_c_) {
        ++guard_trips_;
    }
    t_last_ = t;
    prev_power_ = power;
    prev_rpm_ = rpm;
    prev_cpu_ = cpu;
    ++rows_;
}

sim::run_metrics window_accumulator::close(std::string test_name, std::string controller_name) {
    util::ensure(rows_ >= 2, "window_accumulator::close: window too short");
    sim::run_metrics m;
    m.test_name = std::move(test_name);
    m.controller_name = std::move(controller_name);
    m.duration_s = t_last_ - t_first_;
    m.energy_kwh = util::to_kwh(util::joules_t{energy_j_});
    m.peak_power_w = peak_power_;
    m.max_temp_c = max_temp_;
    m.fan_changes = 0;
    // mean_over degenerates to the first value when the window spans no
    // time; otherwise it divides the same integral by the same width.
    if (t_last_ <= t_first_) {
        m.avg_rpm = first_rpm_;
        m.avg_cpu_temp_c = first_cpu_;
    } else {
        m.avg_rpm = rpm_integral_ / (t_last_ - t_first_);
        m.avg_cpu_temp_c = cpu_integral_ / (t_last_ - t_first_);
    }
    rows_ = 0;
    energy_j_ = 0.0;
    rpm_integral_ = 0.0;
    cpu_integral_ = 0.0;
    guard_trips_ = 0;
    return m;
}

online_state::online_state(std::size_t lanes, online_config cfg)
    : cfg_(cfg),
      margins_(cfg.margin_lo_c, cfg.margin_hi_c, cfg.margin_bins) {
    util::ensure(lanes > 0, "online_state: need at least one lane");
    util::ensure(cfg.window_rows >= 2, "online_state: window_rows must be >= 2");
    lanes_.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        lanes_.emplace_back(cfg.guard_temp_c);
    }
}

void online_state::apply_group(const sim::batch_trace& trace, std::size_t group) {
    util::ensure(trace.lane_count() == lanes_.size(),
                 "online_state::apply_group: trace lane count != state lane count");
    const double* data = trace.group_data(group);
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        if (!trace.lane_in_group(l, group)) {
            continue;
        }
        const double* slot = data + l * sim::batch_trace::slot_doubles;
        apply_row(l, slot[0], slot + 1);
    }
    ++row_groups_;
}

void online_state::apply_row(std::size_t lane, double t, const double* channels) {
    util::ensure(lane < lanes_.size(), "online_state::apply_row: lane out of range");
    lane_state& ln = lanes_[lane];
    ln.acc.add(t, channels);

    const double max_sensor = channels[ch(sim::trace_channel::max_sensor_temp)];
    max_temp_c_ = std::max(max_temp_c_, max_sensor);
    margins_.add(cfg_.guard_temp_c - max_sensor);
    if (max_sensor >= cfg_.guard_temp_c) {
        ++guard_trip_rows_;
    }
    if (channels[ch(sim::trace_channel::monitor_sensor_health)] >= 1.0) {
        ++sensor_alarm_rows_;
    }
    if (channels[ch(sim::trace_channel::monitor_fan_health)] >= 1.0) {
        ++fan_alarm_rows_;
    }
    ++rows_;
    ++ln.window.rows;
    ln.window.open_rows = ln.acc.rows();

    if (ln.acc.rows() == cfg_.window_rows) {
        ln.window.guard_trip_rows = ln.acc.guard_trip_rows();
        ln.window.metrics = ln.acc.close("window", "online");
        ln.window.valid = true;
        ++ln.window.closed;
        ln.window.open_rows = 0;
        ++closed_windows_;
        closed_energy_kwh_ += ln.window.metrics.energy_kwh;
    }
}

const lane_window& online_state::lane(std::size_t lane) const {
    util::ensure(lane < lanes_.size(), "online_state::lane: lane out of range");
    return lanes_[lane].window;
}

}  // namespace ltsc::telemetry_service
