#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/bang_bang_controller.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "core/lut_controller.hpp"
#include "sim/fleet.hpp"

namespace perfbench {

using namespace ltsc;

std::optional<util::rpm_t> timed_controller::decide(const core::controller_inputs& in) {
    const std::int64_t t0 = now_ns();
    probe_->before(t0);
    const auto out = inner_->decide(in);
    probe_->after(t0, now_ns());
    return out;
}

std::optional<std::vector<util::rpm_t>> timed_controller::decide_zones(
    const core::controller_inputs& in) {
    const std::int64_t t0 = now_ns();
    probe_->before(t0);
    auto out = inner_->decide_zones(in);
    probe_->after(t0, now_ns());
    return out;
}

// --- Table-I reference cells -------------------------------------------------

const double table1_paper_kwh[table1_cells] = {
    0.6695, 0.6570, 0.6556,  // Test-1: Default / Bang / LUT
    0.6857, 0.6856, 0.6685,  // Test-2
    0.6284, 0.6253, 0.6226,  // Test-3
    0.6160, 0.6101, 0.6071,  // Test-4
};

workload::paper_test paper_test_of(std::size_t test) {
    return static_cast<workload::paper_test>(test + 1);
}

std::unique_ptr<core::fan_controller> make_table1_controller(std::size_t cell,
                                                             const core::fan_lut& lut) {
    switch (cell % 3) {
        case 0: return std::make_unique<core::default_controller>();
        case 1: return std::make_unique<core::bang_bang_controller>();
        default: return std::make_unique<core::lut_controller>(lut);
    }
}

workload::utilization_profile table1_profile(std::size_t cell) {
    return workload::make_paper_test(paper_test_of(cell / 3));
}

double table1_energy_err_pct(const std::vector<sim::run_metrics>& cells) {
    double sum = 0.0;
    for (std::size_t c = 0; c < table1_cells; ++c) {
        sum += std::abs(cells.at(c).energy_kwh - table1_paper_kwh[c]) / table1_paper_kwh[c];
    }
    return 100.0 * sum / static_cast<double>(table1_cells);
}

std::vector<bool> table1_shape_ok(const std::vector<sim::run_metrics>& cells) {
    std::vector<bool> ok(table1_cells, true);
    for (std::size_t t = 0; t < 4; ++t) {
        const sim::run_metrics& dflt = cells.at(3 * t);
        const sim::run_metrics& bang = cells.at(3 * t + 1);
        const sim::run_metrics& lut = cells.at(3 * t + 2);
        const bool lut_lowest =
            lut.energy_kwh < dflt.energy_kwh && lut.energy_kwh < bang.energy_kwh;
        for (std::size_t c = 0; c < 3; ++c) {
            ok[3 * t + c] = lut_lowest;
        }
        ok[3 * t] = ok[3 * t] && dflt.fan_changes == 0;
    }
    return ok;
}

table1_outcome run_table1(const core::fan_lut& lut, std::size_t threads) {
    sim::fleet_config cfg;
    cfg.threads = threads;
    sim::fleet fleet(sim::paper_server(), table1_cells, cfg);
    std::vector<std::unique_ptr<core::fan_controller>> owned;
    std::vector<core::fan_controller*> controllers;
    std::vector<workload::utilization_profile> profiles;
    for (std::size_t c = 0; c < table1_cells; ++c) {
        owned.push_back(make_table1_controller(c, lut));
        controllers.push_back(owned.back().get());
        profiles.push_back(table1_profile(c));
    }
    const std::vector<sim::run_metrics> cells =
        core::run_controlled_fleet(fleet, controllers, profiles);
    const std::vector<bool> shape = table1_shape_ok(cells);
    table1_outcome out;
    out.energy_err_pct = table1_energy_err_pct(cells);
    out.failed_cells = static_cast<std::uint64_t>(std::count(shape.begin(), shape.end(), false));
    return out;
}

bool same_metrics(const sim::run_metrics& a, const sim::run_metrics& b) {
    return a.test_name == b.test_name && a.controller_name == b.controller_name &&
           a.energy_kwh == b.energy_kwh && a.peak_power_w == b.peak_power_w &&
           a.max_temp_c == b.max_temp_c && a.fan_changes == b.fan_changes &&
           a.avg_rpm == b.avg_rpm && a.avg_cpu_temp_c == b.avg_cpu_temp_c &&
           a.duration_s == b.duration_s;
}

// --- host facts ----------------------------------------------------------------

std::size_t affinity_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
        return 1;
    }
    const int n = CPU_COUNT(&set);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string affinity_list() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
        return "unknown";
    }
    std::string out;
    int run_start = -1;
    for (int c = 0; c <= CPU_SETSIZE; ++c) {
        const bool in = c < CPU_SETSIZE && CPU_ISSET(c, &set);
        if (in && run_start < 0) {
            run_start = c;
        } else if (!in && run_start >= 0) {
            out += (out.empty() ? "" : ",") + std::to_string(run_start);
            if (c - 1 > run_start) {
                out += "-" + std::to_string(c - 1);
            }
            run_start = -1;
        }
    }
    return out;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

}  // namespace perfbench
