// Pieces the three workloads share: the run options, the result each
// workload hands back, the timing decorator around core::fan_controller,
// the Table-I reference cells, and host facts (CPU budget, peak RSS).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/fan_lut.hpp"
#include "helpers.hpp"
#include "sim/metrics.hpp"
#include "sim/server_config.hpp"
#include "workload/paper_tests.hpp"
#include "workload/profile.hpp"

namespace perfbench {

/// Set-up repetitions per run; setup_s is their median.  The first
/// one or two run cold (page faults, first thread starts), so enough
/// repetitions that the median falls among the warm ones.
constexpr int kSetupReps = 15;

/// Wall time each run spends on its workload before the measured
/// window: a multi-threaded burst on the reference host reaches full
/// speed only after a few seconds, so rounds start after this.
constexpr double kWarmupSeconds = 4.0;

struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir;  ///< Where the traced run writes its spans.
    std::size_t cpus = 1; ///< CPUs in this process's affinity mask.
};

/// What a workload reports.  End-to-end values always; per-layer
/// values (keyed by the per-layer metric names) only in a traced run.
struct workload_result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<round_stats> rounds;  ///< Of the untraced pass.
    double table1_energy_err_pct = 0.0;
    double setup_s = 0.0;
    std::map<std::string, double> layer;
    /// Provenance entries (JSON values, already serialized).
    std::map<std::string, std::string> provenance;
};

workload_result run_fleet_control(const run_options& opt);
workload_result run_rollout_mpc(const run_options& opt);

/// Runs the live-telemetry phase (telemetry_service under ingest and
/// HTTP load) for `seconds`, traced, and adds its operations, failures
/// and per-layer metrics to `r`.
void run_live_telemetry(const run_options& opt, double seconds, workload_result& r);

// --- timing decorator ------------------------------------------------------

/// Observer of a decorated controller's calls.  `before`/`after`
/// bracket every decision on the deciding thread.
class decide_probe {
public:
    virtual ~decide_probe() = default;
    virtual void on_attach(const ltsc::core::plant_access* plant) { static_cast<void>(plant); }
    virtual void before(std::int64_t t0_ns) { static_cast<void>(t0_ns); }
    virtual void after(std::int64_t t0_ns, std::int64_t t1_ns) = 0;
};

/// Forwards every call to `inner` and times decisions for `probe`,
/// which it owns.
class timed_controller final : public ltsc::core::fan_controller {
public:
    timed_controller(std::unique_ptr<ltsc::core::fan_controller> inner,
                     std::unique_ptr<decide_probe> probe)
        : inner_(std::move(inner)), probe_(std::move(probe)) {}

    [[nodiscard]] ltsc::util::seconds_t polling_period() const override {
        return inner_->polling_period();
    }
    [[nodiscard]] std::optional<ltsc::util::rpm_t> decide(
        const ltsc::core::controller_inputs& in) override;
    [[nodiscard]] std::optional<std::vector<ltsc::util::rpm_t>> decide_zones(
        const ltsc::core::controller_inputs& in) override;
    [[nodiscard]] std::string name() const override { return inner_->name(); }
    void reset() override { inner_->reset(); }
    void attach_plant(const ltsc::core::plant_access* plant) override {
        probe_->on_attach(plant);
        inner_->attach_plant(plant);
    }

private:
    std::unique_ptr<ltsc::core::fan_controller> inner_;
    std::unique_ptr<decide_probe> probe_;
};

/// Paper test `test` of the generators' 0-based index (0..3 = Test-1..4).
[[nodiscard]] ltsc::workload::paper_test paper_test_of(std::size_t test);

// --- Table-I reference cells -------------------------------------------------

/// The 12 Table-I cells (4 paper tests x Default/Bang/LUT) at the paper
/// configuration, in table order: cell 3*t + c.
constexpr std::size_t table1_cells = 12;

/// Paper Table I energies [kWh], in cell order.
extern const double table1_paper_kwh[table1_cells];

/// Builds cell `c`'s controller (Default, Bang or LUT over `lut`).
[[nodiscard]] std::unique_ptr<ltsc::core::fan_controller> make_table1_controller(
    std::size_t cell, const ltsc::core::fan_lut& lut);

/// Profile of cell `c` (the paper test at its default seed).
[[nodiscard]] ltsc::workload::utilization_profile table1_profile(std::size_t cell);

/// Mean |sim - paper| / paper over the cells [%].
[[nodiscard]] double table1_energy_err_pct(const std::vector<ltsc::sim::run_metrics>& cells);

/// Table-I shape per cell: LUT has the lowest energy of its test and
/// Default makes no fan change.  Returns one verdict per cell.
[[nodiscard]] std::vector<bool> table1_shape_ok(const std::vector<ltsc::sim::run_metrics>& cells);

/// The fidelity anchor of the workloads without their own Table-I
/// lanes: the 12 cells run as one small closed-loop fleet after the
/// measured window.  Each cell is one more operation, and a cell whose
/// Table-I shape does not hold is a failed one.
struct table1_outcome {
    double energy_err_pct = 0.0;
    std::uint64_t failed_cells = 0;
};
[[nodiscard]] table1_outcome run_table1(const ltsc::core::fan_lut& lut, std::size_t threads);

/// Bitwise equality of two metric rows (every field).
[[nodiscard]] bool same_metrics(const ltsc::sim::run_metrics& a, const ltsc::sim::run_metrics& b);

// --- host facts ----------------------------------------------------------------

/// CPUs in this process's affinity mask (at least 1).
[[nodiscard]] std::size_t affinity_cpus();
/// The affinity mask as a CPU list ("0-3").
[[nodiscard]] std::string affinity_list();
/// Peak resident set size of this process [MiB].
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
