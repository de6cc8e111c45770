// Property-based and parameterized sweeps over the library's invariants:
// monotonicity laws, conservation, optimality of the LUT, controller
// safety and behavioural contracts, and solver agreement — each checked
// across a grid of operating points or policies via TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "core/extremum_seeking_controller.hpp"
#include "core/failsafe_controller.hpp"
#include "core/fan_lut.hpp"
#include "core/lut_controller.hpp"
#include "core/pid_controller.hpp"
#include "core/zone_lut_controller.hpp"
#include "power/fan_model.hpp"
#include "power/leakage_model.hpp"
#include "sim/experiment.hpp"
#include "sim/server_batch.hpp"
#include "sim/server_simulator.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/steady_state.hpp"
#include "thermal/transient_solver.hpp"
#include "util/rng.hpp"
#include "workload/paper_tests.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

// --- leakage law properties ---------------------------------------------------

class LeakageTemps : public ::testing::TestWithParam<double> {};

TEST_P(LeakageTemps, StrictlyIncreasingAndConvex) {
    const power::leakage_model m;
    const double t = GetParam();
    const double h = 1.0;
    const double lo = m.at(util::celsius_t{t - h}).value();
    const double mid = m.at(util::celsius_t{t}).value();
    const double hi = m.at(util::celsius_t{t + h}).value();
    EXPECT_GT(mid, lo);
    EXPECT_GT(hi, mid);
    // Exponential is convex: midpoint under the chord.
    EXPECT_LT(mid, 0.5 * (lo + hi));
}

TEST_P(LeakageTemps, ShareScalingExact) {
    const power::leakage_model m;
    const double t = GetParam();
    for (int n : {1, 2, 4, 8}) {
        EXPECT_NEAR(m.share_at(util::celsius_t{t}, n).value() * n,
                    m.at(util::celsius_t{t}).value(), 1e-10);
    }
}

INSTANTIATE_TEST_SUITE_P(TemperatureGrid, LeakageTemps,
                         ::testing::Values(30.0, 40.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0,
                                           85.0, 90.0));

// --- fan law properties ----------------------------------------------------------

class FanRpms : public ::testing::TestWithParam<double> {};

TEST_P(FanRpms, CubicPowerLinearAirflow) {
    const power::fan_pair pair{power::fan_spec{}};
    const double rpm = GetParam();
    const double ratio = rpm / 4200.0;
    EXPECT_NEAR(pair.power(util::rpm_t{rpm}).value(), 16.7 * ratio * ratio * ratio, 1e-9);
    EXPECT_NEAR(pair.airflow(util::rpm_t{rpm}).value(), 51.0 * ratio, 1e-9);
}

TEST_P(FanRpms, MarginalCostGrowsWithSpeed) {
    // d(P)/d(rpm) increases with rpm: spinning faster costs ever more.
    const power::fan_pair pair{power::fan_spec{}};
    const double rpm = GetParam();
    if (rpm + 300.0 > 4200.0) {
        GTEST_SKIP() << "no headroom above " << rpm;
    }
    const double below = pair.power(util::rpm_t{rpm}).value() -
                         pair.power(util::rpm_t{rpm - 300.0}).value();
    const double above = pair.power(util::rpm_t{rpm + 300.0}).value() -
                         pair.power(util::rpm_t{rpm}).value();
    EXPECT_GT(above, below);
}

INSTANTIATE_TEST_SUITE_P(RpmGrid, FanRpms,
                         ::testing::Values(2100.0, 2400.0, 2700.0, 3000.0, 3300.0, 3600.0,
                                           3900.0));

// --- plant monotonicity across utilization -----------------------------------------

class UtilLevels : public ::testing::TestWithParam<double> {};

TEST_P(UtilLevels, SteadyTempDecreasesWithRpm) {
    sim::server_simulator s;
    const double u = GetParam();
    double prev = 1e9;
    for (double rpm : {1800.0, 2400.0, 3000.0, 3600.0, 4200.0}) {
        const auto p = sim::measure_steady_point(s, u, util::rpm_t{rpm});
        EXPECT_LT(p.avg_cpu_temp_c, prev) << "u=" << u << " rpm=" << rpm;
        prev = p.avg_cpu_temp_c;
    }
}

TEST_P(UtilLevels, TotalPowerDecomposesExactly) {
    sim::server_simulator s;
    const double u = GetParam();
    const auto p = sim::measure_steady_point(s, u, 3000_rpm);
    EXPECT_NEAR(p.total_power_w,
                sim::paper_server().base_power_w + p.active_power_w + p.leakage_power_w +
                    p.fan_power_w,
                1e-6);
}

TEST_P(UtilLevels, FanLeakTradeoffBounded) {
    // At every utilization the optimum fan+leakage cost is within the
    // bracket set by its neighbours (convexity along the RPM axis near the
    // optimum).
    sim::server_simulator s;
    const double u = GetParam();
    std::vector<double> costs;
    for (double rpm : {1800.0, 2400.0, 3000.0, 3600.0, 4200.0}) {
        const auto p = sim::measure_steady_point(s, u, util::rpm_t{rpm});
        costs.push_back(p.fan_power_w + p.leakage_power_w);
    }
    const auto min_it = std::min_element(costs.begin(), costs.end());
    // The cost curve rises monotonically moving away from the minimum.
    for (auto it = min_it; it + 1 != costs.end(); ++it) {
        EXPECT_LE(*it, *(it + 1) + 1e-9);
    }
    for (auto it = min_it; it != costs.begin(); --it) {
        EXPECT_LE(*it, *(it - 1) + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperUtilGrid, UtilLevels,
                         ::testing::Values(10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 100.0));

// --- LUT optimality ------------------------------------------------------------------

class LutOptimality : public ::testing::TestWithParam<double> {
protected:
    static void SetUpTestSuite() {
        sim_ = new sim::server_simulator();
        result_ = new core::characterization_result(core::characterize(*sim_));
    }
    static void TearDownTestSuite() {
        delete result_;
        delete sim_;
        sim_ = nullptr;
        result_ = nullptr;
    }
    static sim::server_simulator* sim_;
    static core::characterization_result* result_;
};

sim::server_simulator* LutOptimality::sim_ = nullptr;
core::characterization_result* LutOptimality::result_ = nullptr;

TEST_P(LutOptimality, ChosenRpmMinimizesFanPlusLeakageUnderCap) {
    const double u = GetParam();
    const double chosen = result_->lut.lookup(u).value();
    double chosen_cost = 0.0;
    double best_cost = 1e18;
    for (const auto& p : result_->sweep) {
        if (std::fabs(p.utilization_pct - u) > 1e-9) {
            continue;
        }
        const double cost = p.fan_power_w + result_->fit.leakage_at(p.avg_cpu_temp_c);
        if (std::fabs(p.fan_rpm - chosen) < 1.0) {
            chosen_cost = cost;
        }
        if (p.avg_cpu_temp_c <= 75.0) {
            best_cost = std::min(best_cost, cost);
        }
    }
    EXPECT_NEAR(chosen_cost, best_cost, 1e-9) << "u=" << u;
}

INSTANTIATE_TEST_SUITE_P(PaperUtilGrid, LutOptimality,
                         ::testing::Values(10.0, 25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 100.0));

// --- the controllers under test ------------------------------------------------------

enum class contract_policy { standard, bang, lut, pid, extremum_seeking, zone_lut, failsafe_bang };

const core::fan_lut& paper_lut() {
    static const core::fan_lut lut = [] {
        sim::server_simulator s;
        return core::characterize(s).lut;
    }();
    return lut;
}

std::unique_ptr<core::fan_controller> make_policy(contract_policy p) {
    switch (p) {
        case contract_policy::standard:
            return std::make_unique<core::default_controller>();
        case contract_policy::bang:
            return std::make_unique<core::bang_bang_controller>();
        case contract_policy::lut:
            return std::make_unique<core::lut_controller>(paper_lut());
        case contract_policy::pid:
            return std::make_unique<core::pid_controller>();
        case contract_policy::extremum_seeking:
            return std::make_unique<core::extremum_seeking_controller>();
        case contract_policy::zone_lut:
            return std::make_unique<core::zone_lut_controller>(paper_lut());
        case contract_policy::failsafe_bang:
            return std::make_unique<core::failsafe_controller>(
                std::make_unique<core::bang_bang_controller>());
    }
    return nullptr;
}

// --- controller safety across all paper tests ---------------------------------------

struct safety_case {
    workload::paper_test test;
    contract_policy policy;
    const char* controller;
};

class ControllerSafety : public ::testing::TestWithParam<safety_case> {};

TEST_P(ControllerSafety, TemperatureAndRateContracts) {
    const safety_case c = GetParam();
    sim::server_simulator s;
    const std::unique_ptr<core::fan_controller> controller = make_policy(c.policy);
    const auto profile = workload::make_paper_test(c.test);
    const auto m = core::run_controlled(s, *controller, profile);

    // Safety: never approach the 90 degC critical threshold.
    EXPECT_LT(m.max_temp_c, 85.0);
    // Fans always inside the legal range.
    EXPECT_GE(s.trace().avg_fan_rpm().min(), 1800.0 - 1e-9);
    EXPECT_LE(s.trace().avg_fan_rpm().max(), 4200.0 + 1e-9);

    // LUT rate limit: at most one change per minute outside emergencies.
    if (c.policy == contract_policy::lut) {
        const util::column_view rpm = s.trace().avg_fan_rpm();
        double last_change = -1e9;
        for (std::size_t i = 1; i < rpm.size(); ++i) {
            if (rpm.at(i).v != rpm.at(i - 1).v) {
                EXPECT_GE(rpm.at(i).t - last_change, 59.0)
                    << "LUT changed twice within a minute at t=" << rpm.at(i).t;
                last_change = rpm.at(i).t;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTestsAllControllers, ControllerSafety,
    ::testing::Values(
        safety_case{workload::paper_test::test1_ramp, contract_policy::standard, "Default"},
        safety_case{workload::paper_test::test1_ramp, contract_policy::bang, "Bang"},
        safety_case{workload::paper_test::test1_ramp, contract_policy::lut, "LUT"},
        safety_case{workload::paper_test::test2_periods, contract_policy::bang, "Bang"},
        safety_case{workload::paper_test::test2_periods, contract_policy::lut, "LUT"},
        safety_case{workload::paper_test::test3_frequent, contract_policy::bang, "Bang"},
        safety_case{workload::paper_test::test3_frequent, contract_policy::lut, "LUT"},
        safety_case{workload::paper_test::test4_poisson, contract_policy::bang, "Bang"},
        safety_case{workload::paper_test::test4_poisson, contract_policy::lut, "LUT"}),
    [](const ::testing::TestParamInfo<safety_case>& info) {
        return std::string("T") +
               std::to_string(static_cast<int>(info.param.test)) + info.param.controller;
    });

// --- controller behavioural contracts ------------------------------------------------
//
// After the thermald fan-controller tests: every policy is driven
// straight through decide_zones with synthetic observations, its command
// fed back as the current zone speeds and the die temperature held where
// the test puts it.  No plant is in the loop, so a failure here points at
// the policy, not at the thermal model.

struct contract_case {
    contract_policy policy;
    const char* name;
    double floor_rpm;  ///< Speed the policy winds down to (a fixed-speed policy's only speed).
    double peak_rpm;   ///< Speed it must reach at a hot die.
    /// Settles without commanding changes at an idle, cold server.  The
    /// extremum seeker cannot: perturb-and-observe keeps probing one
    /// step off the floor (the dithering its header names as the case
    /// for the LUT), so for it the contract bounds the dither instead.
    bool holds_at_idle;
};

void PrintTo(const contract_case& c, std::ostream* os) { *os << c.name; }

constexpr double kMinRpm = 1800.0;
constexpr double kMaxRpm = 4200.0;
constexpr double kHotDieC = 95.0;
constexpr double kColdDieC = 30.0;
constexpr int kReachDecisions = 5;  ///< Wind-up/wind-down budget, in decisions.

/// Closed decision loop over synthetic observations of a 3-pair server.
class contract_loop {
public:
    contract_loop(core::fan_controller& c, double start_rpm)
        : c_(c), zones_(3, util::rpm_t{start_rpm}) {}

    /// One decision at the given die temperature, utilization and
    /// telemetry age; the clock advances by the policy's own period.
    void decide(double die_c, double util_pct, double sensor_age_s = 0.0) {
        now_s_ += c_.polling_period().value();
        const auto cmd = c_.decide_zones(inputs(die_c, util_pct, sensor_age_s));
        if (!cmd.has_value()) {
            return;
        }
        ASSERT_EQ(cmd->size(), zones_.size()) << c_.name();
        bool changed = false;
        for (std::size_t z = 0; z < cmd->size(); ++z) {
            const double v = (*cmd)[z].value();
            slowest_ = std::min(slowest_, v);
            fastest_ = std::max(fastest_, v);
            changed = changed || v != zones_[z].value();
        }
        changes_ += changed ? 1 : 0;
        zones_ = *cmd;
    }

    [[nodiscard]] bool all_zones_at(double rpm) const {
        return std::all_of(zones_.begin(), zones_.end(),
                           [rpm](util::rpm_t z) { return z.value() == rpm; });
    }
    [[nodiscard]] bool all_zones_at_least(double rpm) const {
        return std::all_of(zones_.begin(), zones_.end(),
                           [rpm](util::rpm_t z) { return z.value() >= rpm; });
    }
    [[nodiscard]] int changes() const { return changes_; }
    /// Extremes over every command issued so far (no command: +inf/-inf).
    [[nodiscard]] double slowest_command() const { return slowest_; }
    [[nodiscard]] double fastest_command() const { return fastest_; }
    void reset_counters() {
        changes_ = 0;
        slowest_ = std::numeric_limits<double>::infinity();
        fastest_ = -std::numeric_limits<double>::infinity();
    }

private:
    [[nodiscard]] core::controller_inputs inputs(double die_c, double util_pct,
                                                 double sensor_age_s) const {
        core::controller_inputs in;
        in.now = util::seconds_t{now_s_};
        in.utilization_pct = util_pct;
        in.max_cpu_temp = util::celsius_t{die_c};
        double sum = 0.0;
        double fan_w = 0.0;
        for (const util::rpm_t z : zones_) {
            sum += z.value();
            fan_w += 29.0 * std::pow(z.value() / kMaxRpm, 3.0);  // cubic fan law per pair
        }
        in.current_rpm = util::rpm_t{sum / static_cast<double>(zones_.size())};
        in.system_power = util::watts_t{250.0 + 1.5 * util_pct + fan_w};
        in.sensor_age_s = sensor_age_s;
        in.socket_util_pct = {util_pct, util_pct};
        in.socket_temp_c = {die_c, die_c};
        in.zone_rpm = zones_;
        in.cpu_sensor_c = {die_c, die_c, die_c, die_c};
        return in;
    }

    core::fan_controller& c_;
    std::vector<util::rpm_t> zones_;
    double now_s_ = 0.0;
    int changes_ = 0;
    double slowest_ = std::numeric_limits<double>::infinity();
    double fastest_ = -std::numeric_limits<double>::infinity();
};

class ControllerContracts : public ::testing::TestWithParam<contract_case> {};

TEST_P(ControllerContracts, WindUpReachesPeakAtHotDie) {
    const contract_case& k = GetParam();
    const auto c = make_policy(k.policy);
    contract_loop loop(*c, kMinRpm);
    for (int i = 0; i < kReachDecisions; ++i) {
        loop.decide(kHotDieC, 100.0);
    }
    EXPECT_TRUE(loop.all_zones_at_least(k.peak_rpm))
        << c->name() << " did not reach " << k.peak_rpm << " rpm within " << kReachDecisions
        << " decisions at a hot die";
    // A hot die keeps it there.
    for (int i = 0; i < 50; ++i) {
        loop.decide(kHotDieC, 100.0);
    }
    EXPECT_TRUE(loop.all_zones_at_least(k.peak_rpm)) << c->name();
}

TEST_P(ControllerContracts, WindDownReachesFloorAtColdDie) {
    const contract_case& k = GetParam();
    const auto c = make_policy(k.policy);
    contract_loop loop(*c, kMaxRpm);
    for (int i = 0; i < kReachDecisions; ++i) {
        loop.decide(kColdDieC, 0.0);
    }
    EXPECT_TRUE(loop.all_zones_at(k.floor_rpm))
        << c->name() << " did not reach " << k.floor_rpm << " rpm within " << kReachDecisions
        << " decisions at a cold die";
    EXPECT_GE(loop.slowest_command(), k.floor_rpm) << c->name() << " undershot its floor";
}

TEST_P(ControllerContracts, NoFanWearAtIdle) {
    const contract_case& k = GetParam();
    const auto c = make_policy(k.policy);
    contract_loop loop(*c, kMaxRpm);
    for (int i = 0; i < 20; ++i) {
        loop.decide(kColdDieC, 0.0);
    }
    loop.reset_counters();
    for (int i = 0; i < 100; ++i) {
        loop.decide(kColdDieC, 0.0);
    }
    if (k.holds_at_idle) {
        EXPECT_EQ(loop.changes(), 0) << c->name() << " changed speed at an idle, cold server";
    } else {
        // Probing stays one 600 rpm step off the floor, never further.
        EXPECT_GE(loop.slowest_command(), k.floor_rpm) << c->name();
        EXPECT_LE(loop.fastest_command(), k.floor_rpm + 600.0) << c->name();
    }
}

TEST_P(ControllerContracts, CommandsStayInLegalRange) {
    const contract_case& k = GetParam();
    const auto c = make_policy(k.policy);
    contract_loop loop(*c, kMinRpm);
    util::pcg32 rng(0xc0ffee, 3);
    for (int i = 0; i < 400; ++i) {
        // Die 20-110 degC, any load, and every eighth decision on stale
        // telemetry so the failsafe override is exercised too.
        const double die_c = rng.uniform(20.0, 110.0);
        const double util_pct = rng.uniform(0.0, 100.0);
        loop.decide(die_c, util_pct, i % 8 == 7 ? 60.0 : 0.0);
    }
    ASSERT_GT(loop.changes(), 0) << c->name() << " never commanded anything";
    EXPECT_GE(loop.slowest_command(), kMinRpm) << c->name();
    EXPECT_LE(loop.fastest_command(), kMaxRpm) << c->name();
}

/// Whether two doubles have the same bit pattern.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST_P(ControllerContracts, RuntimeKeepsFansLegalAndLaneMatchesPackedBatch) {
    // The closed loop on the real plant: a short idle-then-hot profile
    // through run_controlled, then the same policy as the middle lane of
    // a 3-lane run_controlled_batch whose neighbours run other policies
    // over shorter and longer profiles.  Packing must not move a bit.
    const contract_case& k = GetParam();
    workload::utilization_profile profile("idle-then-hot");
    profile.idle(300_s);
    profile.constant(100.0, 600_s);

    const auto c = make_policy(k.policy);
    sim::server_simulator s;
    const sim::run_metrics alone = core::run_controlled(s, *c, profile);
    const sim::simulation_trace trace{s.trace()};
    ASSERT_GT(trace.size(), 0U);
    const util::column_view rpm = trace.avg_fan_rpm();
    for (std::size_t i = 0; i < rpm.size(); ++i) {
        ASSERT_GE(rpm.v(i), kMinRpm) << c->name() << " at t=" << rpm.t(i);
        ASSERT_LE(rpm.v(i), kMaxRpm) << c->name() << " at t=" << rpm.t(i);
    }

    workload::utilization_profile shorter("shorter");
    shorter.constant(60.0, 450_s);
    workload::utilization_profile longer("longer");
    longer.constant(30.0, 1200_s);
    const auto left = make_policy(contract_policy::bang);
    const auto middle = make_policy(k.policy);
    const auto right = make_policy(contract_policy::lut);
    sim::server_batch batch(sim::paper_server(), 3);
    const std::vector<sim::run_metrics> packed = core::run_controlled_batch(
        batch, {left.get(), middle.get(), right.get()}, {shorter, profile, longer});
    const sim::run_metrics& m = packed[1];
    EXPECT_TRUE(same_bits(m.energy_kwh, alone.energy_kwh)) << c->name();
    EXPECT_TRUE(same_bits(m.peak_power_w, alone.peak_power_w)) << c->name();
    EXPECT_TRUE(same_bits(m.max_temp_c, alone.max_temp_c)) << c->name();
    EXPECT_EQ(m.fan_changes, alone.fan_changes) << c->name();
    EXPECT_TRUE(same_bits(m.avg_rpm, alone.avg_rpm)) << c->name();
    EXPECT_TRUE(same_bits(m.avg_cpu_temp_c, alone.avg_cpu_temp_c)) << c->name();
    EXPECT_TRUE(same_bits(m.duration_s, alone.duration_s)) << c->name();
    const sim::trace_view lane = batch.trace(1);
    ASSERT_EQ(lane.size(), trace.size()) << c->name();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_TRUE(same_bits(lane.target_util().t(i), trace.target_util().t(i))) << "row " << i;
    }
    for (std::size_t ch = 0; ch < sim::trace_channel_count; ++ch) {
        const auto id = static_cast<sim::trace_channel>(ch);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            ASSERT_TRUE(same_bits(lane.channel(id).v(i), trace.channel(id).v(i)))
                << c->name() << " channel " << sim::trace_channel_name(id) << " row " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllControllers, ControllerContracts,
    ::testing::Values(
        contract_case{contract_policy::standard, "Default", 3300.0, 3300.0, true},
        contract_case{contract_policy::bang, "Bang", kMinRpm, kMaxRpm, true},
        contract_case{contract_policy::lut, "LUT", kMinRpm, kMaxRpm, true},
        contract_case{contract_policy::pid, "PID", kMinRpm, kMaxRpm, true},
        contract_case{contract_policy::extremum_seeking, "ExtremumSeek", kMinRpm, kMaxRpm, false},
        contract_case{contract_policy::zone_lut, "ZoneLUT", kMinRpm, kMaxRpm, true},
        contract_case{contract_policy::failsafe_bang, "FailsafeBang", kMinRpm, kMaxRpm, true}),
    [](const ::testing::TestParamInfo<contract_case>& info) { return info.param.name; });

// --- solver agreement ------------------------------------------------------------------

class SolverSteps : public ::testing::TestWithParam<double> {};

TEST_P(SolverSteps, SchemesAgreeOnServerTransient) {
    const double dt = GetParam();
    const auto run = [&](thermal::integration_scheme scheme) {
        thermal::server_thermal_model m(thermal::server_thermal_config{}, scheme);
        for (std::size_t s = 0; s < 2; ++s) {
            m.set_cpu_heat(s, util::watts_t{115.0});
        }
        m.set_dimm_heat(util::watts_t{145.0});
        for (double t = 0.0; t < 600.0; t += dt) {
            m.step(util::seconds_t{dt});
        }
        return m.average_cpu_temp().value();
    };
    const double explicit_t = run(thermal::integration_scheme::explicit_euler);
    const double rk4_t = run(thermal::integration_scheme::rk4);
    const double implicit_t = run(thermal::integration_scheme::implicit_euler);
    EXPECT_NEAR(explicit_t, rk4_t, 0.5) << "dt=" << dt;
    EXPECT_NEAR(implicit_t, rk4_t, 1.0) << "dt=" << dt;
}

INSTANTIATE_TEST_SUITE_P(StepSizes, SolverSteps, ::testing::Values(0.5, 1.0, 2.0, 5.0));

// --- random RC networks: steady-state conservation ------------------------------------------

class RandomNetworks : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomNetworks, SteadyStateConservesHeat) {
    // Build a random connected network with random ambient couplings and
    // verify that, at the solved steady state, injected power equals the
    // power leaving through the ambient edges (global heat balance).
    util::pcg32 rng(GetParam());
    thermal::rc_network net(util::celsius_t{20.0 + rng.uniform(0.0, 15.0)});
    const std::size_t n = 3 + rng.next_u32() % 8;
    std::vector<thermal::node_id> nodes;
    for (std::size_t i = 0; i < n; ++i) {
        nodes.push_back(net.add_node("n" + std::to_string(i), rng.uniform(5.0, 500.0)));
    }
    // Spanning chain keeps it connected; extra random edges add loops.
    for (std::size_t i = 1; i < n; ++i) {
        net.add_edge(nodes[i - 1], nodes[i], rng.uniform(0.5, 20.0));
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = rng.next_u32() % n;
        if (j != i) {
            net.add_edge(nodes[i], nodes[j], rng.uniform(0.1, 5.0));
        }
    }
    // At least one ambient path plus random extras.
    std::vector<double> ambient_g(n, 0.0);
    ambient_g[0] = rng.uniform(0.5, 5.0);
    net.add_ambient_edge(nodes[0], ambient_g[0]);
    for (std::size_t i = 1; i < n; ++i) {
        if (rng.next_double() < 0.5) {
            ambient_g[i] = rng.uniform(0.1, 3.0);
            net.add_ambient_edge(nodes[i], ambient_g[i]);
        }
    }
    double injected = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double p = rng.uniform(0.0, 150.0);
        net.set_power(nodes[i], util::watts_t{p});
        injected += p;
    }

    const std::vector<double> temps = thermal::steady_state(net);
    double out_through_ambient = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        out_through_ambient += ambient_g[i] * (temps[i] - net.ambient().value());
    }
    EXPECT_NEAR(out_through_ambient, injected, 1e-6 * std::max(1.0, injected));

    // And the transient solution relaxes to the same state.
    thermal::transient_solver solver(thermal::integration_scheme::rk4);
    solver.advance(net, util::seconds_t{50000.0}, util::seconds_t{5.0});
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(net.temperatures()[i], temps[i], 0.05) << "node " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworks,
                         ::testing::Values(1U, 2U, 3U, 5U, 8U, 13U, 21U, 34U, 55U, 89U));

// --- conservation and determinism ----------------------------------------------------------

class PaperTestIds : public ::testing::TestWithParam<workload::paper_test> {};

TEST_P(PaperTestIds, EnergyDecomposesAcrossTrace) {
    sim::server_simulator s;
    core::default_controller dflt;
    const auto profile = workload::make_paper_test(GetParam());
    (void)core::run_controlled(s, dflt, profile);
    const auto& tr = s.trace();
    const double base_j = sim::paper_server().base_power_w * tr.total_power().duration();
    const double sum = base_j + tr.active_power().integrate() + tr.leakage_power().integrate() +
                       tr.fan_power().integrate();
    EXPECT_NEAR(tr.total_power().integrate(), sum, 1.0);
}

TEST_P(PaperTestIds, RunsAreDeterministic) {
    const auto profile = workload::make_paper_test(GetParam());
    sim::server_simulator s1;
    sim::server_simulator s2;
    core::bang_bang_controller c1;
    core::bang_bang_controller c2;
    const auto m1 = core::run_controlled(s1, c1, profile);
    const auto m2 = core::run_controlled(s2, c2, profile);
    EXPECT_DOUBLE_EQ(m1.energy_kwh, m2.energy_kwh);
    EXPECT_DOUBLE_EQ(m1.max_temp_c, m2.max_temp_c);
    EXPECT_EQ(m1.fan_changes, m2.fan_changes);
}

INSTANTIATE_TEST_SUITE_P(AllPaperTests, PaperTestIds,
                         ::testing::Values(workload::paper_test::test1_ramp,
                                           workload::paper_test::test2_periods,
                                           workload::paper_test::test3_frequent,
                                           workload::paper_test::test4_poisson),
                         [](const ::testing::TestParamInfo<workload::paper_test>& info) {
                             return std::string("Test") +
                                    std::to_string(static_cast<int>(info.param));
                         });

}  // namespace
