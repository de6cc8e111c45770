// Tests of the calibrated server thermal model against the paper's
// Fig. 1 anchors: steady temperatures per fan speed and fan-speed-
// dependent time constants.
#include <gtest/gtest.h>

#include <cmath>

#include "thermal/sensors.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;
using thermal::server_thermal_model;

/// Applies the heat corresponding to a given utilization at the paper's
/// calibration (45 W idle + 61.25 W active per socket at 100 %, DIMMs
/// 40 W idle + 105 W active, leakage share from the paper model).
void apply_utilization_heat(server_thermal_model& m, double util_pct) {
    for (int iter = 0; iter < 10; ++iter) {
        for (std::size_t s = 0; s < server_thermal_model::socket_count(); ++s) {
            const double leak_share =
                0.5 * (8.0 + 0.3231 * std::exp(0.04749 * m.cpu_die_temp(s).value()));
            m.set_cpu_heat(s, util::watts_t{45.0 + 61.25 * util_pct / 100.0 + leak_share});
        }
        m.set_dimm_heat(util::watts_t{40.0 + 105.0 * util_pct / 100.0});
        m.settle_to_steady_state();
    }
}

std::vector<util::cfm_t> airflow_at(double rpm) {
    // Pair airflow = 51 CFM at 4200 RPM, linear in RPM.
    const double per_pair = 51.0 * rpm / 4200.0;
    return {util::cfm_t{per_pair}, util::cfm_t{per_pair}, util::cfm_t{per_pair}};
}

TEST(ServerThermal, SteadyAnchorsAt100PctLoad) {
    // Fig. 1(a): ~85 degC at 1800 RPM down to ~55 degC at 4200 RPM.
    const struct {
        double rpm;
        double expected_c;
        double tol;
    } anchors[] = {
        {1800.0, 85.4, 1.5}, {2400.0, 72.0, 1.5}, {3000.0, 65.0, 1.5},
        {3600.0, 60.5, 1.5}, {4200.0, 57.3, 1.5},
    };
    for (const auto& a : anchors) {
        server_thermal_model m;
        m.set_zone_airflow(airflow_at(a.rpm));
        apply_utilization_heat(m, 100.0);
        EXPECT_NEAR(m.average_cpu_temp().value(), a.expected_c, a.tol) << "rpm " << a.rpm;
    }
}

TEST(ServerThermal, SteadyTempMonotonicallyDecreasesWithRpm) {
    double prev = 1e9;
    for (double rpm : {1800.0, 2400.0, 3000.0, 3600.0, 4200.0}) {
        server_thermal_model m;
        m.set_zone_airflow(airflow_at(rpm));
        apply_utilization_heat(m, 100.0);
        EXPECT_LT(m.average_cpu_temp().value(), prev);
        prev = m.average_cpu_temp().value();
    }
}

TEST(ServerThermal, SteadyTempMonotonicallyIncreasesWithLoad) {
    double prev = 0.0;
    for (double util : {0.0, 25.0, 50.0, 75.0, 100.0}) {
        server_thermal_model m;
        m.set_zone_airflow(airflow_at(1800.0));
        apply_utilization_heat(m, util);
        EXPECT_GT(m.average_cpu_temp().value(), prev);
        prev = m.average_cpu_temp().value();
    }
}

/// Time to close 95 % of the gap to steady state after a cold start, with
/// heats frozen at the full-utilization values.
double settle_time_s(double rpm) {
    const auto configure = [&](server_thermal_model& m) {
        m.set_zone_airflow(airflow_at(rpm));
        for (std::size_t s = 0; s < server_thermal_model::socket_count(); ++s) {
            m.set_cpu_heat(s, util::watts_t{45.0 + 61.25 + 10.0});
        }
        m.set_dimm_heat(util::watts_t{145.0});
    };
    server_thermal_model steady;
    configure(steady);
    steady.settle_to_steady_state();
    const double end = steady.average_cpu_temp().value();

    server_thermal_model probe;
    configure(probe);
    probe.reset();
    const double start = probe.average_cpu_temp().value();
    for (double t = 0.0; t < 3600.0; t += 5.0) {
        probe.step(util::seconds_t{5.0});
        if (probe.average_cpu_temp().value() >= start + 0.95 * (end - start)) {
            return t + 5.0;
        }
    }
    return 3600.0;
}

TEST(ServerThermal, TimeConstantDependsOnFanSpeed) {
    // Fig. 1(a): steady state after ~15 min at 1800 RPM vs ~5 min at 4200.
    const double slow = settle_time_s(1800.0);
    const double fast = settle_time_s(4200.0);
    EXPECT_GT(slow, 1.8 * fast);
    EXPECT_GT(slow, 8.0 * 60.0);   // minutes-scale at low RPM
    EXPECT_LT(slow, 20.0 * 60.0);
    EXPECT_LT(fast, 8.0 * 60.0);   // settles within ~5-8 min at high RPM
}

TEST(ServerThermal, FastTransientOnLoadStep) {
    // Fig. 1(b): a step from idle to full load raises die temperature by
    // 5-8 degC in under 30 seconds (the junction fast path).
    server_thermal_model m;
    m.set_zone_airflow(airflow_at(1800.0));
    apply_utilization_heat(m, 0.0);
    const double before = m.average_cpu_temp().value();
    for (std::size_t s = 0; s < server_thermal_model::socket_count(); ++s) {
        const double leak_share =
            0.5 * (8.0 + 0.3231 * std::exp(0.04749 * m.cpu_die_temp(s).value()));
        m.set_cpu_heat(s, util::watts_t{45.0 + 61.25 + leak_share});
    }
    m.set_dimm_heat(util::watts_t{145.0});
    m.step(util::seconds_t{30.0});
    const double rise = m.average_cpu_temp().value() - before;
    EXPECT_GE(rise, 5.0);
    EXPECT_LE(rise, 10.0);
}

TEST(ServerThermal, DimmPreheatRaisesCpuInletTemp) {
    server_thermal_model m;
    m.set_zone_airflow(airflow_at(1800.0));
    apply_utilization_heat(m, 100.0);
    EXPECT_GT(m.cpu_inlet_temp().value(), m.ambient().value() + 1.0);
    EXPECT_LT(m.cpu_inlet_temp().value(), m.ambient().value() + 10.0);
}

TEST(ServerThermal, ExhaustHotterThanInlet) {
    server_thermal_model m;
    m.set_zone_airflow(airflow_at(2400.0));
    apply_utilization_heat(m, 100.0);
    EXPECT_GT(m.exhaust_temp().value(), m.cpu_inlet_temp().value());
}

TEST(ServerThermal, AmbientShiftShiftsSteadyState) {
    server_thermal_model a;
    a.set_zone_airflow(airflow_at(3000.0));
    apply_utilization_heat(a, 50.0);
    const double at24 = a.average_cpu_temp().value();
    a.set_ambient(util::celsius_t{34.0});
    apply_utilization_heat(a, 50.0);
    // Raising ambient 10 degC raises steady CPU temp by ~10 degC (plus a
    // little extra leakage feedback).
    EXPECT_NEAR(a.average_cpu_temp().value() - at24, 10.0, 2.0);
}

TEST(ServerThermal, AsymmetricZoneAirflowSkewsSockets) {
    server_thermal_model m;
    m.set_zone_airflow({util::cfm_t{40.0}, util::cfm_t{10.0}, util::cfm_t{25.0}});
    for (std::size_t s = 0; s < server_thermal_model::socket_count(); ++s) {
        m.set_cpu_heat(s, util::watts_t{110.0});
    }
    m.set_dimm_heat(util::watts_t{100.0});
    m.settle_to_steady_state();
    // Socket 0 sits in the high-flow zone: it must run cooler.
    EXPECT_LT(m.cpu_die_temp(0).value(), m.cpu_die_temp(1).value() - 3.0);
}

TEST(ServerThermal, ZeroTotalAirflowRejected) {
    server_thermal_model m;
    EXPECT_THROW(m.set_zone_airflow({util::cfm_t{0.0}, util::cfm_t{0.0}, util::cfm_t{0.0}}),
                 util::precondition_error);
}

TEST(ServerThermal, ZoneCountMismatchThrows) {
    server_thermal_model m;
    EXPECT_THROW(m.set_zone_airflow({util::cfm_t{30.0}}), util::precondition_error);
}

TEST(ServerThermal, NegativeHeatThrows) {
    server_thermal_model m;
    EXPECT_THROW(m.set_cpu_heat(0, util::watts_t{-5.0}), util::precondition_error);
    EXPECT_THROW(m.set_dimm_heat(util::watts_t{-5.0}), util::precondition_error);
    EXPECT_THROW(m.set_cpu_heat(7, util::watts_t{5.0}), util::precondition_error);
}

TEST(ServerThermal, ResetReturnsToAmbient) {
    server_thermal_model m;
    apply_utilization_heat(m, 100.0);
    EXPECT_GT(m.average_cpu_temp().value(), 50.0);
    m.reset();
    EXPECT_NEAR(m.average_cpu_temp().value(), m.ambient().value(), 1e-9);
}

// --- sensors -------------------------------------------------------------

TEST(Sensors, NoiselessSensorReportsBiasedTruth) {
    util::pcg32 rng(1);
    thermal::temperature_sensor s("t", util::celsius_t{1.5}, 0.0, 0.0);
    EXPECT_DOUBLE_EQ(s.read(60_degC, rng).value(), 61.5);
}

TEST(Sensors, QuantizationSnapsToGrid) {
    util::pcg32 rng(2);
    thermal::temperature_sensor s("t", util::celsius_t{0.0}, 0.0, 0.25);
    EXPECT_DOUBLE_EQ(s.read(util::celsius_t{60.13}, rng).value(), 60.25);
}

TEST(Sensors, NoiseHasExpectedSpread) {
    util::pcg32 rng(3);
    thermal::temperature_sensor s("t", util::celsius_t{0.0}, 0.5, 0.0);
    double acc = 0.0;
    double acc2 = 0.0;
    constexpr int n = 5000;
    for (int i = 0; i < n; ++i) {
        const double v = s.read(60_degC, rng).value();
        acc += v;
        acc2 += v * v;
    }
    const double mean = acc / n;
    const double var = acc2 / n - mean * mean;
    EXPECT_NEAR(mean, 60.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 0.5, 0.05);
}

TEST(Sensors, ServerSuiteHasPaperComplement) {
    const auto suite = thermal::make_server_sensors(32);
    EXPECT_EQ(suite.cpu.size(), 4U);    // 2 per die
    EXPECT_EQ(suite.dimm.size(), 32U);  // 1 per DIMM
}

TEST(Sensors, DimmGradientSpreadsReadings) {
    util::pcg32 rng(5);
    const auto suite = thermal::make_server_sensors(32, /*noise=*/0.0, /*quantum=*/0.0);
    const double first = suite.dimm.front().read(45_degC, rng).value();
    const double last = suite.dimm.back().read(45_degC, rng).value();
    EXPECT_NEAR(last - first, 3.0, 1e-9);  // positional gradient
}

}  // namespace
