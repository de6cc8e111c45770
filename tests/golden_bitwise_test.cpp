// Bit-exact regression guard for the single-server plant.
//
// GoldenTrace pins the paper figures inside tolerance bands; this suite
// pins the same kinds of runs bit for bit.  Each case folds the exact
// IEEE-754 bit patterns of what it checks into a 64-bit FNV-1a hash:
// every recorded trace row (time stamp plus all 16 channels), the
// Table-I metrics, and the characterized LUT.  The expected hashes were
// recorded with gcc in a Release build; any change to the order or the
// operands of a floating-point operation anywhere on these paths moves
// at least one of them.
//
// Covered: the 12 Table-I cells (4 paper tests x Default/Bang/LUT)
// through run_controlled, each of the 16 channels of the Fig. 1(a)
// 1800 rpm protocol trace, a faulted and monitored FailsafeBang run, a
// mid-run snapshot_state/restore_state continuation, the full telemetry
// history (time axis plus all 8 columns) of the Fig. 1(a) 1800 rpm run
// and of the faulted run, and the characterize() LUT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>

#include "core/bang_bang_controller.hpp"
#include "core/characterization.hpp"
#include "core/controller_runtime.hpp"
#include "core/default_controller.hpp"
#include "core/failsafe_controller.hpp"
#include "core/lut_controller.hpp"
#include "sim/experiment.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/server_simulator.hpp"
#include "workload/paper_tests.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

/// 64-bit FNV-1a over the bit patterns of the values fed to it.
class fnv1a {
public:
    void add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(std::uint64_t bits) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bits >> (8 * i)) & 0xffU;
            h_ *= 0x100000001b3ULL;
        }
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/// Hash of one channel: its time stamps and values, row by row.
std::uint64_t channel_hash(const util::column_view& c) {
    fnv1a h;
    h.add(static_cast<std::uint64_t>(c.size()));
    for (std::size_t i = 0; i < c.size(); ++i) {
        h.add(c.t(i));
        h.add(c.v(i));
    }
    return h.value();
}

/// Hash of a whole trace: every row's time stamp and its 16 channels.
std::uint64_t trace_hash(const sim::trace_view& tr) {
    fnv1a h;
    h.add(static_cast<std::uint64_t>(tr.size()));
    for (std::size_t i = 0; i < tr.size(); ++i) {
        h.add(tr.channel(sim::trace_channel::target_util).t(i));
        for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
            h.add(tr.channel(static_cast<sim::trace_channel>(c)).v(i));
        }
    }
    return h.value();
}

std::uint64_t metrics_hash(const sim::run_metrics& m) {
    fnv1a h;
    h.add(m.energy_kwh);
    h.add(m.peak_power_w);
    h.add(m.max_temp_c);
    h.add(static_cast<std::uint64_t>(m.fan_changes));
    h.add(m.avg_rpm);
    h.add(m.avg_cpu_temp_c);
    h.add(m.duration_s);
    return h.value();
}

const core::fan_lut& paper_lut() {
    static const core::fan_lut lut = [] {
        sim::server_simulator rig;
        return core::characterize(rig).lut;
    }();
    return lut;
}

// --- Table I through run_controlled -------------------------------------------

struct table1_golden {
    const char* name;
    int test;          ///< 1..4.
    int controller;    ///< 0 Default, 1 Bang, 2 LUT.
    std::uint64_t metrics;
    std::uint64_t trace;
};

void PrintTo(const table1_golden& g, std::ostream* os) { *os << g.name; }

class GoldenBitwiseTable1 : public ::testing::TestWithParam<table1_golden> {};

TEST_P(GoldenBitwiseTable1, MetricsAndTraceBitExact) {
    const table1_golden& g = GetParam();
    std::unique_ptr<core::fan_controller> c;
    switch (g.controller) {
        case 0: c = std::make_unique<core::default_controller>(); break;
        case 1: c = std::make_unique<core::bang_bang_controller>(); break;
        default: c = std::make_unique<core::lut_controller>(paper_lut()); break;
    }
    sim::server_simulator server;
    const auto profile = workload::make_paper_test(static_cast<workload::paper_test>(g.test));
    const sim::run_metrics m = core::run_controlled(server, *c, profile);
    const sim::trace_view tr = server.trace();
    EXPECT_EQ(hex(metrics_hash(m)), hex(g.metrics)) << g.name << " metrics";
    EXPECT_EQ(hex(trace_hash(tr)), hex(g.trace)) << g.name << " trace";
}

INSTANTIATE_TEST_SUITE_P(
    GoldenBitwise, GoldenBitwiseTable1,
    ::testing::Values(
        table1_golden{"Test1_Default", 1, 0, 0xbf55bfcb0f713cf0ULL, 0x9e6abc5eb4394fb4ULL},
        table1_golden{"Test1_Bang", 1, 1, 0x90539450c97c1af6ULL, 0xa244ce7b983a14ceULL},
        table1_golden{"Test1_LUT", 1, 2, 0x0ecc90be4c9a350aULL, 0xc46378db1fe88df5ULL},
        table1_golden{"Test2_Default", 2, 0, 0x70c7f104ef593393ULL, 0x47f478bfd134fa23ULL},
        table1_golden{"Test2_Bang", 2, 1, 0x5fdf8a89cb27f49bULL, 0x0e84bc7ec3ef3c6dULL},
        table1_golden{"Test2_LUT", 2, 2, 0xd17c5a72b9889be9ULL, 0x723dbe43db918afcULL},
        table1_golden{"Test3_Default", 3, 0, 0x1d087166503c43c2ULL, 0x16e8765eede0bf54ULL},
        table1_golden{"Test3_Bang", 3, 1, 0x7070d17cb349dae4ULL, 0x6363afd8316ee4fbULL},
        table1_golden{"Test3_LUT", 3, 2, 0x8bfd6f947ee777b3ULL, 0xcee20c9d07fac6fdULL},
        table1_golden{"Test4_Default", 4, 0, 0x2b8ea32fdd4099bfULL, 0xd5a591d7269b6eedULL},
        table1_golden{"Test4_Bang", 4, 1, 0xeabf24d62deeaabfULL, 0xe49670051e86341dULL},
        table1_golden{"Test4_LUT", 4, 2, 0x47a4b16c31dab9a0ULL, 0x2adc73fd11944fc7ULL}),
    [](const ::testing::TestParamInfo<table1_golden>& info) { return info.param.name; });

// --- Fig. 1(a), 1800 rpm: every channel ------------------------------------------

TEST(GoldenBitwise, Fig1a1800RpmEveryChannel) {
    constexpr std::uint64_t expected[sim::trace_channel_count] = {
        0xbe483c320593e77fULL, 0xbe483c320593e77fULL, 0xdd75516161ba91d3ULL, 0xdd75516161ba91d3ULL,
        0xdd75516161ba91d3ULL, 0x01dca704308446c7ULL, 0x045977aca8ab8743ULL, 0x5043b32626dff4bfULL,
        0x40bd1d0d86a84d0bULL, 0x668381f8373fb79fULL, 0xada49e58fa34bf0fULL, 0x1c94182042e8a77fULL,
        0xa7394554c6ec8773ULL, 0x285a15b51689734fULL, 0x285a15b51689734fULL, 0x285a15b51689734fULL,
    };
    sim::server_simulator s;
    sim::run_protocol_experiment(s, 1800_rpm, 100.0);
    const sim::trace_view tr = s.trace();
    ASSERT_EQ(tr.size(), 2700U);
    for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
        const auto ch = static_cast<sim::trace_channel>(c);
        EXPECT_EQ(hex(channel_hash(tr.channel(ch))), hex(expected[c]))
            << "channel " << sim::trace_channel_name(ch);
    }
}

// --- faulted, monitored failsafe run -----------------------------------------------

/// Fan, sensor and telemetry faults in one campaign.  `fan_fault` is
/// fan_failure for the closed-loop run; the open-loop continuation uses
/// a PWM stuck at 3000 rpm, since a dead pair at a fixed speed drives
/// the die into leakage runaway.
sim::fault_schedule mixed_campaign(sim::fault_kind fan_fault = sim::fault_kind::fan_failure) {
    std::vector<sim::fault_event> ev;
    ev.push_back({600.0, fan_fault, 1, 3000.0, 0.0});
    ev.push_back({900.0, sim::fault_kind::sensor_bias, 0, -12.0, 0.0});
    ev.push_back({1200.0, sim::fault_kind::telemetry_loss, 0, 0.0, 90.0});
    ev.push_back({1500.0, sim::fault_kind::fan_recover, 1, 0.0, 0.0});
    ev.push_back({1800.0, sim::fault_kind::sensor_stuck, 2, std::nan(""), 0.0});
    ev.push_back({2400.0, sim::fault_kind::sensor_recover, 0, 0.0, 0.0});
    ev.push_back({2700.0, sim::fault_kind::sensor_recover, 2, 0.0, 0.0});
    return sim::fault_schedule(std::move(ev));
}

TEST(GoldenBitwise, FaultedMonitoredFailsafeBang) {
    sim::server_config cfg = sim::paper_server();
    cfg.monitor.enabled = true;
    sim::server_simulator s(cfg);
    s.bind_fault_schedule(mixed_campaign());
    core::failsafe_controller c(std::make_unique<core::bang_bang_controller>());
    const auto profile = workload::make_paper_test(workload::paper_test::test3_frequent);
    const sim::run_metrics m = core::run_controlled(s, c, profile);
    const sim::trace_view tr = s.trace();
    EXPECT_EQ(hex(metrics_hash(m)), hex(0xdc510adc49ff487eULL)) << "metrics";
    EXPECT_EQ(hex(trace_hash(tr)), hex(0x90be55953460305fULL)) << "trace";
}

// --- snapshot / restore continuation ---------------------------------------------

TEST(GoldenBitwise, SnapshotRestoreContinuation) {
    sim::server_config cfg = sim::paper_server();
    cfg.monitor.enabled = true;
    const auto profile = workload::make_paper_test(workload::paper_test::test2_periods);

    sim::server_simulator a(cfg);
    a.bind_fault_schedule(mixed_campaign(sim::fault_kind::fan_stuck_pwm));
    a.bind_workload(profile);
    a.force_cold_start();
    a.set_all_fans(2400_rpm);
    a.advance(util::seconds_t{1000.0});
    const sim::server_state mid = a.snapshot_state();

    sim::server_simulator b(cfg);
    b.bind_fault_schedule(mixed_campaign(sim::fault_kind::fan_stuck_pwm));
    b.bind_workload(profile);
    b.restore_state(mid);
    b.set_fan_speed(0, 3000_rpm);
    b.advance(util::seconds_t{1500.0});
    const sim::trace_view tr = b.trace();
    ASSERT_EQ(tr.size(), 1500U);
    EXPECT_EQ(hex(trace_hash(tr)), hex(0x3a30cb54588c4b90ULL)) << "continuation trace";
}

// --- telemetry history: time axis plus every column ------------------------------

/// Hash of a telemetry history frame: its shape, then every row's time
/// stamp and its values in column order.
std::uint64_t history_hash(const util::frame& f) {
    fnv1a h;
    h.add(static_cast<std::uint64_t>(f.size()));
    h.add(static_cast<std::uint64_t>(f.channel_count()));
    for (std::size_t i = 0; i < f.size(); ++i) {
        h.add(f.time()[i]);
        for (std::size_t c = 0; c < f.channel_count(); ++c) {
            h.add(f.values(c)[i]);
        }
    }
    return h.value();
}

void expect_history_columns(const util::frame& f) {
    static const char* const names[] = {"cpu0_temp_a",  "cpu0_temp_b",  "cpu1_temp_a",
                                        "cpu1_temp_b",  "cpu0_current", "cpu1_current",
                                        "system_power", "fan_power"};
    ASSERT_EQ(f.channel_count(), 8U);
    for (std::size_t c = 0; c < 8; ++c) {
        EXPECT_EQ(f.channel_name(c), names[c]) << "column " << c;
    }
}

TEST(GoldenBitwise, TelemetryHistoryEveryColumn) {
    sim::server_simulator fig1a;
    sim::run_protocol_experiment(fig1a, 1800_rpm, 100.0);
    const util::frame& h1 = fig1a.telemetry().history();
    expect_history_columns(h1);
    EXPECT_EQ(h1.size(), 271U);  // cold-start poll plus one per 10 s
    EXPECT_EQ(hex(history_hash(h1)), hex(0xed2412bd49e0eec6ULL)) << "Fig. 1(a) 1800 rpm history";

    // The mixed campaign's telemetry_loss window (1200 s + 90 s) drops
    // polls, so this history has gaps in its time axis.
    sim::server_config cfg = sim::paper_server();
    cfg.monitor.enabled = true;
    sim::server_simulator faulted(cfg);
    faulted.bind_fault_schedule(mixed_campaign());
    core::failsafe_controller c(std::make_unique<core::bang_bang_controller>());
    static_cast<void>(core::run_controlled(
        faulted, c, workload::make_paper_test(workload::paper_test::test3_frequent)));
    const util::frame& h2 = faulted.telemetry().history();
    expect_history_columns(h2);
    EXPECT_EQ(h2.size(), 473U);
    double widest_gap = 0.0;
    for (std::size_t i = 1; i < h2.size(); ++i) {
        widest_gap = std::max(widest_gap, h2.time()[i] - h2.time()[i - 1]);
    }
    EXPECT_GE(widest_gap, 90.0);
    EXPECT_EQ(hex(history_hash(h2)), hex(0xdf042545f8070237ULL)) << "faulted monitored history";
}

// --- characterize() LUT ------------------------------------------------------------

TEST(GoldenBitwise, CharacterizedLut) {
    const core::fan_lut& lut = paper_lut();
    fnv1a h;
    h.add(static_cast<std::uint64_t>(lut.size()));
    for (const core::lut_entry& e : lut.entries()) {
        h.add(e.utilization_pct);
        h.add(e.rpm.value());
        h.add(e.expected_cpu_temp_c);
        h.add(e.expected_fan_leak_w);
    }
    EXPECT_EQ(hex(h.value()), hex(0xa0c20bfd21c15045ULL)) << "LUT entries";
}

}  // namespace
