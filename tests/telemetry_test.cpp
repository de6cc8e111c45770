// Unit tests for the CSTH-style telemetry harness: poll clock and
// columnar history.
#include <gtest/gtest.h>

#include <sstream>

#include "telemetry/harness.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace {

using namespace ltsc;
using namespace ltsc::util::literals;

/// Polls `h` at `now` when due, recording `v` in every column.
bool poll_if_due(telemetry::harness& h, util::seconds_t now, double v) {
    if (!h.due(now)) {
        return false;
    }
    const std::vector<double> row(h.history().channel_count(), v);
    h.record(now, row.data(), row.size());
    return true;
}

TEST(Harness, PollsAtConfiguredCadence) {
    telemetry::harness h(10_s, {"c"});
    EXPECT_TRUE(poll_if_due(h, 0_s, 1.0));
    EXPECT_FALSE(poll_if_due(h, 5_s, 2.0));
    EXPECT_FALSE(poll_if_due(h, 9.5_s, 3.0));
    EXPECT_TRUE(poll_if_due(h, 10_s, 4.0));
    ASSERT_EQ(h.history().size(), 2U);
    EXPECT_DOUBLE_EQ(h.history().column("c").back().v, 4.0);
}

TEST(Harness, LatestByName) {
    telemetry::harness h(10_s, {"power"});
    const double row = 500.0;
    h.record(0_s, &row, 1);
    EXPECT_DOUBLE_EQ(h.history().column("power").back().v, 500.0);
    EXPECT_THROW(static_cast<void>(h.history().column("missing")), util::precondition_error);
}

TEST(Harness, DuplicateNameRejected) {
    EXPECT_THROW(telemetry::harness(10_s, {"a", "a"}), util::precondition_error);
    EXPECT_THROW(telemetry::harness(10_s, {""}), util::precondition_error);
    EXPECT_THROW(telemetry::harness(0_s, {"a"}), util::precondition_error);
}

TEST(Harness, NeverPolledLatestThrows) {
    telemetry::harness h(10_s, {"a"});
    EXPECT_FALSE(h.ever_polled());
    EXPECT_TRUE(h.history().empty());
    EXPECT_THROW(static_cast<void>(h.history().column("a").back()), util::precondition_error);
}

TEST(Harness, ResetClearsEverything) {
    telemetry::harness h(10_s, {"a"});
    const double row = 1.0;
    h.record(0_s, &row, 1);
    h.record(10_s, &row, 1);
    h.reset();
    EXPECT_TRUE(h.history().empty());
    EXPECT_FALSE(h.ever_polled());
    EXPECT_EQ(h.history().channel_count(), 1U);  // the columns stay
    // After reset, polling from t = 0 again is legal.
    EXPECT_TRUE(poll_if_due(h, 0_s, 1.0));
}

TEST(Harness, RestoredPollClockKeepsTheSchedule) {
    telemetry::harness original(10_s, {"a"});
    EXPECT_TRUE(poll_if_due(original, 0_s, 1.0));
    EXPECT_TRUE(poll_if_due(original, 10_s, 1.0));

    telemetry::harness clone(10_s, {"a"});
    clone.restore_poll_clock(original.last_poll_time(), original.ever_polled());
    EXPECT_TRUE(clone.history().empty());  // the clock only, not the history
    EXPECT_DOUBLE_EQ(clone.last_poll_time(), 10.0);
    EXPECT_TRUE(clone.ever_polled());
    for (const double t : {15.0, 19.5, 20.0, 25.0, 30.0}) {
        EXPECT_EQ(poll_if_due(clone, util::seconds_t{t}, 1.0),
                  poll_if_due(original, util::seconds_t{t}, 1.0))
            << "t = " << t;
    }
    EXPECT_EQ(clone.history().size(), 2U);  // at 20 s and 30 s
}

TEST(Harness, RowWidthMustMatchTheColumns) {
    telemetry::harness h(10_s, {"a", "b"});
    const double row[3] = {1.0, 2.0, 3.0};
    EXPECT_THROW(h.record(0_s, row, 3), util::precondition_error);
    EXPECT_FALSE(h.ever_polled());  // a rejected row moves no clock
}

TEST(Harness, CsvExportParses) {
    telemetry::harness h(10_s, {"t1", "p1"});
    const double row[2] = {60.0, 400.0};
    h.record(0_s, row, 2);
    h.record(10_s, row, 2);
    std::vector<util::named_series> series;
    for (std::size_t c = 0; c < h.history().channel_count(); ++c) {
        series.push_back({h.history().channel_name(c), "", h.history().column(c).to_series()});
    }
    std::ostringstream os;
    util::write_series_csv(os, series);
    const auto doc = util::parse_csv(os.str());
    EXPECT_EQ(doc.rows.size(), 4U);  // 2 channels x 2 polls
}

TEST(Harness, ByIndexBoundsChecked) {
    telemetry::harness h(10_s, {"a"});
    EXPECT_EQ(h.history().channel_name(0), "a");
    EXPECT_THROW(static_cast<void>(h.history().column(1)), util::precondition_error);
}

}  // namespace
