// Continuous System Telemetry Harness (CSTH) poll clock and history.
//
// The paper polls CPU/DIMM temperatures, per-core voltage/current and
// whole-system power through CSTH every 10 seconds.  A harness is what
// that poller keeps for one server: its cadence, when it last fired,
// and the archive of polled values.  The plant reads its own sensors in
// one poll pass (server_batch) and hands the harness one row per poll.
//
// The archive is columnar: every poll samples all signals at one shared
// timestamp, so it is one `util::frame` (one time column plus one value
// column per recorded signal).
#pragma once

#include <string>
#include <vector>

#include "util/frame.hpp"
#include "util/units.hpp"

namespace ltsc::telemetry {

/// Poll clock plus columnar history of one server's telemetry.
class harness {
public:
    /// `period` is the sampling cadence (the paper uses 10 s); `columns`
    /// names the recorded signals in row order (each name non-empty
    /// and unique).
    harness(util::seconds_t period, const std::vector<std::string>& columns);

    /// True when a poll is due at `now`: never polled, or at least one
    /// period elapsed since the last poll.
    [[nodiscard]] bool due(util::seconds_t now) const;

    /// Records one poll at `now`: appends `values` (one per column, in
    /// column order) as a history row and moves the poll clock to `now`.
    void record(util::seconds_t now, const double* values, std::size_t count);

    /// Clears the history and the poll clock, so the harness can record a
    /// fresh run starting from t = 0.
    void reset();

    // --- poll-clock save/restore -------------------------------------------
    // Cloning a live plant (rollout snapshots) must reproduce *when* the
    // next telemetry poll fires, because polling reads the sensors and
    // advances their RNG stream.  The clock is exposed as (last poll
    // time, ever-polled) so a restored plant polls on the same schedule
    // as the original; the history is not part of the dynamic state.
    [[nodiscard]] double last_poll_time() const { return last_poll_; }
    [[nodiscard]] bool ever_polled() const { return polled_once_; }

    /// Overwrites the poll clock without touching the history (callers
    /// wanting a clean recording call reset() first).
    void restore_poll_clock(double last_poll_s, bool ever_polled);

    [[nodiscard]] util::seconds_t period() const { return period_; }

    /// The recorded history: one row per poll, one column per signal.
    [[nodiscard]] const util::frame& history() const { return history_; }

private:
    util::seconds_t period_;
    double last_poll_ = -1.0;
    bool polled_once_ = false;
    util::frame history_;
};

}  // namespace ltsc::telemetry
