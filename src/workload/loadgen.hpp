// LoadGen: dynamic load synthesis by PWM duty-cycling.
//
// The paper's LoadGen tool (Section III) achieves any target utilization by
// duty-cycling the CPUs between a maximal-switching stress kernel (100 %)
// and idle.  The PWM period is coarse enough (tens of seconds) that the
// duty cycling is visible as thermal oscillation — the fast 5-8 degC
// transients of Fig. 1(b) — while the *average* utilization matches the
// target.  This class converts a target profile into the instantaneous
// load the plant sees, and emulates the `sar`/`mpstat` utilization
// measurement the controllers poll.
#pragma once

#include <mutex>
#include <vector>

#include "util/time_series.hpp"
#include "util/units.hpp"
#include "workload/profile.hpp"

namespace ltsc::workload {

/// Configuration of the load synthesizer.
struct loadgen_config {
    /// Full PWM period of the duty cycle.  The default reproduces the
    /// minute-scale thermal oscillations visible in Fig. 1(b): the busy
    /// window is long enough for the heatsink (not just the die) to ride
    /// up and down with the duty cycle.
    util::seconds_t pwm_period{240.0};
    double stress_intensity = 1.0;  ///< Switching intensity of the busy phase
                                    ///< (1.0 = maximal pipe stuffing).
};

/// Synthesizes instantaneous CPU load from a target utilization profile.
class loadgen {
public:
    /// Binds the generator to a profile.  The profile is copied.
    loadgen(utilization_profile profile, const loadgen_config& config = {});

    // Copy/move transfer the binding and its busy-slot index, not the
    // memo: the cache is a per-instance performance detail, and starting
    // it cold keeps the mutex non-copyable problem out of the special
    // members.
    loadgen(const loadgen& other);
    loadgen(loadgen&& other) noexcept;
    loadgen& operator=(const loadgen& other);
    loadgen& operator=(loadgen&& other) noexcept;

    /// Instantaneous utilization in [0, 100] at time `t`: during the busy
    /// fraction of each PWM period the CPUs run the stress kernel at
    /// `stress_intensity`, otherwise they idle.  Targets of exactly 0 or
    /// 100 bypass the PWM.
    [[nodiscard]] double instantaneous_utilization(util::seconds_t t) const;

    /// Target (commanded) utilization at `t` — what `sar` would report as
    /// the average over a window much longer than the PWM period.
    [[nodiscard]] double target_utilization(util::seconds_t t) const;

    /// Utilization as measured by the monitoring utilities: the mean
    /// instantaneous utilization over the window [t - window, t].
    /// Deterministic in (t, window); the last result is memoized because
    /// the controller runtime asks for the same instant several times per
    /// decision (system plus per-socket views).  Thread-safe: every
    /// binding copies its loadgen (server_batch::bind_workload takes it
    /// by value, and rollout_engine::bind_workload copies it into each
    /// lane), but a caller may still read one instance from several
    /// threads, so the memo mutates under `const` concurrently — the
    /// cache is mutex-guarded, and a racing miss at worst recomputes the
    /// same deterministic value.
    ///
    /// Evaluation is analytic and costs O(log profile segments) plus the
    /// slots of the two segments holding the window's edges: at
    /// construction the loadgen counts each segment's busy duty slots
    /// once (one pass over the profile's ramp slots) and keeps a running
    /// prefix of them (two `long long` per segment), so a reading takes
    /// the segments between its edges from the prefix instead of
    /// sweeping the window.  It is *bitwise equal* to the reference
    /// Riemann sum below: every sample of that sum is
    /// either 0 or the stress peak, adding 0.0 is exact, and on the
    /// dyadic quarter-second grid the sample positions, the duty-edge
    /// comparisons, and the accumulated sum are all reproduced exactly
    /// (pinned by the loadgen equivalence suite).  Configurations off
    /// that grid (PWM period < 16 s or a window edge not on a multiple
    /// of 0.25 s) fall back to the reference sum itself.
    [[nodiscard]] double measured_utilization(util::seconds_t t, util::seconds_t window) const;

    /// Reference implementation of measured_utilization: the original
    /// sampled Riemann sum over the window.  Public so equivalence
    /// tests can pin the analytic path against it; not memoized.
    [[nodiscard]] double measured_utilization_sampled(util::seconds_t t,
                                                      util::seconds_t window) const;

    [[nodiscard]] const utilization_profile& profile() const { return profile_; }
    [[nodiscard]] const loadgen_config& config() const { return config_; }

private:
    /// Analytic fast path: counts busy duty slots in closed form and
    /// reconstructs the reference sum's exact value.  Returns false
    /// (leaving `out` untouched) when the configuration is off the
    /// dyadic grid the exactness argument needs.
    [[nodiscard]] bool measured_analytic(double t0, double t1, double& out) const;

    /// Busy quarter-second slots among slots [lo, hi) of segment `s`,
    /// which must hold them all: closed-form residue counting for a
    /// constant segment on a dyadic period, slot sampling otherwise.
    [[nodiscard]] long long busy_slots(const utilization_profile::segment& s, long long lo,
                                       long long hi) const;

    /// Fills the busy-slot index below; leaves it empty for
    /// configurations that take the sampled fallback.
    void build_busy_prefix();

    utilization_profile profile_;
    loadgen_config config_;

    // Busy-slot index over the whole profile, one entry per segment plus
    // an end sentinel: segment k owns slots [segment_first_slot_[k],
    // segment_first_slot_[k + 1]), and busy_prefix_[k] counts the busy
    // slots of segments [0, k).  Empty for configurations that take the
    // sampled fallback (PWM period < 16 s).
    std::vector<long long> segment_first_slot_;
    std::vector<long long> busy_prefix_;

    // One-entry memo for measured_utilization (see above), guarded by
    // its mutex because one loadgen may be read from many threads.
    mutable std::mutex measured_cache_mutex_;
    mutable bool measured_cache_valid_ = false;
    mutable double measured_cache_t_ = 0.0;
    mutable double measured_cache_window_ = 0.0;
    mutable double measured_cache_value_ = 0.0;
};

}  // namespace ltsc::workload
