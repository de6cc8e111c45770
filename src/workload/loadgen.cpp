#include "workload/loadgen.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::workload {

loadgen::loadgen(utilization_profile profile, const loadgen_config& config)
    : profile_(std::move(profile)), config_(config) {
    util::ensure(config.pwm_period.value() > 0.0, "loadgen: non-positive PWM period");
    util::ensure(config.stress_intensity > 0.0 && config.stress_intensity <= 1.0,
                 "loadgen: stress intensity out of (0, 1]");
    build_busy_prefix();
}

loadgen::loadgen(const loadgen& other)
    : profile_(other.profile_),
      config_(other.config_),
      segment_first_slot_(other.segment_first_slot_),
      busy_prefix_(other.busy_prefix_) {}

loadgen::loadgen(loadgen&& other) noexcept
    : profile_(std::move(other.profile_)),
      config_(other.config_),
      segment_first_slot_(std::move(other.segment_first_slot_)),
      busy_prefix_(std::move(other.busy_prefix_)) {}

loadgen& loadgen::operator=(const loadgen& other) {
    if (this != &other) {
        profile_ = other.profile_;
        config_ = other.config_;
        segment_first_slot_ = other.segment_first_slot_;
        busy_prefix_ = other.busy_prefix_;
        const std::lock_guard<std::mutex> lock(measured_cache_mutex_);
        measured_cache_valid_ = false;
    }
    return *this;
}

loadgen& loadgen::operator=(loadgen&& other) noexcept {
    if (this != &other) {
        profile_ = std::move(other.profile_);
        config_ = other.config_;
        segment_first_slot_ = std::move(other.segment_first_slot_);
        busy_prefix_ = std::move(other.busy_prefix_);
        const std::lock_guard<std::mutex> lock(measured_cache_mutex_);
        measured_cache_valid_ = false;
    }
    return *this;
}

double loadgen::target_utilization(util::seconds_t t) const {
    return profile_.utilization_at(t);
}

double loadgen::instantaneous_utilization(util::seconds_t t) const {
    const double target = profile_.utilization_at(t);
    const double peak = 100.0 * config_.stress_intensity;
    if (target <= 0.0) {
        return 0.0;
    }
    if (target >= peak) {
        return peak;
    }
    const double duty = target / peak;
    const double period = config_.pwm_period.value();
    const double phase = std::fmod(t.value(), period) / period;
    return phase < duty ? peak : 0.0;
}

double loadgen::measured_utilization_sampled(util::seconds_t t, util::seconds_t window) const {
    util::ensure(window.value() > 0.0,
                 "loadgen::measured_utilization_sampled: non-positive window");
    // Integrate the instantaneous load over the window with a step well
    // below the PWM period so duty edges are resolved.
    const double t1 = t.value();
    const double t0 = std::max(0.0, t1 - window.value());
    if (t1 <= t0) {
        return instantaneous_utilization(t);
    }
    const double step = std::min(0.25, config_.pwm_period.value() / 64.0);
    double acc = 0.0;
    int n = 0;
    for (double x = t0; x < t1; x += step) {
        acc += instantaneous_utilization(util::seconds_t{x});
        ++n;
    }
    return n > 0 ? acc / n : instantaneous_utilization(t);
}

namespace {

/// The odd part of a finite positive double's integer significand.  A
/// k-fold running sum of `v` is exact iff k * odd_significand(v) still
/// fits in the 53-bit mantissa.
long long odd_significand(double v) {
    int e = 0;
    const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
    auto sig = static_cast<long long>(std::ldexp(m, 53));
    while (sig % 2 == 0) {
        sig /= 2;
    }
    return sig;
}

/// Busy quarter-second slots among slot indices [0, i): slots whose
/// residue mod `q4` (the PWM period in slots) is below `r_star`.
long long busy_below(long long i, long long q4, long long r_star) {
    return (i / q4) * r_star + std::min(i % q4, r_star);
}

}  // namespace

long long loadgen::busy_slots(const utilization_profile::segment& s, long long lo,
                              long long hi) const {
    const auto count_by_sampling = [&] {
        long long busy = 0;
        for (long long i = lo; i < hi; ++i) {
            busy += instantaneous_utilization(util::seconds_t{0.25 * static_cast<double>(i)}) > 0.0;
        }
        return busy;
    };
    if (hi <= lo) {
        return 0;
    }
    if (s.u0 != s.u1) {  // ramp: the duty threshold moves per sample
        return count_by_sampling();
    }
    const double u = s.u0;
    const double peak = 100.0 * config_.stress_intensity;
    if (u <= 0.0) {
        return 0;  // idle segment
    }
    if (u >= peak) {
        return hi - lo;  // saturated: every slot is busy
    }
    // Closed-form phase counting needs the period on the slot grid too;
    // off-grid periods are counted slot by slot instead.
    const double period = config_.pwm_period.value();
    const double q4d = period * 4.0;
    if (q4d != std::floor(q4d) || !(q4d < 9.0e15)) {
        return count_by_sampling();
    }
    const auto q4 = static_cast<long long>(q4d);
    // A slot with residue r (mod q4) samples phase fl((0.25*r)/period)
    // — fmod is exact on the slot grid — and is busy iff that rounded
    // quotient is < duty.  The quotient is monotone in r, so the busy
    // residues are exactly a prefix [0, r_star); find the threshold
    // by bisection on the *rounded* comparison the reference makes.
    const double duty = u / peak;
    long long lo_r = 0;   // phase(0) = 0 < duty (duty > 0)
    long long hi_r = q4;  // phase(q4) = 1 >= duty
    while (hi_r - lo_r > 1) {
        const long long mid = lo_r + (hi_r - lo_r) / 2;
        if (0.25 * static_cast<double>(mid) / period < duty) {
            lo_r = mid;
        } else {
            hi_r = mid;
        }
    }
    const long long r_star = hi_r;
    return busy_below(hi, q4, r_star) - busy_below(lo, q4, r_star);
}

void loadgen::build_busy_prefix() {
    // Eligibility: the reference sum's step must be exactly 0.25 s
    // (period >= 16 s), and every slot index must stay well inside
    // exact-integer range.  Ineligible configurations keep no index and
    // measured_utilization takes the sampled fallback.
    const double end4 = profile_.duration().value() * 4.0;
    if (config_.pwm_period.value() < 16.0 || !(end4 < 9.0e15)) {
        return;
    }
    // A sample x = i/4 lands in [s.t0, s.t1) iff 4*s.t0 <= i < 4*s.t1,
    // and both products are exact; segments are contiguous, so these
    // slot ranges partition [0, ceil(4*duration)).
    const std::vector<utilization_profile::segment>& segs = profile_.segments();
    segment_first_slot_.reserve(segs.size() + 1);
    busy_prefix_.reserve(segs.size() + 1);
    long long busy = 0;
    for (const utilization_profile::segment& s : segs) {
        const auto lo = static_cast<long long>(std::ceil(s.t0 * 4.0));
        const auto hi = static_cast<long long>(std::ceil(s.t1 * 4.0));
        segment_first_slot_.push_back(lo);
        busy_prefix_.push_back(busy);
        busy += busy_slots(s, lo, hi);
    }
    segment_first_slot_.push_back(static_cast<long long>(std::ceil(end4)));
    busy_prefix_.push_back(busy);
}

bool loadgen::measured_analytic(double t0, double t1, double& out) const {
    // No index: the configuration is off the grid the exactness argument
    // needs (see build_busy_prefix).  Per call, the window start must
    // also sit on the quarter-second grid so every sample position
    // t0 + 0.25*k is an exact double.
    if (segment_first_slot_.empty()) {
        return false;
    }
    const double i0d = t0 * 4.0;  // exact: multiplication by 4
    const double i1d = t1 * 4.0;
    if (!(i1d < 9.0e15) || i0d != std::floor(i0d)) {
        return false;
    }
    const auto i0 = static_cast<long long>(i0d);
    const auto i1 = static_cast<long long>(std::ceil(i1d));  // count of slots < 4*t1
    const long long n = i1 - i0;
    if (n <= 0 || n > 2000000000LL) {  // the reference loop counts in int
        return false;
    }
    const double peak = 100.0 * config_.stress_intensity;

    // Busy slots in [i0, hi): the two segments holding the window's
    // edges are counted over their clipped slot ranges, the ones in
    // between come from the prefix.  Counts are integers, so the split
    // sums to exactly what a per-segment scan would.
    long long busy = 0;
    const long long hi = std::min(i1, segment_first_slot_.back());
    if (i0 < hi) {
        const std::vector<utilization_profile::segment>& segs = profile_.segments();
        // Segment holding slot i: the last k with first_slot[k] <= i
        // (empty slot ranges share a first slot; the last one wins).
        const auto segment_of = [&](long long i) {
            const auto it =
                std::upper_bound(segment_first_slot_.begin(), segment_first_slot_.end(), i);
            return static_cast<std::size_t>(it - segment_first_slot_.begin()) - 1;
        };
        const std::size_t k0 = segment_of(i0);
        const std::size_t k1 = segment_of(hi - 1);
        if (k0 == k1) {
            busy = busy_slots(segs[k0], i0, hi);
        } else {
            busy = busy_slots(segs[k0], i0, segment_first_slot_[k0 + 1]) +
                   (busy_prefix_[k1] - busy_prefix_[k0 + 1]) +
                   busy_slots(segs[k1], segment_first_slot_[k1], hi);
        }
    }
    // Slots past the profile end are idle (utilization_at returns 0)
    // and contribute nothing.

    // The reference accumulator is `busy` sequential additions of
    // `peak` (the 0.0 samples add exactly).  When every partial sum
    // k*peak is representable the whole chain is exact and collapses to
    // one multiplication; otherwise replay the cheap addition chain.
    double acc = 0.0;
    if (busy > 0) {
        const bool exact_chain = odd_significand(peak) <= (1LL << 53) / busy;
        if (exact_chain) {
            acc = peak * static_cast<double>(busy);
        } else {
            for (long long k = 0; k < busy; ++k) {
                acc += peak;
            }
        }
    }
    out = acc / static_cast<double>(n);
    return true;
}

double loadgen::measured_utilization(util::seconds_t t, util::seconds_t window) const {
    util::ensure(window.value() > 0.0, "loadgen::measured_utilization: non-positive window");
    {
        const std::lock_guard<std::mutex> lock(measured_cache_mutex_);
        if (measured_cache_valid_ && measured_cache_t_ == t.value() &&
            measured_cache_window_ == window.value()) {
            return measured_cache_value_;
        }
    }
    // Computed outside the lock: concurrent misses at most duplicate
    // work, and the result is a pure function of (t, window) so
    // last-writer-wins is harmless.
    const double t1 = t.value();
    const double t0 = std::max(0.0, t1 - window.value());
    if (t1 <= t0) {
        return instantaneous_utilization(t);
    }
    double value = 0.0;
    if (!measured_analytic(t0, t1, value)) {
        value = measured_utilization_sampled(t, window);
    }
    const std::lock_guard<std::mutex> lock(measured_cache_mutex_);
    measured_cache_t_ = t.value();
    measured_cache_window_ = window.value();
    measured_cache_value_ = value;
    measured_cache_valid_ = true;
    return value;
}

}  // namespace ltsc::workload
