#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

double seconds_since(bench_clock::time_point t0) {
    return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

std::int64_t now_ns() {
    static const bench_clock::time_point epoch = bench_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(bench_clock::now() - epoch)
        .count();
}

// --- percentile rule ------------------------------------------------------

namespace {

/// 1-based nearest rank of percentile `pct` among `n` samples.
std::size_t nearest_rank(std::size_t n, double pct) {
    const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double pct) {
    if (samples.empty()) {
        return 0.0;
    }
    const std::size_t k = nearest_rank(samples.size(), pct) - 1;
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

tail_summary summarize(std::vector<double> samples) {
    tail_summary s;
    s.count = samples.size();
    if (samples.empty()) {
        return s;
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    s.p50 = samples[nearest_rank(n, 50.0) - 1];
    s.tail = samples.back();
    s.tail_pct = 100.0;
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const std::size_t k = nearest_rank(n, pct);
        if (n - k >= 10) {
            s.tail = samples[k - 1];
            s.tail_pct = pct;
            break;
        }
    }
    s.p99 = s.tail_pct >= 99.0 ? samples[nearest_rank(n, 99.0) - 1] : s.tail;
    return s;
}

rounds_summary summarize_rounds(const std::vector<round_stats>& rounds) {
    rounds_summary out;
    out.rounds = rounds.size();
    if (rounds.empty()) {
        return out;
    }
    std::vector<double> tput, p50, p99;
    out.min_round_samples = rounds.front().latency.count;
    for (const round_stats& r : rounds) {
        tput.push_back(r.throughput);
        p50.push_back(r.latency.p50);
        p99.push_back(r.latency.p99);
        out.samples += r.latency.count;
        out.min_round_samples = std::min(out.min_round_samples, r.latency.count);
    }
    out.throughput = median(std::move(tput));
    out.p50 = median(std::move(p50));
    out.p99 = median(std::move(p99));
    return out;
}

// --- open-loop accounting ---------------------------------------------------

open_loop::open_loop(double rate_per_s) : rate_(rate_per_s) {
    if (!(rate_per_s > 0.0)) {
        throw std::invalid_argument("open_loop: rate must be positive");
    }
}

double open_loop::due_s(std::uint64_t i) const { return static_cast<double>(i) / rate_; }

std::uint64_t open_loop::due_by(double now_s) const {
    if (now_s < 0.0) {
        return 0;
    }
    return static_cast<std::uint64_t>(std::floor(now_s * rate_)) + 1;
}

void open_loop::on_send(std::uint64_t i, double now_s) {
    if (i != sent_) {
        throw std::invalid_argument("open_loop: requests must be sent in order");
    }
    ++sent_;
    late_ms_.push_back(std::max(0.0, now_s - due_s(i)) * 1e3);
    const std::uint64_t due = due_by(now_s);
    backlog_max_ = std::max(backlog_max_, due > sent_ ? due - sent_ : 0);
}

double open_loop::latency_from_due_ms(std::uint64_t i, double done_s) const {
    return (done_s - due_s(i)) * 1e3;
}

// --- spans -------------------------------------------------------------------

span_log::span_log(std::uint32_t log_index, std::size_t capacity)
    : base_((static_cast<std::uint64_t>(log_index) + 1) << 40), capacity_(capacity) {}

std::uint64_t span_log::begin(std::uint32_t name, std::uint64_t parent, std::uint64_t group,
                              std::int64_t start_ns) {
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return 0;
    }
    const std::uint64_t id = base_ + spans_.size() + 1;
    spans_.push_back({id, parent, group, name, start_ns, start_ns});
    return id;
}

void span_log::end(std::uint64_t id, std::int64_t end_ns) {
    if (id == 0) {
        return;
    }
    spans_.at(static_cast<std::size_t>(id - base_ - 1)).end_ns = end_ns;
}

std::uint64_t span_log::add(std::uint32_t name, std::uint64_t parent, std::uint64_t group,
                            std::int64_t start_ns, std::int64_t end_ns) {
    const std::uint64_t id = begin(name, parent, group, start_ns);
    end(id, end_ns);
    return id;
}

std::vector<std::int64_t> self_times_ns(const std::vector<span>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        index.emplace(spans[i].id, i);
    }
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
    for (const span& s : spans) {
        const auto it = s.parent == 0 ? index.end() : index.find(s.parent);
        if (it != index.end()) {
            children[it->second].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::vector<std::int64_t> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].start_ns;
        const std::int64_t hi = spans[i].end_ns;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t cursor = lo;
        for (const auto& [a, b] : kids) {
            const std::int64_t from = std::max(a, cursor);
            const std::int64_t to = std::min(b, hi);
            if (to > from) {
                covered += to - from;
                cursor = to;
            }
        }
        out[i] = (hi - lo) - covered;
    }
    return out;
}

bool write_spans_csv(const std::string& path, const std::vector<span>& spans,
                     const std::vector<std::string>& names) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "id,parent,group,name,start_ns,end_ns\n");
    for (const span& s : spans) {
        std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n", static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.group),
                     s.name < names.size() ? names[s.name].c_str() : "?",
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
}

// --- seed-to-inputs generation ----------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double uniform(std::uint64_t& state, double lo, double hi) {
    const double u = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

namespace {

/// Fisher-Yates shuffle driven by the benchmark stream.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t& state) {
    for (std::size_t i = v.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
        std::swap(v[i - 1], v[j]);
    }
}

}  // namespace

std::vector<fleet_lane_input> make_fleet_inputs(std::uint64_t seed, std::size_t lanes) {
    std::uint64_t state = seed ^ 0xf1ee7ULL;
    std::vector<fleet_lane_input> out(lanes);
    std::vector<std::size_t> combos(12);
    for (std::size_t block = 0; block * 12 < lanes; ++block) {
        std::iota(combos.begin(), combos.end(), std::size_t{0});
        shuffle(combos, state);
        std::size_t monitored_test[3];
        for (std::size_t& t : monitored_test) {
            t = static_cast<std::size_t>(splitmix64(state) % 4);
        }
        for (std::size_t j = 0; j < 12 && block * 12 + j < lanes; ++j) {
            fleet_lane_input& in = out[block * 12 + j];
            in.test = combos[j] % 4;
            const std::size_t policy = combos[j] / 4;
            in.policy = static_cast<fleet_policy>(policy);
            in.monitored = monitored_test[policy] == in.test;
            in.plant_seed = splitmix64(state);
            in.ambient_c = uniform(state, 18.0, 26.0);
            in.profile_seed = splitmix64(state);
            in.campaign_seed = splitmix64(state);
        }
    }
    return out;
}

std::vector<rollout_scenario_input> make_rollout_inputs(std::uint64_t seed, std::size_t count) {
    std::uint64_t state = seed ^ 0x5011047ULL;
    std::vector<rollout_scenario_input> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        rollout_scenario_input& in = out[i];
        in.test = i % 4;
        in.lut_baseline = (i / 4) % 2 == 1;
        in.plant_seed = splitmix64(state);
        in.ambient_c = uniform(state, 20.0, 25.0);
        in.profile_seed = splitmix64(state);
    }
    return out;
}

std::vector<telemetry_lane_input> make_telemetry_inputs(std::uint64_t seed, std::size_t lanes,
                                                        std::size_t plateaus) {
    std::uint64_t state = seed ^ 0x7e1e3e7ULL;
    std::vector<telemetry_lane_input> out(lanes);
    for (telemetry_lane_input& in : out) {
        in.plant_seed = splitmix64(state);
        in.ambient_c = uniform(state, 18.0, 26.0);
        in.plateaus.reserve(plateaus);
        for (std::size_t p = 0; p < plateaus; ++p) {
            const double level = uniform(state, 20.0, 95.0);
            const double span_s = std::floor(uniform(state, 60.0, 600.0));
            in.plateaus.emplace_back(level, span_s);
        }
    }
    return out;
}

std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n, std::size_t k) {
    std::uint64_t state = seed ^ 0x5a3b1eULL;
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    shuffle(all, state);
    all.resize(std::min(k, n));
    std::sort(all.begin(), all.end());
    return all;
}

// --- results -------------------------------------------------------------------

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) + ": {\"value\": " + buf +
               ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    return out + "}}";
}

}  // namespace perfbench
