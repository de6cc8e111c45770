// The live-telemetry phase of fleet_control's traced run: a 512-lane
// fleet stepped flat out by the main thread (fleet::step) with
// telemetry_service::service attached through a forwarding sink and HTTP
// on, while one client thread sends open-loop /metrics, /health and
// /lanes/<i>/window requests at a fixed rate over a few keep-alive
// connections.  It has no controllers.  The stepping thread, aggregator,
// HTTP worker and client together fit a 4-CPU budget.
//
// Why it is a phase and not a workload of its own: ingest and queries
// are sleep/wake driven, and on the reference host their rates swung by
// more than the benchmark's largest bound from run to run, so they are
// reported as per-layer metrics, which carry no bound.
//
// Operations are requests and published row-groups.  Failures are HTTP
// errors, checksum (torn) reads, epoch regressions, unanswered requests,
// dropped row-groups, and sampled lanes whose closed online window
// differs from post-hoc compute_metrics.  Each request is timed from
// when it was due.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "sim/fleet.hpp"
#include "sim/simulation_trace.hpp"
#include "telemetry_service/service.hpp"

namespace perfbench {

using namespace ltsc;

namespace {

constexpr std::size_t kLanes = 512;
constexpr std::size_t kPlateaus = 16;
constexpr std::size_t kConnections = 4;
// Requests per second.  At this rate the HTTP worker and the client
// rarely idle long enough for their CPUs to drop into a deep sleep, so
// query latency shows the service rather than the host's wake-up time.
constexpr double kRequestRate = 4000.0;
constexpr std::size_t kClearEvery = 240;  // steps; a multiple of the window
constexpr std::size_t kWindowSamples = 8;
constexpr std::size_t kSpanCapacity = 1u << 20;

enum span_name : std::uint32_t { kStep, kPublish, kRequest };
const std::vector<std::string> kSpanNames = {"fleet.step", "service.publish", "http.request"};

/// Client-side verdict counters (single writer: the client thread).
struct client_counters {
    std::uint64_t sent = 0;
    std::uint64_t answered = 0;
    std::uint64_t http_errors = 0;
    std::uint64_t torn_reads = 0;
    std::uint64_t epoch_regressions = 0;
};

/// Recomputes the body's trailing FNV checksum field.
bool checksum_ok(const std::string& body) {
    const std::size_t pos = body.rfind(",\"checksum\":\"");
    if (pos == std::string::npos || body.size() < pos + 13 + 16 + 2) {
        return false;
    }
    char expect[24];
    std::snprintf(expect, sizeof(expect), "%016llx",
                  static_cast<unsigned long long>(
                      telemetry_service::service::fnv1a(body.substr(0, pos))));
    return body.compare(pos + 13, 16, expect) == 0;
}

/// `"complete_epoch":N` of a body (0 when absent).
std::uint64_t parse_epoch(const std::string& body) {
    const std::size_t pos = body.find("\"complete_epoch\":");
    return pos == std::string::npos ? 0 : std::strtoull(body.c_str() + pos + 17, nullptr, 10);
}

/// One keep-alive connection.
struct connection {
    int fd = -1;
    std::string in;
    bool busy = false;
    std::uint64_t request = 0;  ///< Index of the request in flight.
    bool sees_epoch = false;
    std::uint64_t last_epoch = 0;
};

/// Open-loop query generator over a few keep-alive connections.
class query_client {
public:
    query_client(std::uint16_t port, std::uint64_t seed) : lane_state_(seed ^ 0xc11e47ULL) {
        for (std::size_t i = 0; i < kConnections; ++i) {
            connection c;
            c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(port);
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (c.fd < 0 ||
                ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
                if (c.fd >= 0) {
                    ::close(c.fd);
                }
                throw std::runtime_error("telemetry_live: cannot connect to the service");
            }
            const int one = 1;
            ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            conns_.push_back(std::move(c));
        }
    }
    ~query_client() {
        for (const connection& c : conns_) {
            ::close(c.fd);
        }
    }
    query_client(const query_client&) = delete;
    query_client& operator=(const query_client&) = delete;

    /// Sends requests on schedule until `stop`, then waits (bounded) for
    /// the ones in flight.  Latencies are measured from each request's
    /// due time, and every request is recorded as a span in `log`.
    void run(const std::atomic<bool>& stop, open_loop& sched,
             std::vector<std::pair<std::uint64_t, double>>& latency_ms,
             client_counters& counters, span_log& log) {
        const auto start = bench_clock::now();
        const std::int64_t start_ns = now_ns();
        bool stopping = false;
        auto stop_deadline = start;
        for (;;) {
            if (!stopping && stop.load(std::memory_order_acquire)) {
                stopping = true;
                stop_deadline = bench_clock::now() + std::chrono::seconds(2);
            }
            const double now = seconds_since(start);
            if (!stopping) {
                while (sched.sent() < sched.due_by(now)) {
                    connection* free = nullptr;
                    for (connection& c : conns_) {
                        if (!c.busy) {
                            free = &c;
                            break;
                        }
                    }
                    if (free == nullptr) {
                        break;  // backlog: due requests wait for a connection
                    }
                    send_request(*free, sched.sent());
                    sched.on_send(sched.sent(), seconds_since(start));
                    ++counters.sent;
                }
            }
            std::vector<pollfd> pfds;
            std::vector<connection*> owners;
            for (connection& c : conns_) {
                if (c.busy) {
                    pfds.push_back({c.fd, POLLIN, 0});
                    owners.push_back(&c);
                }
            }
            if (stopping && (pfds.empty() || bench_clock::now() > stop_deadline)) {
                return;
            }
            double wait_s = 0.001;
            if (!stopping) {
                wait_s = std::max(0.0, sched.due_s(sched.sent()) - seconds_since(start));
                if (sched.sent() < sched.due_by(seconds_since(start))) {
                    wait_s = 0.001;  // backlogged: only a response can help
                }
            }
            timespec ts{};
            ts.tv_sec = static_cast<time_t>(wait_s);
            ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
            if (::ppoll(pfds.data(), static_cast<nfds_t>(pfds.size()), &ts, nullptr) <= 0) {
                continue;
            }
            for (std::size_t i = 0; i < pfds.size(); ++i) {
                if (pfds[i].revents == 0) {
                    continue;
                }
                connection& c = *owners[i];
                char buf[16384];
                const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
                if (n <= 0) {
                    throw std::runtime_error("telemetry_live: service closed a connection");
                }
                c.in.append(buf, static_cast<std::size_t>(n));
                std::string body;
                bool ok200 = false;
                if (!take_response(c, body, ok200)) {
                    continue;
                }
                const double done = seconds_since(start);
                latency_ms.emplace_back(c.request, sched.latency_from_due_ms(c.request, done));
                log.add(kRequest, 0, c.request,
                        start_ns + static_cast<std::int64_t>(sched.due_s(c.request) * 1e9),
                        start_ns + static_cast<std::int64_t>(done * 1e9));
                ++counters.answered;
                c.busy = false;
                if (!ok200) {
                    ++counters.http_errors;
                } else if (!checksum_ok(body)) {
                    ++counters.torn_reads;
                } else if (c.sees_epoch) {
                    const std::uint64_t epoch = parse_epoch(body);
                    counters.epoch_regressions += epoch < c.last_epoch ? 1 : 0;
                    c.last_epoch = epoch;
                }
            }
        }
    }

private:
    void send_request(connection& c, std::uint64_t i) {
        std::string path;
        switch (i % 3) {
            case 0: path = "/metrics"; c.sees_epoch = true; break;
            case 1: path = "/health"; c.sees_epoch = true; break;
            default:
                path = "/lanes/" + std::to_string(splitmix64(lane_state_) % kLanes) + "/window";
                c.sees_epoch = false;
                break;
        }
        const std::string req = "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
        const ssize_t sent = ::send(c.fd, req.data(), req.size(), MSG_NOSIGNAL);
        if (sent != static_cast<ssize_t>(req.size())) {
            throw std::runtime_error("telemetry_live: request send failed");
        }
        c.busy = true;
        c.request = i;
    }

    /// Extracts one complete response from the connection buffer.
    static bool take_response(connection& c, std::string& body, bool& ok200) {
        const std::size_t head_end = c.in.find("\r\n\r\n");
        if (head_end == std::string::npos) {
            return false;
        }
        const std::size_t cl = c.in.find("Content-Length: ");
        if (cl == std::string::npos || cl > head_end) {
            throw std::runtime_error("telemetry_live: response without Content-Length");
        }
        const std::size_t len = std::strtoull(c.in.c_str() + cl + 16, nullptr, 10);
        if (c.in.size() < head_end + 4 + len) {
            return false;
        }
        ok200 = c.in.compare(9, 3, "200") == 0;
        body = c.in.substr(head_end + 4, len);
        c.in.erase(0, head_end + 4 + len);
        return true;
    }

    std::vector<connection> conns_;
    std::uint64_t lane_state_;
};

/// Forwards each shard step to the service and times the publication.
/// Per-shard logs: calls for one shard are serialized by the fleet's
/// step barrier.
class forwarding_sink final : public sim::fleet_sink {
public:
    forwarding_sink(telemetry_service::service& svc, std::size_t shards) : svc_(&svc) {
        for (std::size_t s = 0; s < shards; ++s) {
            logs_.emplace_back(static_cast<std::uint32_t>(s + 2), kSpanCapacity);
        }
    }
    void on_shard_step(std::size_t shard, std::uint64_t epoch,
                       const sim::server_batch& batch) override {
        const std::int64_t t0 = now_ns();
        svc_->on_shard_step(shard, epoch, batch);
        logs_[shard].add(kPublish, step_span, epoch, t0, now_ns());
    }
    [[nodiscard]] const std::vector<span_log>& logs() const { return logs_; }

    std::uint64_t step_span = 0;  ///< Written between steps by the main thread.

private:
    telemetry_service::service* svc_;
    std::vector<span_log> logs_;
};

/// Fleet, service and client: what set-up builds.
struct live_setup {
    std::unique_ptr<sim::fleet> fleet;
    std::unique_ptr<telemetry_service::service> svc;
    std::unique_ptr<query_client> client;
    std::size_t window_rows = 0;
    std::size_t http_threads = 0;
};

std::unique_ptr<live_setup> build_setup(const run_options& opt) {
    auto s = std::make_unique<live_setup>();
    const std::vector<telemetry_lane_input> inputs =
        make_telemetry_inputs(opt.seed, kLanes, kPlateaus);
    std::vector<sim::server_config> configs;
    configs.reserve(kLanes);
    for (const telemetry_lane_input& in : inputs) {
        sim::server_config cfg = sim::paper_server();
        cfg.seed = in.plant_seed;
        cfg.thermal.ambient_c = in.ambient_c;
        configs.push_back(cfg);
    }
    // CPU budget: the aggregator, the HTTP worker and the client thread
    // get one CPU each, and the stepping pool (the main thread
    // included) the rest, at least one.  Two shards keep the per-shard
    // publication path (and the shard skew it shows) in play at any
    // pool width.
    sim::fleet_config fc;
    fc.threads = opt.cpus > 4 ? opt.cpus - 3 : 1;
    fc.shards = std::max<std::size_t>(2, fc.threads);
    s->fleet = std::make_unique<sim::fleet>(std::move(configs), fc);
    for (std::size_t l = 0; l < kLanes; ++l) {
        workload::utilization_profile p("live-" + std::to_string(l));
        for (const auto& [level, secs] : inputs[l].plateaus) {
            p.constant(level, util::seconds_t{secs});
        }
        p.constant(inputs[l].plateaus.back().first, util::seconds_t{1e9});
        s->fleet->bind_workload(l, p);
    }
    s->fleet->force_cold_start();
    telemetry_service::service_config cfg;
    cfg.http_threads = 1;
    s->window_rows = cfg.online.window_rows;
    s->http_threads = cfg.http_threads;
    s->svc = std::make_unique<telemetry_service::service>(*s->fleet, cfg);
    s->client = std::make_unique<query_client>(s->svc->http_port(), opt.seed);
    return s;
}

struct pass_result {
    std::vector<std::pair<std::uint64_t, double>> latency_ms;  ///< (request, ms from due)
    std::vector<std::pair<double, std::uint64_t>> marks;  ///< (s, rows applied) each second
    client_counters counters;
    std::vector<double> late_ms;
    std::uint64_t backlog_max = 0;
    std::vector<double> lag_epochs;
    double rate = 0.0;
    span_log steps_log{1, kSpanCapacity};
    span_log client_log{0, kSpanCapacity};
};

/// Steps the fleet flat out for `seconds` with the client running,
/// recording every step, publication and request as a span.
void run_pass(live_setup& s, double seconds, std::uint64_t& steps_total,
              std::uint64_t& last_clear, forwarding_sink& sink, pass_result& out) {
    open_loop sched(kRequestRate);
    std::atomic<bool> stop{false};
    std::exception_ptr client_error;
    std::thread client([&] {
        // Wake on the due time, not up to the default 50 us timer slack
        // after it: generator lateness counts in every request's latency.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        try {
            s.client->run(stop, sched, out.latency_ms, out.counters, out.client_log);
        } catch (...) {
            client_error = std::current_exception();
        }
    });
    const std::uint64_t rows0 = s.svc->stats().rows;
    const auto t0 = bench_clock::now();
    out.marks.emplace_back(0.0, rows0);
    for (double now = 0.0; now < seconds; now = seconds_since(t0)) {
        if (now >= static_cast<double>(out.marks.size())) {
            out.marks.emplace_back(now, s.svc->stats().rows);
        }
        sink.step_span = out.steps_log.begin(kStep, 0, s.fleet->step_epoch() + 1, now_ns());
        s.fleet->step();
        out.steps_log.end(sink.step_span, now_ns());
        const std::uint64_t complete = s.svc->metrics().complete_epoch;
        out.lag_epochs.push_back(static_cast<double>(s.fleet->step_epoch() - complete));
        if (++steps_total - last_clear >= kClearEvery) {
            for (std::size_t l = 0; l < s.fleet->lane_count(); ++l) {
                s.fleet->clear_trace(l);
            }
            last_clear = steps_total;
        }
    }
    out.marks.emplace_back(seconds_since(t0), s.svc->stats().rows);
    stop.store(true, std::memory_order_release);
    client.join();
    if (client_error) {
        std::rethrow_exception(client_error);
    }
    out.late_ms = sched.late_ms();
    out.backlog_max = sched.backlog_max();
    out.rate = sched.rate_per_s();
}

/// One round per whole second: rows applied in it per second, and the
/// latencies of the requests due in it.
std::vector<round_stats> rounds_of(const pass_result& p) {
    std::vector<std::vector<double>> lat(p.marks.size() - 1);
    for (const auto& [i, ms] : p.latency_ms) {
        const auto k = static_cast<std::size_t>(static_cast<double>(i) / p.rate);
        if (k < lat.size()) {
            lat[k].push_back(ms);
        }
    }
    std::vector<round_stats> out;
    for (std::size_t k = 0; k + 1 < p.marks.size(); ++k) {
        const double dt = p.marks[k + 1].first - p.marks[k].first;
        const auto rows = static_cast<double>(p.marks[k + 1].second - p.marks[k].second);
        out.push_back({rows / dt, summarize(std::move(lat[k]))});
    }
    return out;
}

/// Owning copy of one lane's trace rows [first, first + count).
sim::simulation_trace window_slice(const sim::trace_view& tv, std::size_t first,
                                   std::size_t count) {
    sim::simulation_trace out;
    const util::column_view t = tv.channel(sim::trace_channel::target_util);
    for (std::size_t i = first; i < first + count; ++i) {
        sim::trace_row row;
        for (std::size_t c = 0; c < sim::trace_channel_count; ++c) {
            row.values[c] = tv.channel(static_cast<sim::trace_channel>(c)).v(i);
        }
        out.append(t.t(i), row);
    }
    return out;
}

}  // namespace

void run_live_telemetry(const run_options& opt, double seconds, workload_result& r) {
    const std::unique_ptr<live_setup> s = build_setup(opt);
    std::uint64_t steps_total = 0;
    std::uint64_t last_clear = 0;
    forwarding_sink sink(*s->svc, s->fleet->shard_count());
    s->fleet->attach_sink(&sink);
    pass_result traced;
    run_pass(*s, seconds, steps_total, last_clear, sink, traced);
    s->fleet->attach_sink(s->svc.get());

    // Every sampled lane needs its last closed window inside the trace
    // kept since the last clear (clears land on window boundaries).
    while (steps_total - last_clear < s->window_rows) {
        s->fleet->step();
        ++steps_total;
    }
    const auto d0 = bench_clock::now();
    s->svc->drain();
    const double drain_s = seconds_since(d0);
    const telemetry_service::ingest_stats stats = s->svc->stats();

    // --- output checks ----------------------------------------------------
    std::uint64_t window_failures = 0;
    const std::size_t w = s->window_rows;
    for (const std::size_t l : sample_indices(opt.seed, kLanes, kWindowSamples)) {
        const telemetry_service::lane_window win = s->svc->lane_window_snapshot(l);
        bool ok = win.valid && win.rows == steps_total && win.closed == steps_total / w;
        if (ok) {
            const std::size_t first = static_cast<std::size_t>((win.closed - 1) * w - last_clear);
            const sim::simulation_trace slice = window_slice(s->fleet->trace(l), first, w);
            const sim::run_metrics ref = sim::compute_metrics(slice, 0, "window", "online");
            const sim::run_metrics& m = win.metrics;
            ok = m.duration_s == ref.duration_s && m.energy_kwh == ref.energy_kwh &&
                 m.peak_power_w == ref.peak_power_w && m.max_temp_c == ref.max_temp_c &&
                 m.avg_rpm == ref.avg_rpm && m.avg_cpu_temp_c == ref.avg_cpu_temp_c &&
                 m.fan_changes == 0;
        }
        window_failures += ok ? 0 : 1;
    }
    const client_counters& c = traced.counters;
    const std::uint64_t groups = steps_total * s->fleet->shard_count();
    const std::uint64_t failed = (c.sent - c.answered) + c.http_errors + c.torn_reads +
                                 c.epoch_regressions + stats.dropped_groups + window_failures;
    r.attempted += c.sent + groups;
    r.failed += failed;
    r.correct = r.correct && failed == 0 &&
                stats.published_groups + stats.dropped_groups == groups &&
                stats.applied_groups == stats.published_groups;

    // --- per-layer metrics --------------------------------------------------
    std::vector<span> spans = traced.steps_log.spans();
    spans.insert(spans.end(), traced.client_log.spans().begin(), traced.client_log.spans().end());
    std::uint64_t dropped = traced.steps_log.dropped() + traced.client_log.dropped();
    std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> shard_done;  // epoch
    std::vector<double> publish_us;
    for (const span_log& log : sink.logs()) {
        dropped += log.dropped();
        for (const span& sp : log.spans()) {
            spans.push_back(sp);
            publish_us.push_back(static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3);
            auto [it, fresh] = shard_done.try_emplace(sp.group, sp.start_ns, sp.start_ns);
            if (!fresh) {
                it->second.first = std::min(it->second.first, sp.start_ns);
                it->second.second = std::max(it->second.second, sp.start_ns);
            }
        }
    }
    std::vector<double> step_ms;
    for (const span& sp : traced.steps_log.spans()) {
        step_ms.push_back(static_cast<double>(sp.end_ns - sp.start_ns) * 1e-6);
    }
    std::vector<double> skew_ms;
    for (const auto& [epoch, range] : shard_done) {
        skew_ms.push_back(static_cast<double>(range.second - range.first) * 1e-6);
    }
    const tail_summary steps = summarize(step_ms);
    const tail_summary publish = summarize(publish_us);
    const rounds_summary live = summarize_rounds(rounds_of(traced));
    r.layer["service.ingest_rows_per_s"] = live.throughput;
    r.layer["http.query_ms_p50"] = live.p50;
    r.layer["fleet.step_ms_p50"] = steps.p50;
    r.layer["fleet.step_ms_p99"] = steps.p99;
    r.layer["fleet.shard_skew_ms_p50"] = median(skew_ms);
    r.layer["service.publish_us_p50"] = publish.p50;
    r.layer["service.publish_us_p99"] = publish.p99;
    r.layer["service.published_groups"] = static_cast<double>(stats.published_groups);
    r.layer["service.applied_groups"] = static_cast<double>(stats.applied_groups);
    r.layer["service.dropped_groups"] = static_cast<double>(stats.dropped_groups);
    r.layer["service.aggregator_lag_epochs_p99"] = summarize(traced.lag_epochs).p99;
    r.layer["service.drain_s"] = drain_s;
    r.layer["http.requests"] = static_cast<double>(c.answered);
    r.layer["http.errors"] = static_cast<double>(c.http_errors);
    r.layer["http.torn_reads"] = static_cast<double>(c.torn_reads);
    r.layer["http.epoch_regressions"] = static_cast<double>(c.epoch_regressions);
    r.layer["client.late_ms_p99"] = summarize(traced.late_ms).p99;
    r.layer["client.backlog_max"] = static_cast<double>(traced.backlog_max);
    const std::string path = opt.out_dir + "/" + opt.workload + ".live.spans.csv";
    if (!write_spans_csv(path, spans, kSpanNames)) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }

    r.provenance["live_spans_dropped"] = std::to_string(dropped);
    r.provenance["live_lanes"] = std::to_string(kLanes);
    r.provenance["live_shards"] = std::to_string(s->fleet->shard_count());
    r.provenance["live_fleet_threads"] = std::to_string(s->fleet->thread_count());
    r.provenance["live_http_threads"] = std::to_string(s->http_threads);
    r.provenance["live_client_threads"] = "1";
    r.provenance["live_connections"] = std::to_string(kConnections);
    r.provenance["live_request_rate_per_s"] = std::to_string(kRequestRate);
    std::printf("live telemetry: %zu lanes, %llu steps, %llu requests, dropped groups %llu\n",
                kLanes, static_cast<unsigned long long>(steps_total),
                static_cast<unsigned long long>(c.answered),
                static_cast<unsigned long long>(stats.dropped_groups));
}

}  // namespace perfbench
