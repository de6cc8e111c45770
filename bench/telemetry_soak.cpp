// Telemetry-service soak: a large fleet streaming into the service
// while a crowd of HTTP pollers hammers the query endpoints.
//
//   $ ./telemetry_soak [lanes] [pollers] [seconds] [json_out]
//     defaults: 10000 1000 60 (no JSON artifact)
//
// The driver steps a `lanes`-wide fleet flat out for `seconds` of wall
// clock with the service attached, while `pollers` concurrent
// keep-alive connections (multiplexed over a few client threads with
// nonblocking sockets) cycle /metrics, /health, and /lanes/<i>/window.
// Every response is verified end to end: HTTP 200, the body's FNV
// checksum recomputed, and `complete_epoch` monotone per connection.
//
// Exit status is the CI gate: nonzero when any row was not folded
// (ingest rows != steps x lanes), any checksum mismatched (a torn
// read), any epoch went backwards, or any request failed.  Ingest
// throughput [rows/s] and query latency percentiles are printed and,
// with `json_out`, recorded for the bench artifact.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "sim/fleet.hpp"
#include "telemetry_service/service.hpp"
#include "workload/profile.hpp"

namespace {

using namespace ltsc;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Shared verdict counters across every client thread.
struct poll_stats {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> http_errors{0};
    std::atomic<std::uint64_t> torn_reads{0};
    std::atomic<std::uint64_t> epoch_regressions{0};
    std::atomic<std::uint64_t> connect_failures{0};
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

/// Extracts `"complete_epoch":N` (0 when the field is absent).
std::uint64_t parse_epoch(const std::string& body) {
    const std::size_t pos = body.find("\"complete_epoch\":");
    if (pos == std::string::npos) {
        return 0;
    }
    return std::strtoull(body.c_str() + pos + 17, nullptr, 10);
}

/// One keep-alive poller connection's state machine.
struct poller_conn {
    int fd = -1;
    std::string inbuf;
    std::string outbuf;      ///< Unsent request bytes.
    bool in_flight = false;  ///< Awaiting a response.
    bool sees_epoch = false; ///< Current request's body carries complete_epoch.
    std::uint64_t last_epoch = 0;
    std::size_t endpoint = 0;
    clock_type::time_point sent_at;
};

/// A few of these threads multiplex `conns` nonblocking keep-alive
/// connections each — thousands of pollers without thousands of threads.
void poller_thread(std::uint16_t port, std::size_t conns, std::size_t lanes,
                   std::size_t thread_index, const std::atomic<bool>& stop,
                   poll_stats& stats, std::vector<double>& latencies_ms) {
    std::vector<poller_conn> cs(conns);
    for (std::size_t i = 0; i < conns; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
            stats.connect_failures.fetch_add(1, std::memory_order_relaxed);
            if (fd >= 0) {
                ::close(fd);
            }
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        cs[i].fd = fd;
        cs[i].endpoint = (thread_index + i) % 3;
    }
    cs.erase(std::remove_if(cs.begin(), cs.end(),
                            [](const poller_conn& c) { return c.fd < 0; }),
             cs.end());

    std::uint64_t lane_cursor = thread_index * 7919;
    const auto next_request = [&](poller_conn& c) {
        std::string path;
        switch (c.endpoint) {
            case 0: path = "/metrics"; c.sees_epoch = true; break;
            case 1: path = "/health"; c.sees_epoch = true; break;
            default:
                lane_cursor = lane_cursor * 6364136223846793005ULL + 1442695040888963407ULL;
                path = "/lanes/" + std::to_string(lane_cursor % lanes) + "/window";
                c.sees_epoch = false;
                break;
        }
        c.endpoint = (c.endpoint + 1) % 3;
        c.outbuf = "GET " + path + " HTTP/1.1\r\nHost: soak\r\n\r\n";
        c.in_flight = true;
        c.sent_at = clock_type::now();
    };
    for (auto& c : cs) {
        next_request(c);
    }

    std::vector<struct pollfd> pfds;
    while (!stop.load(std::memory_order_acquire) && !cs.empty()) {
        pfds.clear();
        for (const auto& c : cs) {
            short events = POLLIN;
            if (!c.outbuf.empty()) {
                events |= POLLOUT;
            }
            pfds.push_back({c.fd, events, 0});
        }
        if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 100) <= 0) {
            continue;
        }
        for (std::size_t i = cs.size(); i-- > 0;) {
            poller_conn& c = cs[i];
            const short revents = pfds[i].revents;
            bool dead = (revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
            if (!dead && (revents & POLLOUT) != 0 && !c.outbuf.empty()) {
                const ssize_t n =
                    ::send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
                if (n > 0) {
                    c.outbuf.erase(0, static_cast<std::size_t>(n));
                } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                           errno != EINTR) {
                    dead = true;
                }
            }
            if (!dead && (revents & POLLIN) != 0) {
                char buf[8192];
                for (;;) {
                    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
                    if (n > 0) {
                        c.inbuf.append(buf, static_cast<std::size_t>(n));
                        continue;
                    }
                    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                        break;
                    }
                    if (n < 0 && errno == EINTR) {
                        continue;
                    }
                    dead = true;
                    break;
                }
            }
            // Consume every complete response buffered so far.
            while (!dead && c.in_flight) {
                const std::size_t head_end = c.inbuf.find("\r\n\r\n");
                if (head_end == std::string::npos) {
                    break;
                }
                const std::size_t cl = c.inbuf.find("Content-Length: ");
                if (cl == std::string::npos || cl > head_end) {
                    dead = true;
                    break;
                }
                const std::size_t body_len =
                    std::strtoull(c.inbuf.c_str() + cl + 16, nullptr, 10);
                if (c.inbuf.size() < head_end + 4 + body_len) {
                    break;  // Body still streaming in.
                }
                const double ms = seconds_since(c.sent_at) * 1e3;
                const std::string body = c.inbuf.substr(head_end + 4, body_len);
                const bool ok200 = c.inbuf.compare(9, 3, "200") == 0;
                c.inbuf.erase(0, head_end + 4 + body_len);
                stats.requests.fetch_add(1, std::memory_order_relaxed);
                latencies_ms.push_back(ms);
                if (!ok200) {
                    stats.http_errors.fetch_add(1, std::memory_order_relaxed);
                } else if (!checksum_ok(body)) {
                    stats.torn_reads.fetch_add(1, std::memory_order_relaxed);
                } else if (c.sees_epoch) {
                    const std::uint64_t epoch = parse_epoch(body);
                    if (epoch < c.last_epoch) {
                        stats.epoch_regressions.fetch_add(1, std::memory_order_relaxed);
                    }
                    c.last_epoch = epoch;
                }
                c.in_flight = false;
                next_request(c);
            }
            if (dead) {
                ::close(c.fd);
                cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(i));
                stats.connect_failures.fetch_add(1, std::memory_order_relaxed);
            }
        }
    }
    for (const auto& c : cs) {
        ::close(c.fd);
    }
}

double percentile(std::vector<double>& v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    const std::size_t k = std::min(
        v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return v[k];
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t lanes = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10000;
    const std::size_t pollers = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1000;
    const double duration_s = argc > 3 ? std::strtod(argv[3], nullptr) : 60.0;
    const char* json_out = argc > 4 ? argv[4] : nullptr;

    std::printf("telemetry soak: %zu lanes, %zu pollers, %.0f s\n", lanes, pollers,
                duration_s);

    sim::fleet fleet(sim::paper_server(), lanes);
    workload::utilization_profile profile("soak");
    profile.constant(55.0, util::seconds_t{1e9});
    for (std::size_t l = 0; l < lanes; ++l) {
        fleet.bind_workload(l, profile);
    }
    fleet.force_cold_start();
    std::printf("fleet: %zu shards on %zu threads\n", fleet.shard_count(),
                fleet.thread_count());

    telemetry_service::service_config cfg;
    cfg.http_threads = 4;
    telemetry_service::service svc(fleet, cfg);

    const std::size_t client_threads =
        std::min<std::size_t>(8, std::max<std::size_t>(1, pollers / 128));
    poll_stats stats;
    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> latencies(client_threads);
    std::vector<std::thread> clients;
    clients.reserve(client_threads);
    for (std::size_t t = 0; t < client_threads; ++t) {
        const std::size_t share =
            pollers / client_threads + (t < pollers % client_threads ? 1 : 0);
        clients.emplace_back(poller_thread, svc.http_port(), share, lanes, t,
                             std::cref(stop), std::ref(stats), std::ref(latencies[t]));
    }

    // Step the plant flat out for the soak window.  Lane traces are
    // cleared periodically so the arena stays bounded: the service folds
    // each row-group during the step that appends it, so a clear
    // between steps loses nothing.
    const auto t0 = clock_type::now();
    std::uint64_t steps = 0;
    while (seconds_since(t0) < duration_s) {
        fleet.step(util::seconds_t{1.0});
        ++steps;
        if (steps % 64 == 0) {
            for (std::size_t l = 0; l < lanes; ++l) {
                fleet.clear_trace(l);
            }
        }
    }
    const double sim_elapsed = seconds_since(t0);
    stop.store(true, std::memory_order_release);
    for (auto& c : clients) {
        c.join();
    }

    const telemetry_service::ingest_stats ingest = svc.stats();
    const telemetry_service::fleet_snapshot snap = svc.metrics();
    std::vector<double> all;
    for (const auto& v : latencies) {
        all.insert(all.end(), v.begin(), v.end());
    }
    const double p50 = percentile(all, 0.50);
    const double p95 = percentile(all, 0.95);
    const double p99 = percentile(all, 0.99);
    const double rows_per_s = static_cast<double>(ingest.rows) / sim_elapsed;
    const double req_per_s = static_cast<double>(stats.requests.load()) / sim_elapsed;

    std::printf("steps             %llu (%.1f/s)\n",
                static_cast<unsigned long long>(steps),
                static_cast<double>(steps) / sim_elapsed);
    std::printf("ingest rows       %llu (%.3g rows/s)\n",
                static_cast<unsigned long long>(ingest.rows), rows_per_s);
    std::printf("row-groups        published=%llu applied=%llu dropped=%llu\n",
                static_cast<unsigned long long>(ingest.published_groups),
                static_cast<unsigned long long>(ingest.applied_groups),
                static_cast<unsigned long long>(ingest.dropped_groups));
    std::printf("complete_epoch    %llu\n",
                static_cast<unsigned long long>(snap.complete_epoch));
    std::printf("requests          %llu (%.1f/s), errors=%llu\n",
                static_cast<unsigned long long>(stats.requests.load()), req_per_s,
                static_cast<unsigned long long>(stats.http_errors.load()));
    std::printf("torn reads        %llu, epoch regressions %llu, conn failures %llu\n",
                static_cast<unsigned long long>(stats.torn_reads.load()),
                static_cast<unsigned long long>(stats.epoch_regressions.load()),
                static_cast<unsigned long long>(stats.connect_failures.load()));
    std::printf("query latency ms  p50=%.2f p95=%.2f p99=%.2f\n", p50, p95, p99);

    if (json_out != nullptr) {
        FILE* f = std::fopen(json_out, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "error: cannot write %s\n", json_out);
            return 2;
        }
        std::fprintf(f,
                     "{\"lanes\":%zu,\"pollers\":%zu,\"duration_s\":%.3f,"
                     "\"steps\":%llu,\"ingest_rows_per_s\":%.1f,"
                     "\"published_groups\":%llu,\"applied_groups\":%llu,"
                     "\"dropped_groups\":%llu,\"requests\":%llu,"
                     "\"requests_per_s\":%.1f,\"http_errors\":%llu,"
                     "\"torn_reads\":%llu,\"epoch_regressions\":%llu,"
                     "\"connect_failures\":%llu,\"query_p50_ms\":%.3f,"
                     "\"query_p95_ms\":%.3f,\"query_p99_ms\":%.3f}\n",
                     lanes, pollers, sim_elapsed,
                     static_cast<unsigned long long>(steps), rows_per_s,
                     static_cast<unsigned long long>(ingest.published_groups),
                     static_cast<unsigned long long>(ingest.applied_groups),
                     static_cast<unsigned long long>(ingest.dropped_groups),
                     static_cast<unsigned long long>(stats.requests.load()), req_per_s,
                     static_cast<unsigned long long>(stats.http_errors.load()),
                     static_cast<unsigned long long>(stats.torn_reads.load()),
                     static_cast<unsigned long long>(stats.epoch_regressions.load()),
                     static_cast<unsigned long long>(stats.connect_failures.load()),
                     p50, p95, p99);
        std::fclose(f);
        std::printf("wrote %s\n", json_out);
    }

    const bool failed = ingest.rows != steps * lanes || stats.torn_reads.load() > 0 ||
                        stats.epoch_regressions.load() > 0 ||
                        stats.http_errors.load() > 0 || stats.requests.load() == 0;
    if (failed) {
        std::fprintf(stderr, "SOAK FAILED\n");
        return 1;
    }
    std::printf("SOAK OK\n");
    return 0;
}
