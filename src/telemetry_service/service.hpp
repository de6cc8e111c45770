// Streaming telemetry service: the columnar store goes online.
//
// Attaching a `service` to a `sim::fleet` turns the simulator into a
// system under observation while it runs:
//
//   pool thread stepping shard s ──append──▶ shard s batch_trace arena
//                │                                    │
//                └──fold the new row-group in place ◀─┘
//                                 │ (shard s lock)
//                                 ▼
//   HTTP pollers ◀──serve── snapshot reads ◀── shard s online state
//
//  * Ingestion: each shard owns the online state of its own lanes.
//    After a shard step, the pool thread that stepped it folds the
//    freshly appended row-group straight out of the shard's trace
//    arena, under that shard's lock only: nothing is copied, queued or
//    dropped, so ingest is lossless by construction.  A fleet with no
//    sink attached is bitwise-identical to one that never had a
//    service (pinned by TelemetryService.AttachedFleetTracesBitwiseIdentical).
//  * Epochs: each shard records the fleet step of the newest group it
//    folded.  `complete_epoch` (the min across shards) names the newest
//    fleet step every shard has reached — the snapshot-consistency
//    watermark.
//  * Queries: a shard's state changes a whole row-group at a time under
//    its lock, and reads take that lock shared, so a response never
//    shows a torn step.  Fleet rollups visit the shards in index order,
//    so sums such as `closed_energy_kwh` do not depend on scheduling.
//    Serialized JSON carries an FNV-1a checksum over the body prefix
//    that clients (and the soak gate) re-verify end to end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "sim/fleet.hpp"
#include "telemetry_service/http_server.hpp"
#include "telemetry_service/online_metrics.hpp"

namespace ltsc::telemetry_service {

struct service_config {
    online_config online;     ///< Window size, guard line, margin grid.
    std::size_t http_threads = 2;
    std::uint16_t port = 0;   ///< 0 picks an ephemeral port.
    bool enable_http = true;  ///< False: ingest/aggregate only.
};

/// Ingestion counters (monotone; readable any time).  Every row-group
/// is folded on the step that appends it, so published == applied and
/// nothing is ever dropped; all three names are kept for clients.
struct ingest_stats {
    std::uint64_t published_groups = 0;  ///< Row-groups folded into state.
    std::uint64_t dropped_groups = 0;    ///< Always 0.
    std::uint64_t applied_groups = 0;    ///< Row-groups folded into state.
    std::uint64_t rows = 0;              ///< Lane-rows folded into state.
};

/// A view of the fleet's online metrics; each shard's part is whole
/// (never a torn step).
struct fleet_snapshot {
    std::size_t lanes = 0;
    std::size_t shards = 0;
    std::uint64_t complete_epoch = 0;  ///< Newest step every shard reached.
    std::vector<std::uint64_t> shard_epochs;
    std::uint64_t rows = 0;
    std::uint64_t row_groups = 0;
    std::uint64_t closed_windows = 0;
    std::uint64_t guard_trip_rows = 0;
    std::uint64_t sensor_alarm_rows = 0;
    std::uint64_t fan_alarm_rows = 0;
    double closed_energy_kwh = 0.0;  ///< Shard-order sum of shard sums.
    double max_temp_c = 0.0;   ///< 0 until the first row arrives.
    double margin_p01_c = 0.0; ///< Thermal margin percentiles (0 until rows).
    double margin_p50_c = 0.0;
    double margin_p99_c = 0.0;
};

class service final : public sim::fleet_sink {
public:
    /// Attaches to `fleet` (which must have no sink) and, per config,
    /// starts the HTTP endpoint.  The fleet must outlive the service;
    /// attach and destroy only while the fleet is quiescent.
    explicit service(sim::fleet& fleet, service_config cfg = {});
    ~service() override;

    service(const service&) = delete;
    service& operator=(const service&) = delete;

    /// Publication hook (fleet_sink): folds the shard's new row-group on
    /// the fleet pool thread that stepped it.
    void on_shard_step(std::size_t shard, std::uint64_t epoch,
                       const sim::server_batch& batch) override;

    // --- snapshot reads (thread-safe) ---------------------------------------
    [[nodiscard]] fleet_snapshot metrics() const;
    [[nodiscard]] lane_window lane_window_snapshot(std::size_t lane) const;
    [[nodiscard]] ingest_stats stats() const;

    /// JSON bodies of the HTTP endpoints (exposed so tests and the
    /// ingest bench can bypass sockets).
    [[nodiscard]] std::string metrics_json() const;
    [[nodiscard]] std::string health_json() const;
    [[nodiscard]] std::string lane_window_json(std::size_t lane) const;

    [[nodiscard]] std::uint16_t http_port() const;
    [[nodiscard]] std::uint64_t requests_served() const;

    /// Returns at once: every row-group is folded before its fleet step
    /// returns, so there is never a backlog.  Kept for API compatibility.
    void drain() const {}

    /// FNV-1a 64 over `s` (the JSON body checksum clients re-verify).
    [[nodiscard]] static std::uint64_t fnv1a(const std::string& s);

private:
    /// One shard's online state: written by the pool thread that steps
    /// the shard, read by queries, each under `mutex`.
    struct shard_state {
        shard_state(std::size_t lanes, const online_config& cfg) : online(lanes, cfg) {}
        mutable std::shared_mutex mutex;
        online_state online;
        std::uint64_t epoch = 0;          ///< Fleet step of the newest folded group.
        std::uint64_t last_appended = 0;  ///< Arena watermark (stepping thread only).
    };

    bool handle(const std::string& path, std::string& body);

    sim::fleet& fleet_;
    service_config cfg_;
    std::vector<std::unique_ptr<shard_state>> shards_;
    std::unique_ptr<http_server> http_;  ///< Last: stops before the state goes.
};

}  // namespace ltsc::telemetry_service
