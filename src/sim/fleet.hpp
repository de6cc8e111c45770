// Sharded fleet plant: N lanes partitioned across K server_batch
// shards stepped concurrently on a util::thread_pool.
//
// Lanes are assigned to shards in contiguous balanced blocks (shard 0
// gets lanes [0, n0), shard 1 gets [n0, n0+n1), ...), so shard-major
// result assembly *is* lane order and every per-lane result is
// independent of the shard count and thread count: lanes never share
// mutable state across shards, each shard owns its own batch_trace
// arena, and within a shard every server_batch lane is bitwise-equal
// to the same lane run alone whatever its batch neighbours.  Stepping fans the
// K shards out over the pool exactly like parallel_runner fans out
// scenarios — an atomic index handout whose schedule cannot affect
// results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/server_batch.hpp"
#include "util/thread_pool.hpp"

namespace ltsc::sim {

/// Fleet topology knobs.
struct fleet_config {
    /// Shard count; 0 means one shard per pool thread.  Clamped to the
    /// lane count.
    std::size_t shards = 0;
    /// Pool width (including the calling thread); 0 defers to
    /// LTSC_THREADS, falling back to one per hardware thread
    /// (parallel_runner::threads_from_env semantics).
    std::size_t threads = 0;
};

/// Observer of fleet stepping, called per shard per step.
///
/// Publication hook for the streaming telemetry service: after shard
/// `s` finishes a step, `on_shard_step` runs *on the pool thread that
/// stepped the shard*, before the step's barrier.  Calls for one shard
/// are serialized across steps by that barrier (a happens-before edge
/// even when the stepping thread changes), so a sink may keep per-shard
/// state that only these calls write — the telemetry service folds the
/// shard's new row-group into it in place, guarded against concurrent
/// readers by a per-shard lock.  The step waits for the callback, so its
/// cost lands on the step.  Implementations must not touch other shards
/// or the fleet itself from the callback.
class fleet_sink {
public:
    virtual ~fleet_sink() = default;
    virtual void on_shard_step(std::size_t shard, std::uint64_t epoch,
                               const server_batch& batch) = 0;
};

/// N simulated servers as K concurrently stepped server_batch shards.
class fleet {
public:
    /// N identical lanes from one configuration.
    fleet(const server_config& config, std::size_t lanes, fleet_config cfg = {});

    /// One lane per configuration (contiguous blocks per shard).
    explicit fleet(std::vector<server_config> configs, fleet_config cfg = {});

    fleet(const fleet&) = delete;
    fleet& operator=(const fleet&) = delete;

    [[nodiscard]] std::size_t lane_count() const { return lanes_; }
    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
    [[nodiscard]] std::size_t thread_count() const { return pool_.thread_count(); }

    // --- shard addressing ---------------------------------------------------
    [[nodiscard]] server_batch& shard(std::size_t s);
    [[nodiscard]] const server_batch& shard(std::size_t s) const;
    /// Shard owning global lane `lane`.
    [[nodiscard]] std::size_t shard_of(std::size_t lane) const;
    /// Lane index within its shard.
    [[nodiscard]] std::size_t local_lane(std::size_t lane) const;
    /// First global lane of shard `s` (offset(shard_count()) == lane_count()).
    [[nodiscard]] std::size_t shard_offset(std::size_t s) const;

    /// Runs `fn(s)` for every shard on the pool (deterministic result
    /// placement is the caller's job, as with thread_pool::run_indexed).
    void for_each_shard(const std::function<void(std::size_t)>& fn);

    // --- per-lane surface (global lane indices) -----------------------------
    void bind_workload(std::size_t lane, const workload::utilization_profile& profile);
    void bind_workload(std::size_t lane, workload::loadgen generator);
    void bind_fault_schedule(std::size_t lane, fault_schedule schedule);

    void set_fan_speed(std::size_t lane, std::size_t pair_index, util::rpm_t rpm);
    void set_all_fans(std::size_t lane, util::rpm_t rpm);
    [[nodiscard]] util::rpm_t average_fan_rpm(std::size_t lane) const;

    [[nodiscard]] double measured_utilization(std::size_t lane, util::seconds_t window) const;
    [[nodiscard]] util::celsius_t max_cpu_sensor_temp(std::size_t lane) const;
    [[nodiscard]] util::watts_t system_power_reading(std::size_t lane) const;
    [[nodiscard]] util::celsius_t true_avg_cpu_temp(std::size_t lane) const;
    [[nodiscard]] power::power_breakdown current_power(std::size_t lane) const;

    void set_ambient(std::size_t lane, util::celsius_t t);
    [[nodiscard]] util::celsius_t ambient(std::size_t lane) const;

    [[nodiscard]] util::seconds_t now(std::size_t lane) const;
    void set_lane_active(std::size_t lane, bool active);
    [[nodiscard]] bool lane_active(std::size_t lane) const;

    void force_cold_start(std::size_t lane);
    /// Cold-starts every lane (serial; cold start is setup, not stepping).
    void force_cold_start();
    void settle_at(std::size_t lane, double u_pct);

    [[nodiscard]] trace_view trace(std::size_t lane) const;
    void clear_trace(std::size_t lane);
    [[nodiscard]] const server_config& config(std::size_t lane) const;

    // --- time ---------------------------------------------------------------
    /// Advances every shard by `dt` concurrently on the pool.
    void step(util::seconds_t dt = util::seconds_t{1.0});
    void advance(util::seconds_t duration, util::seconds_t dt = util::seconds_t{1.0});

    // --- streaming publication ----------------------------------------------
    /// Attaches a per-shard-step publication sink (nullptr detaches).
    /// With no sink attached stepping is bitwise-identical to a fleet
    /// that never had one: the hook is a single branch per shard step
    /// and touches no plant state.  Attach/detach only while the fleet
    /// is quiescent (no step in flight).
    void attach_sink(fleet_sink* sink) { sink_ = sink; }
    [[nodiscard]] fleet_sink* sink() const { return sink_; }

    /// Completed fleet steps (the epoch stamped onto published
    /// row-groups; 0 before the first step).
    [[nodiscard]] std::uint64_t step_epoch() const { return epoch_; }

private:
    std::size_t lanes_ = 0;
    util::thread_pool pool_;
    std::vector<std::unique_ptr<server_batch>> shards_;
    std::vector<std::size_t> offsets_;  ///< [shard_count + 1] lane offsets.
    fleet_sink* sink_ = nullptr;        ///< Optional row-group publication hook.
    std::uint64_t epoch_ = 0;           ///< Completed fleet steps.
};

}  // namespace ltsc::sim
