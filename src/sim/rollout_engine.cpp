#include "sim/rollout_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ltsc::sim {

namespace {

std::size_t checked_candidates(std::size_t max_candidates) {
    util::ensure(max_candidates >= 1, "rollout_engine: need at least one candidate lane");
    return max_candidates;
}

}  // namespace

rollout_engine::rollout_engine(const server_config& config, std::size_t max_candidates)
    : batch_(config, checked_candidates(max_candidates)) {}

void rollout_engine::bind_workload(const workload::loadgen& workload) {
    for (std::size_t l = 0; l < batch_.lane_count(); ++l) {
        batch_.bind_workload(l, workload);
    }
    workload_bound_ = true;
}

void rollout_engine::bind_fault_schedule(const fault_schedule& schedule) {
    for (std::size_t l = 0; l < batch_.lane_count(); ++l) {
        batch_.bind_fault_schedule(l, schedule);
    }
}

void rollout_engine::clear_fault_schedule() {
    for (std::size_t l = 0; l < batch_.lane_count(); ++l) {
        batch_.clear_fault_schedule(l);
    }
}

const rollout_result& rollout_engine::evaluate(const server_state& start,
                                               const std::vector<fan_schedule>& candidates,
                                               const rollout_options& options) {
    const std::size_t k = candidates.size();
    util::ensure(k >= 1, "rollout_engine::evaluate: no candidates");
    util::ensure(k <= batch_.lane_count(), "rollout_engine::evaluate: more candidates than lanes");
    util::ensure(workload_bound_, "rollout_engine::evaluate: no workload bound");
    util::ensure(options.horizon.value() > 0.0, "rollout_engine::evaluate: non-positive horizon");
    util::ensure(options.epoch.value() > 0.0, "rollout_engine::evaluate: non-positive epoch");
    util::ensure(options.sim_dt.value() > 0.0, "rollout_engine::evaluate: non-positive sim_dt");
    for (const fan_schedule& c : candidates) {
        util::ensure(!c.moves.empty(), "rollout_engine::evaluate: empty candidate schedule");
    }

    // Clone the plant across the candidate lanes; park the rest.
    for (std::size_t l = 0; l < k; ++l) {
        batch_.load_lane_state(l, start);
    }
    for (std::size_t l = k; l < batch_.lane_count(); ++l) {
        batch_.set_lane_active(l, false);
    }

    rollout_result& out = result_;
    out.best = 0;
    out.scores.assign(k, candidate_score{});

    const double dt = options.sim_dt.value();
    const double horizon = options.horizon.value();
    const double epoch = options.epoch.value();
    // Same loop shape as run_controlled, but scheduled on integer step
    // counts: accumulating `elapsed += dt` drifts by an ulp per step, and
    // over a long horizon the drifted comparison against the next epoch
    // boundary can skip or double-apply a move.  Both the step budget and
    // the move instants are derived from the step index instead, so move
    // placement is exact for any horizon/epoch/dt combination.
    const long total_steps = static_cast<long>(std::ceil(horizon / dt - 1e-9));
    long next_move_step = 0;
    std::size_t move_idx = 0;
    std::size_t live = k;
    for (long step = 0; step < total_steps && live > 0; ++step) {
        if (step >= next_move_step) {
            for (std::size_t l = 0; l < k; ++l) {
                if (out.scores[l].guarded) {
                    continue;
                }
                const std::vector<util::rpm_t>& moves = candidates[l].moves;
                batch_.set_all_fans(l, moves[std::min(move_idx, moves.size() - 1)]);
            }
            ++move_idx;
            next_move_step =
                static_cast<long>(std::ceil(static_cast<double>(move_idx) * epoch / dt - 1e-9));
        }
        batch_.step(util::seconds_t{dt});
        for (std::size_t l = 0; l < k; ++l) {
            candidate_score& sc = out.scores[l];
            if (sc.guarded) {
                continue;
            }
            ++sc.steps;
            const double t_max = std::max(batch_.true_cpu_temp(l, 0).value(),
                                          batch_.true_cpu_temp(l, 1).value());
            sc.peak_temp_c = std::max(sc.peak_temp_c, t_max);
            if (t_max > options.guard_temp_c) {
                // Disqualified: stop spending substeps on this lane.
                sc.guarded = true;
                batch_.set_lane_active(l, false);
                --live;
            }
        }
    }

    for (std::size_t l = 0; l < k; ++l) {
        candidate_score& sc = out.scores[l];
        const util::column_view power = batch_.trace(l).total_power();
        double energy = 0.0;
        for (std::size_t i = 0; i < power.size(); ++i) {
            energy += power.v(i) * dt;
        }
        sc.energy_j = energy;
        sc.score_j = energy;
        if (sc.guarded) {
            sc.score_j +=
                options.guard_penalty_j +
                options.overshoot_weight_j_per_k * (sc.peak_temp_c - options.guard_temp_c);
        }
        if (sc.score_j < out.scores[out.best].score_j) {
            out.best = l;
        }
    }
    return out;
}

}  // namespace ltsc::sim
