#pragma once

// The benchmark's workloads, their instances and known answers, and the
// passes that run them. See ../README.md for why each workload exists.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "program/distributed_program.hpp"
#include "repair/types.hpp"
#include "spans.hpp"

namespace rb {

/// What an instance's repair must reproduce: |Reach(S, δ_P ∪ f)|, |S'|,
/// |T'| and the transition count of the repaired δ' = ∪_j δ_j, recorded
/// from a verified run. A negative expected field is not checked, nor is
/// an observed transition count left negative by a batch pass (run_batch
/// does not hand δ' back).
struct Answer {
  double reachable = -1.0;
  double invariant = -1.0;
  double span = -1.0;
  double transitions = -1.0;
};

enum class Algorithm { kLazy, kCautious };

struct Instance {
  std::string name;  ///< table row, e.g. "BA^6"
  Algorithm algorithm = Algorithm::kLazy;
  lr::repair::GroupMethod method = lr::repair::GroupMethod::kPaperLoop;
  std::function<std::unique_ptr<lr::prog::DistributedProgram>()> make;
  Answer expected;
  /// State-space size, as repair_cli --batch predicts task cost: run_batch
  /// dispatches the most expensive tasks first.
  double predicted_cost = -1.0;

  /// Name, algorithm and group method: BA^6 appears four times.
  [[nodiscard]] std::string key() const;
  /// Default repair::Options apart from the group method.
  [[nodiscard]] lr::repair::Options options() const;
};

struct Workload {
  std::string name;
  std::vector<Instance> instances;
  /// 0: sequential direct calls (lazy_repair/cautious_repair, then
  /// verify_masking); >= 1: one repair::run_batch call at that many jobs.
  std::size_t jobs = 0;
  /// Key of the instance the realize and intra probes run on.
  std::string probe;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name. The instances are
/// the paper's fixed problems, so no input depends on a seed: shuffling
/// the sweep's task list moved its wall by 16-23 s through dispatch order
/// alone, which would measure the scheduler's luck, not the code.
[[nodiscard]] Workload make_workload(const std::string& name);
/// BA^3, lazy, group loop: the self-test's instance.
[[nodiscard]] Instance self_test_instance();

/// Empty when `observed` matches every checked field of `expected`,
/// otherwise a description of the first mismatch.
[[nodiscard]] std::string check_answer(const Answer& expected,
                                       const Answer& observed);

/// Exact counters that must not depend on tracing or repetition.
struct Counters {
  std::uint64_t lookups = 0;
  std::uint64_t created = 0;
  std::uint64_t group_iterations = 0;
  friend bool operator==(const Counters&, const Counters&) = default;
};

struct Outcome {
  std::string key;
  bool ok = false;
  std::string failure;  ///< why not ok
  lr::repair::Stats stats;
  Answer observed;
  double task_s = 0.0;    ///< repair + verify (+ build inside run_batch)
  double build_s = 0.0;   ///< construct + compile (direct passes only)
  double compile_s = 0.0; ///< first compile (direct passes only)
  double verify_s = 0.0;  ///< direct passes only
  std::uint64_t verify_steps = 0;  ///< direct passes only

  [[nodiscard]] Counters counters() const {
    return {stats.bdd.cache_lookups, stats.bdd.created_nodes,
            stats.group_iterations};
  }
};

struct Pass {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;   ///< compiled programs -> verified repairs
  double setup_s = -1.0; ///< construct + compile; < 0 inside run_batch
  [[nodiscard]] std::size_t failed() const;
};

/// Runs every instance of `workload` once with fresh programs. jobs == 0
/// builds and compiles each program (setup, untimed by wall_s), then
/// repairs and verifies it by direct calls; jobs >= 1 hands the task list
/// to one run_batch call, whose wall includes the in-task builds, exactly
/// as a `repair_cli --batch` user waits for it. With `spans` set, spans
/// are recorded around each call.
[[nodiscard]] Pass run_pass(const Workload& workload, std::size_t jobs,
                            Spans* spans);

/// Builds and compiles every program of the workload, dropping each after
/// it compiles; returns the seconds spent building and compiling.
[[nodiscard]] double run_setup(const Workload& workload);

}  // namespace rb
