#pragma once

// Per-layer probes for the traced run. Each builds a fresh program, so a
// cache warmed by one call cannot flatter the next, and times exactly one
// call into one layer's public functions. Steps are BDD op-cache lookups
// (one per recursion step) made during that call.

#include <cstddef>
#include <cstdint>

#include "workloads.hpp"

namespace rb {

struct Probe {
  double seconds = 0.0;
  std::uint64_t steps = 0;
  Probe& operator+=(const Probe& other) {
    seconds += other.seconds;
    steps += other.steps;
    return *this;
  }
};

/// symbolic: DistributedProgram::reachable_under_faults() (Step 1's search
/// space).
[[nodiscard]] Probe probe_reach(const Instance& instance);
/// symbolic: Space::backward_reachable(δ_P, S), the program's own
/// convergence to S. With the faults added (δ_P ∪ f) every frontier is a
/// hard set: Sc^10 takes 1.7 s and Sc^20 does not finish in 30 s.
[[nodiscard]] Probe probe_backreach(const Instance& instance);
/// repair: realize() on add_masking()'s output, as lazy_repair's first
/// round computes them. Throws when Step 1 fails.
[[nodiscard]] Probe probe_realize(const Instance& instance);
/// repair: lazy_repair/cautious_repair seconds at `intra_jobs` workers.
[[nodiscard]] double probe_repair_seconds(const Instance& instance,
                                          std::size_t intra_jobs);

}  // namespace rb
