#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <utility>

#include "casestudies/byzantine.hpp"
#include "casestudies/chain.hpp"
#include "repair/batch.hpp"
#include "repair/cautious.hpp"
#include "repair/lazy.hpp"
#include "repair/verify.hpp"
#include "support/stopwatch.hpp"

namespace rb {

namespace {

using lr::repair::GroupMethod;

/// Known answers, recorded from a verified run of every instance (all
/// repairs passed verify_masking). Keyed by Instance::key().
const std::map<std::string, Answer>& known_answers() {
  static const std::map<std::string, Answer> answers = {
#include "known_answers.inc"
  };
  return answers;
}

Instance byzantine(std::size_t n, bool fail_stop, Algorithm algorithm,
                   GroupMethod method) {
  Instance instance;
  instance.name = (fail_stop ? "BAFS^" : "BA^") + std::to_string(n);
  instance.algorithm = algorithm;
  instance.method = method;
  instance.make = [n, fail_stop] {
    return lr::cs::make_byzantine({.non_generals = n, .fail_stop = fail_stop});
  };
  return instance;
}

Instance chain(std::size_t length, GroupMethod method) {
  Instance instance;
  instance.name = "Sc^" + std::to_string(length);
  instance.method = method;
  instance.make = [length] {
    return lr::cs::make_chain({.length = length, .domain = 8});
  };
  return instance;
}

/// Tables I, II-a and II-b of the paper without Sc^35 (74 s on its own).
std::vector<Instance> paper_tables() {
  constexpr auto kLazy = Algorithm::kLazy;
  constexpr auto kCautious = Algorithm::kCautious;
  constexpr auto kLoop = GroupMethod::kPaperLoop;
  constexpr auto kOneShot = GroupMethod::kOneShot;
  std::vector<Instance> out;
  for (std::size_t n = 3; n <= 7; ++n) {
    out.push_back(byzantine(n, false, kLazy, kLoop));
  }
  for (std::size_t n = 3; n <= 6; ++n) {
    out.push_back(byzantine(n, false, kCautious, kLoop));
  }
  for (const std::size_t n : {6, 9, 12, 15}) {
    out.push_back(byzantine(n, false, kLazy, kOneShot));
    out.push_back(byzantine(n, false, kCautious, kOneShot));
  }
  for (std::size_t n = 3; n <= 5; ++n) {
    out.push_back(byzantine(n, true, kLazy, kLoop));
  }
  for (const std::size_t n : {4, 6, 8, 10, 12}) {
    out.push_back(byzantine(n, true, kLazy, kOneShot));
  }
  for (const std::size_t n : {4, 6}) {
    out.push_back(byzantine(n, true, kCautious, kOneShot));
  }
  for (const std::size_t length : {10, 15, 20, 25, 30}) {
    out.push_back(chain(length, kLoop));
  }
  for (const std::size_t length : {10, 20, 30}) {
    out.push_back(chain(length, kOneShot));
  }
  return out;
}

Instance with_answer(Instance instance) {
  const auto it = known_answers().find(instance.key());
  if (it != known_answers().end()) instance.expected = it->second;
  return instance;
}

/// Shared tail of both pass kinds: the observed answer, then the checks.
void judge(const Instance& instance, bool repaired,
           const std::string& repair_failure, bool verified, bool verify_ok,
           const std::vector<std::string>& verify_failures, Outcome& outcome) {
  outcome.observed.reachable = outcome.stats.reachable_states;
  outcome.observed.invariant = outcome.stats.invariant_states;
  outcome.observed.span = outcome.stats.span_states;
  if (!repaired) {
    outcome.failure = "repair failed: " + repair_failure;
  } else if (!verified) {
    outcome.failure = "not verified";
  } else if (!verify_ok) {
    outcome.failure = "verify_masking rejected the repair:";
    for (const std::string& failure : verify_failures) {
      outcome.failure += " " + failure;
    }
  } else {
    outcome.failure = check_answer(instance.expected, outcome.observed);
  }
  outcome.ok = outcome.failure.empty();
}

Outcome run_direct(const Instance& instance, Spans* spans, Spans::Id parent,
                   double& setup_s) {
  Outcome outcome;
  outcome.key = instance.key();
  const Scope scope(spans, "instance " + outcome.key, parent);
  try {
    lr::support::Stopwatch setup;
    std::unique_ptr<lr::prog::DistributedProgram> program;
    {
      const Scope construct(spans, "program.construct", scope.id());
      program = instance.make();
    }
    {
      const Scope compile(spans, "program.compile", scope.id());
      lr::support::Stopwatch watch;
      (void)program->program_delta();
      outcome.compile_s = watch.seconds();
    }
    outcome.build_s = setup.seconds();
    setup_s += outcome.build_s;

    lr::bdd::Manager& manager = program->space().manager();
    const lr::repair::Options options = instance.options();
    lr::support::Stopwatch task;
    lr::repair::RepairResult result;
    if (instance.algorithm == Algorithm::kLazy) {
      const Scope repair(spans, "repair.lazy_repair", scope.id());
      result = lr::repair::lazy_repair(*program, options);
    } else {
      const Scope repair(spans, "repair.cautious_repair", scope.id());
      result = lr::repair::cautious_repair(*program, options);
    }
    lr::repair::VerifyReport report;
    if (result.success) {
      const Scope verify(spans, "verify.verify_masking", scope.id());
      const std::uint64_t before = manager.stats().cache_lookups;
      lr::support::Stopwatch watch;
      report = lr::repair::verify_masking(*program, result, options.level);
      outcome.verify_s = watch.seconds();
      outcome.verify_steps = manager.stats().cache_lookups - before;
    }
    outcome.task_s = task.seconds();
    outcome.stats = result.stats;
    if (result.success) {
      outcome.observed.transitions =
          program->space().count_transitions(result.delta);
    }
    judge(instance, result.success, result.failure_reason, result.success,
          report.ok, report.failures, outcome);
  } catch (const std::exception& error) {
    outcome.failure = std::string("threw: ") + error.what();
    outcome.ok = false;
  }
  return outcome;
}

Pass run_batch_pass(const Workload& workload, std::size_t jobs, Spans* spans) {
  const std::vector<Instance>& instances = workload.instances;
  // Written by the worker that builds task i, read after run_batch returns.
  std::vector<double> starts(instances.size(), 0.0);
  std::vector<lr::repair::BatchTask> tasks;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    lr::repair::BatchTask task;
    task.name = instance.name;
    task.algorithm = instance.algorithm == Algorithm::kCautious
                         ? lr::repair::BatchTask::Algorithm::kCautious
                         : lr::repair::BatchTask::Algorithm::kLazy;
    task.options = instance.options();
    task.verify = true;
    task.predicted_cost = instance.predicted_cost;
    task.make_program = [&instance, &starts, spans, i] {
      if (spans != nullptr) starts[i] = spans->now();
      return instance.make();
    };
    tasks.push_back(std::move(task));
  }
  lr::repair::BatchOptions options;
  options.jobs = jobs;
  options.record_metrics = false;

  Pass pass;
  const Scope scope(spans, "batch.run_batch");
  lr::support::Stopwatch wall;
  const lr::repair::BatchReport report = lr::repair::run_batch(tasks, options);
  pass.wall_s = wall.seconds();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const lr::repair::BatchItemResult& item = report.items.at(i);
    Outcome outcome;
    outcome.key = instances[i].key();
    outcome.stats = item.stats;
    outcome.task_s = item.seconds;
    if (spans != nullptr) {
      spans->add("batch.task " + outcome.key, scope.id(), starts[i],
                 starts[i] + item.seconds);
    }
    if (item.build_ok) {
      judge(instances[i], item.success, item.failure_reason, item.verified,
            item.verify_ok, item.verify_failures, outcome);
    } else {
      outcome.failure = "threw: " + item.failure_reason;
    }
    pass.outcomes.push_back(std::move(outcome));
  }
  return pass;
}

}  // namespace

std::string Instance::key() const {
  return name + (algorithm == Algorithm::kLazy ? " lazy" : " cautious") +
         (method == GroupMethod::kOneShot ? " one-shot" : " loop");
}

lr::repair::Options Instance::options() const {
  lr::repair::Options options;
  options.group_method = method;
  return options;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"chain_tail", "byz_groups",
                                                 "paper_sweep"};
  return names;
}

Workload make_workload(const std::string& name) {
  Workload workload;
  workload.name = name;
  if (name == "chain_tail") {
    workload.instances.push_back(chain(33, GroupMethod::kPaperLoop));
  } else if (name == "byz_groups") {
    workload.instances.push_back(
        byzantine(7, false, Algorithm::kLazy, GroupMethod::kPaperLoop));
  } else if (name == "paper_sweep") {
    workload.instances = paper_tables();
    workload.jobs = 3;
    // A Table I group-loop row that is not byz_groups' BA^7, and cheap
    // enough to keep the traced sweep well inside its time limit.
    workload.probe =
        byzantine(6, false, Algorithm::kLazy, GroupMethod::kPaperLoop).key();
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  std::vector<Instance>& list = workload.instances;
  for (Instance& instance : list) {
    instance = with_answer(std::move(instance));
    instance.predicted_cost = instance.make()->space().state_space_size();
  }
  if (workload.probe.empty()) workload.probe = list.front().key();
  return workload;
}

Instance self_test_instance() {
  return with_answer(
      byzantine(3, false, Algorithm::kLazy, GroupMethod::kPaperLoop));
}

std::string check_answer(const Answer& expected, const Answer& observed) {
  const std::pair<const char*, std::pair<double, double>> fields[] = {
      {"|Reach(S, delta_P u f)|", {expected.reachable, observed.reachable}},
      {"|S'|", {expected.invariant, observed.invariant}},
      {"|T'|", {expected.span, observed.span}},
      {"transitions of delta'", {expected.transitions, observed.transitions}},
  };
  bool checked_any = false;
  for (const auto& [label, values] : fields) {
    const auto [want, got] = values;
    // Batch passes cannot count delta' (see Answer) and leave it negative.
    if (want < 0.0 || (&values == &fields[3].second && got < 0.0)) continue;
    checked_any = true;
    if (want != got) {
      char text[160];
      std::snprintf(text, sizeof text,
                    "known answer mismatch: %s is %.17g, expected %.17g", label,
                    got, want);
      return text;
    }
  }
  return checked_any ? std::string() : std::string("no known answer recorded");
}

std::size_t Pass::failed() const {
  std::size_t n = 0;
  for (const Outcome& outcome : outcomes) n += outcome.ok ? 0 : 1;
  return n;
}

Pass run_pass(const Workload& workload, std::size_t jobs, Spans* spans) {
  if (jobs >= 1) return run_batch_pass(workload, jobs, spans);
  Pass pass;
  pass.setup_s = 0.0;
  const Scope scope(spans, "sequential");
  for (const Instance& instance : workload.instances) {
    pass.outcomes.push_back(run_direct(instance, spans, scope.id(), pass.setup_s));
    pass.wall_s += pass.outcomes.back().task_s;
  }
  return pass;
}

double run_setup(const Workload& workload) {
  double seconds = 0.0;
  for (const Instance& instance : workload.instances) {
    lr::support::Stopwatch watch;
    const std::unique_ptr<lr::prog::DistributedProgram> program = instance.make();
    (void)program->program_delta();
    seconds += watch.seconds();
  }
  return seconds;
}

}  // namespace rb
