// The repairbench binary (see ../README.md for the workloads, the metrics
// and which layer each metric belongs to).
//
//   repairbench --workload=NAME [--seed=N] [--seconds=N] [--trace=0|1]
//               [--trace-out=FILE] [--git-sha=SHA] [--source-sha256=HASH]
//
// --trace=0 repeats the workload on fresh programs for --seconds and prints
// the end-to-end metrics; --trace=1 runs it untraced once, traced once, then
// probes each layer on fresh programs and prints the per-layer metrics. The
// last line of stdout is always the JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "support/cli.hpp"
#include "support/stopwatch.hpp"
#include "workloads.hpp"

namespace {

/// Setup is short, so every end-to-end run takes at least this many setup
/// samples, spending at least kSetupSeconds on them, and reports their
/// median.
constexpr std::size_t kSetupSamples = 5;
constexpr double kSetupSeconds = 1.0;
/// Workers for the intra.speedup probe (the sweep runs at 3 jobs too).
constexpr std::size_t kIntraJobs = 3;

const std::vector<lr::support::FlagSpec>& flag_specs() {
  static const std::vector<lr::support::FlagSpec> specs = {
      {"workload", "NAME", "workload to run (required; see below)"},
      {"seed", "N", "stamped on the report; the workloads are fixed problems"},
      {"seconds", "N", "measure for at least N seconds (default 10)"},
      {"trace", "0|1",
       "0: end-to-end metrics; 1: traced run with per-layer metrics"},
      {"trace-out", "FILE", "write the traced run's spans here as JSON"},
      {"git-sha", "SHA", "commit stamped on the report"},
      {"source-sha256", "HASH", "source-tree hash stamped on the report"},
      {"help", "", "print this text and exit"},
  };
  return specs;
}

void print_help() {
  std::printf(
      "usage: repairbench --workload=NAME [--seed=N] [--seconds=N] "
      "[--trace=0|1]\n\nflags:\n%s\nworkloads:\n",
      lr::support::format_flag_help(flag_specs()).c_str());
  for (const std::string& name : rb::workload_names()) {
    std::printf("  %s\n", name.c_str());
  }
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "repairbench: %s (see --help)\n", message.c_str());
  return 2;
}

std::optional<std::int64_t> parse_int(const std::string& text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  std::int64_t seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

constexpr const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "g++ " __VERSION__;
#else
  return "unknown";
#endif
}

constexpr bool optimized_build() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return std::string_view(REPAIRBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

void print_fingerprint(const Config& config) {
  std::printf(
      "fingerprint {\"cpu\": %s, \"nproc\": %u, \"compiler\": %s, "
      "\"build_type\": %s, \"git_sha\": %s, \"source_sha256\": %s, "
      "\"cache_log2\": %u, \"workload\": %s, \"seed\": %llu, \"seconds\": "
      "%lld, \"trace\": %d}\n",
      rb::json_string(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      rb::json_string(compiler()).c_str(),
      rb::json_string(REPAIRBENCH_BUILD_TYPE).c_str(),
      rb::json_string(config.git_sha).c_str(),
      rb::json_string(config.source_sha256).c_str(),
      lr::bdd::Manager::Options{}.cache_log2,
      rb::json_string(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      static_cast<long long>(config.seconds), config.trace ? 1 : 0);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char value[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof value, "%.10g", metrics[i].value);
    json += (i == 0 ? "" : ", ") + rb::json_string(metrics[i].name) +
            ": {\"value\": " + value +
            ", \"unit\": " + rb::json_string(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
}

/// Prints each failed instance; for a wrong or missing known answer, also
/// the observed one in known_answers.inc's format.
void report_failures(const rb::Pass& pass) {
  for (const rb::Outcome& outcome : pass.outcomes) {
    if (outcome.ok) continue;
    std::printf("FAILED %s: %s\n", outcome.key.c_str(), outcome.failure.c_str());
    const rb::Answer& a = outcome.observed;
    if (outcome.failure.find("known answer") != std::string::npos) {
      std::printf("  observed: {\"%s\", {%.17g, %.17g, %.17g, %.17g}},\n",
                  outcome.key.c_str(), a.reachable, a.invariant, a.span,
                  a.transitions);
    }
  }
}

/// Puts the self-test instance through the workload's own code path twice:
/// its exact counters and results must repeat, and a deliberately wrong
/// known answer must be reported as a failure. These check the benchmark;
/// a wrong result from the program is the workloads' to report.
bool self_test(const rb::Workload& workload) {
  rb::Workload small{"self_test", {rb::self_test_instance()}, workload.jobs, ""};
  const rb::Pass first = rb::run_pass(small, workload.jobs, nullptr);
  const rb::Pass second = rb::run_pass(small, workload.jobs, nullptr);
  small.instances.front().expected.invariant += 1.0;
  const rb::Pass wrong = rb::run_pass(small, workload.jobs, nullptr);
  const rb::Outcome& a = first.outcomes.front();
  const rb::Outcome& b = second.outcomes.front();
  const bool repeat = a.counters() == b.counters() &&
                      a.observed.reachable == b.observed.reachable &&
                      a.observed.invariant == b.observed.invariant &&
                      a.observed.span == b.observed.span &&
                      a.observed.transitions == b.observed.transitions;
  const bool caught =
      wrong.failed() == 1 &&
      wrong.outcomes.front().failure.rfind("known answer mismatch", 0) == 0;
  std::printf("self-test %s: %s (lookups %llu, created %llu, groups %llu; "
              "repeat %s, wrong answer %s)\n",
              a.key.c_str(), repeat && caught ? "ok" : "FAILED",
              static_cast<unsigned long long>(a.counters().lookups),
              static_cast<unsigned long long>(a.counters().created),
              static_cast<unsigned long long>(a.counters().group_iterations),
              repeat ? "exact" : "DIFFERS", caught ? "caught" : "MISSED");
  report_failures(first);
  return repeat && caught;
}

int run_end_to_end(const Config& config, const rb::Workload& workload) {
  std::vector<double> setups;
  std::vector<double> walls;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Passes repeat while another one of the same length still fits in
  // --seconds, so a run lasts about --seconds and never much longer.
  const lr::support::Stopwatch measuring;
  double last_pass_s = 0.0;
  do {
    const lr::support::Stopwatch pass_watch;
    const rb::Pass pass = rb::run_pass(workload, workload.jobs, nullptr);
    last_pass_s = pass_watch.seconds();
    if (pass.setup_s >= 0.0) setups.push_back(pass.setup_s);
    walls.push_back(pass.wall_s);
    attempted += pass.outcomes.size();
    failed += pass.failed();
    report_failures(pass);
    std::printf("pass %zu: wall %.3f s, %zu/%zu ok\n", walls.size(),
                pass.wall_s, pass.outcomes.size() - pass.failed(),
                pass.outcomes.size());
  } while (measuring.seconds() + last_pass_s <=
           static_cast<double>(config.seconds));
  double setup_total = 0.0;
  for (const double s : setups) setup_total += s;
  while (setups.size() < kSetupSamples || setup_total < kSetupSeconds) {
    setups.push_back(rb::run_setup(workload));
    setup_total += setups.back();
  }

  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s"},
      {"wall_s", median(walls), "s"},
      {"ok_ratio",
       static_cast<double>(attempted - failed) / static_cast<double>(attempted),
       "ratio"},
  };
  std::printf("%s: setup_s %.4f s (median of %zu), wall_s %.3f s (median of "
              "%zu), %zu/%zu instances ok, proc.peak_rss_mb %.1f MiB\n",
              workload.name.c_str(), metrics[0].value, setups.size(),
              metrics[1].value, walls.size(), attempted - failed, attempted,
              peak_rss_mb());
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

/// Prints each instance's exact counters from every pass side by side;
/// false when any pass disagrees with the first.
bool same_plan(const std::vector<const rb::Pass*>& passes) {
  bool same = true;
  std::printf("plan invariance (lookups / created / group iterations), "
              "untraced then traced:\n");
  for (std::size_t i = 0; i < passes.front()->outcomes.size(); ++i) {
    const rb::Counters reference = passes.front()->outcomes[i].counters();
    std::printf("  %-24s", passes.front()->outcomes[i].key.c_str());
    for (const rb::Pass* pass : passes) {
      const rb::Counters c = pass->outcomes.at(i).counters();
      std::printf("  %llu / %llu / %llu", static_cast<unsigned long long>(c.lookups),
                  static_cast<unsigned long long>(c.created),
                  static_cast<unsigned long long>(c.group_iterations));
      if (!(c == reference)) {
        same = false;
        std::printf(" DIFFERS");
      }
    }
    std::printf("\n");
  }
  return same;
}

int run_traced(const Config& config, const rb::Workload& workload) {
  const rb::Pass untraced = rb::run_pass(workload, workload.jobs, nullptr);
  std::printf("untraced pass: wall %.3f s\n", untraced.wall_s);
  rb::Spans spans;
  const rb::Pass traced = rb::run_pass(workload, workload.jobs, &spans);
  std::printf("traced pass: wall %.3f s\n", traced.wall_s);
  // A batch workload also runs sequentially, by direct calls: the 1-job
  // side of batch.speedup, and the only pass where verify and compile are
  // separate calls.
  std::optional<rb::Pass> sequential_pass;
  if (workload.jobs >= 1) sequential_pass = rb::run_pass(workload, 0, &spans);
  const rb::Pass& sequential = sequential_pass ? *sequential_pass : traced;
  if (sequential_pass) {
    std::printf("sequential pass: wall %.3f s\n", sequential.wall_s);
  }

  std::vector<const rb::Pass*> passes = {&untraced, &traced};
  if (sequential_pass) passes.push_back(&*sequential_pass);
  const bool plan_ok = same_plan(passes);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const rb::Pass* pass : passes) {
    attempted += pass->outcomes.size();
    failed += pass->failed();
    report_failures(*pass);
  }

  rb::Probe reach;
  rb::Probe backreach;
  rb::Probe realize;
  double intra_seconds = 0.0;
  double sequential_seconds = 0.0;
  double probe_step2 = 0.0;
  try {
    for (const rb::Instance& instance : workload.instances) {
      {
        const rb::Scope scope(&spans, "probe.reach " + instance.key());
        reach += rb::probe_reach(instance);
      }
      const rb::Scope scope(&spans, "probe.backreach " + instance.key());
      backreach += rb::probe_backreach(instance);
    }
    for (std::size_t i = 0; i < workload.instances.size(); ++i) {
      const rb::Instance& instance = workload.instances[i];
      if (instance.key() != workload.probe) continue;
      {
        const rb::Scope scope(&spans, "probe.realize");
        realize = rb::probe_realize(instance);
      }
      sequential_seconds = sequential.outcomes.at(i).stats.total_seconds;
      probe_step2 = traced.outcomes.at(i).stats.step2_seconds;
      const rb::Scope scope(&spans, "probe.intra");
      intra_seconds = rb::probe_repair_seconds(instance, kIntraJobs);
    }
  } catch (const std::exception& error) {
    std::printf("FAILED probe: %s\n", error.what());
    ++failed;
  }

  double lookups = 0, hits = 0, evictions = 0, created = 0, gc_runs = 0;
  double peak_nodes = 0, peak_mb = 0, repair_s = 0, step1 = 0, step2 = 0;
  double groups = 0, accepts = 0, rejects = 0, addmasking = 0, outer = 0;
  double layers = 0, deadlock = 0, task_sum = 0, longest = 0;
  for (const rb::Outcome& outcome : traced.outcomes) {
    const lr::repair::Stats& s = outcome.stats;
    lookups += static_cast<double>(s.bdd.cache_lookups);
    hits += static_cast<double>(s.bdd.cache_hits);
    evictions += static_cast<double>(s.bdd.cache_evictions);
    created += static_cast<double>(s.bdd.created_nodes);
    gc_runs += static_cast<double>(s.bdd.gc_runs);
    peak_nodes = std::max(peak_nodes, static_cast<double>(s.bdd.peak_nodes));
    peak_mb = std::max(peak_mb, static_cast<double>(s.bdd.peak_bytes) / 1048576.0);
    repair_s += s.total_seconds;
    step1 += s.step1_seconds;
    step2 += s.step2_seconds;
    groups += static_cast<double>(s.group_iterations);
    accepts += static_cast<double>(s.expand_successes);
    rejects += static_cast<double>(s.expand_failures);
    addmasking += static_cast<double>(s.addmasking_rounds);
    outer += static_cast<double>(s.outer_iterations);
    layers += static_cast<double>(s.recovery_layers);
    deadlock += static_cast<double>(s.deadlock_rounds);
    task_sum += outcome.task_s;
    longest = std::max(longest, outcome.task_s);
  }
  double verify_s = 0, verify_steps = 0, compile_s = 0, sequential_task_sum = 0;
  for (const rb::Outcome& outcome : sequential.outcomes) {
    verify_s += outcome.verify_s;
    verify_steps += static_cast<double>(outcome.verify_steps);
    compile_s += outcome.compile_s;
    sequential_task_sum += outcome.task_s + outcome.build_s;
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  // A one-task sequential workload has nothing to spread across jobs: its
  // speedup and contention are 1 by construction.
  const bool batch = workload.jobs >= 1;
  const double jobs = batch ? static_cast<double>(workload.jobs) : 1.0;
  const std::vector<Metric> metrics = {
      {"bdd.cache_lookups", lookups, "count"},
      {"bdd.eviction_ratio", ratio(evictions, lookups), "ratio"},
      {"bdd.cache_hit_ratio", ratio(hits, lookups), "ratio"},
      {"bdd.created_nodes", created, "count"},
      {"bdd.peak_nodes", peak_nodes, "count"},
      {"bdd.gc_runs", gc_runs, "count"},
      {"bdd.peak_mb", peak_mb, "MiB"},
      {"bdd.steps_per_us", ratio(lookups, repair_s * 1e6), "1/us"},
      {"symbolic.reach_s", reach.seconds, "s"},
      {"symbolic.reach_steps", static_cast<double>(reach.steps), "count"},
      {"symbolic.backreach_s", backreach.seconds, "s"},
      {"symbolic.backreach_steps", static_cast<double>(backreach.steps), "count"},
      {"program.compile_s", compile_s, "s"},
      {"repair.step1_s", step1, "s"},
      {"repair.step2_s", step2, "s"},
      {"repair.realize_s", realize.seconds, "s"},
      {"repair.realize_steps", static_cast<double>(realize.steps), "count"},
      {"repair.step2_other_s", probe_step2 - realize.seconds, "s"},
      {"repair.group_iterations", groups, "count"},
      {"repair.expand_accepts", accepts, "count"},
      {"repair.expand_rejects", rejects, "count"},
      {"repair.expand_accept_ratio", ratio(accepts, accepts + rejects), "ratio"},
      {"repair.addmasking_rounds", addmasking, "count"},
      {"repair.outer_iterations", outer, "count"},
      {"repair.recovery_layers", layers, "count"},
      {"repair.deadlock_rounds", deadlock, "count"},
      {"verify.s", verify_s, "s"},
      {"verify.steps", verify_steps, "count"},
      {"batch.busy_ratio", ratio(task_sum, jobs * traced.wall_s), "ratio"},
      {"batch.speedup",
       batch ? ratio(sequential.wall_s + sequential.setup_s, traced.wall_s) : 1.0,
       "x"},
      {"batch.contention", batch ? ratio(task_sum, sequential_task_sum) : 1.0,
       "ratio"},
      {"batch.longest_task_share", ratio(longest, traced.wall_s), "ratio"},
      {"intra.speedup", ratio(sequential_seconds, intra_seconds), "x"},
      {"proc.peak_rss_mb", peak_rss_mb(), "MiB"},
      {"trace.overhead", ratio(traced.wall_s, untraced.wall_s), "ratio"},
  };
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %.10g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  (repair.realize_* and intra.speedup probe %s; "
              "repair.step2_other_s is derived: its step2_s - realize_s)\n",
              workload.probe.c_str());
  if (!config.trace_out.empty() && !spans.write_json(config.trace_out)) {
    std::printf("FAILED cannot write %s\n", config.trace_out.c_str());
    ++failed;
  }
  if (!plan_ok) std::printf("FAILED plan invariance: counters differ\n");
  print_result(failed == 0 && plan_ok, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const lr::support::CommandLine cli(argc, argv);
  if (cli.has("help")) {
    print_help();
    return 0;
  }
  for (const std::string& name : cli.option_names()) {
    const auto& specs = flag_specs();
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const auto& spec) { return spec.name == name; })) {
      return usage_error("unknown flag --" + name);
    }
  }
  if (!cli.positional().empty()) {
    return usage_error("unexpected argument '" + cli.positional().front() + "'");
  }

  Config config;
  config.workload = cli.get("workload", "");
  const auto& names = rb::workload_names();
  if (std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return usage_error("--workload must name a workload, got '" +
                       config.workload + "'");
  }
  const auto seed = parse_int(cli.get("seed", "1"));
  const auto seconds = parse_int(cli.get("seconds", "10"));
  const auto trace = parse_int(cli.get("trace", "0"));
  if (!seed || *seed < 0) return usage_error("--seed must be an integer >= 0");
  if (!seconds || *seconds < 1) return usage_error("--seconds must be >= 1");
  if (!trace || (*trace != 0 && *trace != 1)) {
    return usage_error("--trace must be 0 or 1");
  }
  config.seed = static_cast<std::uint64_t>(*seed);
  config.seconds = *seconds;
  config.trace = *trace == 1;
  config.trace_out = cli.get("trace-out", "");
  config.git_sha = cli.get("git-sha", config.git_sha);
  config.source_sha256 = cli.get("source-sha256", config.source_sha256);

  if (!optimized_build()) {
    std::fprintf(stderr,
                 "repairbench: refusing to time a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 REPAIRBENCH_BUILD_TYPE);
    return 1;
  }
  print_fingerprint(config);
  const rb::Workload workload = rb::make_workload(config.workload);
  if (!self_test(workload)) return 1;
  return config.trace ? run_traced(config, workload)
                      : run_end_to_end(config, workload);
}
