// mbctl — command-line front end to the montblanc toolkit.
//
// The command table at the end of this file declares every command, its
// positional arguments and the flags it takes; `mbctl help` prints the
// usage generated from it. docs/cli.md is the full reference.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "advise/advice.h"
#include "advise/advisor.h"
#include "advise/apply.h"
#include "apps/bigdft.h"
#include "apps/cluster.h"
#include "apps/hpl.h"
#include "apps/scenario.h"
#include "apps/specfem.h"
#include "arch/platform_io.h"
#include "arch/platforms.h"
#include "arch/topology.h"
#include "core/bench_report.h"
#include "core/campaign.h"
#include "core/compare.h"
#include "core/harness.h"
#include "core/param_space.h"
#include "core/result_cache.h"
#include "core/search.h"
#include "fault/chaos.h"
#include "fault/plan.h"
#include "gen/bundle.h"
#include "gen/differential.h"
#include "gen/generator.h"
#include "kernels/chessbench.h"
#include "kernels/coremark.h"
#include "kernels/latency.h"
#include "kernels/linpack.h"
#include "kernels/magicfilter.h"
#include "kernels/membench.h"
#include "kernels/stencil.h"
#include "net/topology.h"
#include "obs/analysis.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "sim/roofline.h"
#include "support/check.h"
#include "support/executor.h"
#include "support/exit_codes.h"
#include "support/hash.h"
#include "support/schema.h"
#include "support/table.h"
#include "support/version.h"
#include "trace/gantt.h"
#include "trace/mb_trace.h"
#include "trace/sink.h"
#include "trace/trace.h"
#include "verify/fault_lint.h"
#include "verify/mpi_verify.h"
#include "verify/perf_rules.h"
#include "verify/platform_lint.h"
#include "verify/static_cost.h"

namespace {

using mb::support::fmt_fixed;
using mb::support::kExitFindings;
using mb::support::kExitOk;
using mb::support::kExitUsage;

/// Prints `error` (when given) and the usage generated from the command
/// table on stderr, then exits 2 (0 without an error). Defined after the
/// table.
[[noreturn]] void usage(const std::string& error = {});

// --------------------------------------------------------------------------
// Flags, flag groups and the command table's types.

/// Flags several commands share and one function below reads. usage()
/// shows a group as `[<name> opts]` and spells it out once.
struct FlagGroup {
  std::string_view name;
  std::string_view flags;  ///< synopsis, as for Command
};

constexpr FlagGroup kFlagGroups[] = {
    {"bigdft",
     "[--ranks N] [--iterations N] [--compute-s X] [--transpose-mb N]"},
    {"hpl", "[--ranks N] [--n N] [--block N]"},
    {"specfem", "[--ranks N] [--steps N] [--compute-s X] [--halo-kb N]"},
    {"recovery", "[--recv-timeout X] [--send-retries N] [--max-restarts N]"},
    {"capture",
     "[--trace-ranks all|N|R1,R2,...] [--trace-buffer N] "
     "[--trace-kinds all|k1,k2,...] [--timeseries-out PATH] "
     "[--sample-interval X]"},
    {"campaign",
     "[--jobs N] [--no-cache] [--cache-dir PATH] [--cache-max-bytes N]"},
};

class Options;
using Args = std::vector<std::string>;

/// One mbctl command and the handler that runs it with its positional
/// arguments and flags.
struct Command {
  std::string_view name;
  /// What the command takes, as usage() prints it: positionals (`<arg>`,
  /// all required), flags (`[--flag VALUE]`, `[--flag]` without a value,
  /// `--flag VALUE` when required) and flag groups (`[<name> opts]`).
  std::string_view synopsis;
  int (*run)(const Args& args, const Options& opts);
};

/// Splits a synopsis into its items; a bracketed item and a required
/// `--flag VALUE` stay one item each.
std::vector<std::string> synopsis_items(std::string_view synopsis) {
  std::vector<std::string> items;
  std::size_t at = synopsis.find_first_not_of(' ');
  while (at != std::string_view::npos) {
    const bool bracketed = synopsis[at] == '[';
    std::size_t end = synopsis.find(bracketed ? "] " : " ", at);
    if (bracketed && end != std::string_view::npos) ++end;
    if (synopsis.substr(at, 2) == "--" && end != std::string_view::npos)
      end = synopsis.find(' ', end + 1);
    items.emplace_back(synopsis.substr(at, end - at));
    at = synopsis.find_first_not_of(' ', end);
  }
  return items;
}

/// One declared flag; an empty `value` means it takes none.
struct Flag {
  std::string name;
  std::string value;
  bool required = false;
};

/// The flags a synopsis declares, its flag groups' included.
std::vector<Flag> declared_flags(std::string_view synopsis) {
  std::vector<Flag> flags;
  for (const std::string& item : synopsis_items(synopsis)) {
    const bool optional = item.front() == '[';
    const std::string text =
        optional ? item.substr(1, item.size() - 2) : item;
    if (text.rfind("--", 0) == 0) {
      const auto space = text.find(' ');
      flags.push_back(
          {text.substr(2, space - 2),
           space == std::string::npos ? "" : text.substr(space + 1),
           !optional});
    } else if (optional) {  // "[<name> opts]"
      const std::string name = text.substr(0, text.find(' '));
      const FlagGroup* group =
          std::find_if(std::begin(kFlagGroups), std::end(kFlagGroups),
                       [&](const FlagGroup& g) { return g.name == name; });
      mb::support::check(group != std::end(kFlagGroups), "command table",
                         "unknown flag group " + item);
      const auto more = declared_flags(group->flags);
      flags.insert(flags.end(), more.begin(), more.end());
    }
  }
  return flags;
}

/// `text` as an unsigned integer; nullopt unless all of it parses.
std::optional<std::uint64_t> parse_u64(const std::string& text) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(text, &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// `v` when it is at most `limit`; otherwise a usage error naming `--flag`
/// and the limit, so no flag value wraps when narrowed or scaled.
std::uint64_t flag_at_most(const std::string& flag, std::uint64_t v,
                           std::uint64_t limit) {
  if (v > limit)
    usage("--" + flag + " must be at most " + std::to_string(limit) +
          ", got " + std::to_string(v));
  return v;
}

/// The flags of one invocation. A flag its command does not declare is a
/// usage error; a handler reading an undeclared flag is a bug in the
/// command table.
class Options {
 public:
  Options(const Command& command, const Args& args, std::size_t first)
      : command_(command.name), flags_(declared_flags(command.synopsis)) {
    for (std::size_t i = first; i < args.size(); ++i) {
      const std::string& key = args[i];
      if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
      const std::string name = key.substr(2);
      const Flag* flag = declared(name);
      if (flag == nullptr) usage(command_ + " does not take " + key);
      if (flag->value.empty()) {
        values_[name] = "1";
        continue;
      }
      if (i + 1 >= args.size()) usage(key + " needs a value");
      values_[name] = args[++i];
    }
    for (const Flag& flag : flags_) {
      if (flag.required && values_.count(flag.name) == 0)
        usage(command_ + " needs --" + flag.name + " " + flag.value);
    }
  }

  const std::string& command() const { return command_; }

  bool has(const std::string& key) const { return value(key) != nullptr; }

  std::uint64_t get_u64(const std::string& key,
                        std::uint64_t fallback) const {
    const std::string* text = value(key);
    if (text == nullptr) return fallback;
    if (const auto v = parse_u64(*text)) return *v;
    usage("--" + key + " expects an integer, got '" + *text + "'");
  }

  /// A flag stored in 32 bits (rank counts, sizes, worker counts): a
  /// value above `limit` is a usage error naming the flag and the limit.
  std::uint32_t get_u32(const std::string& key, std::uint32_t fallback,
                        std::uint32_t limit = UINT32_MAX) const {
    return static_cast<std::uint32_t>(
        flag_at_most(key, get_u64(key, fallback), limit));
  }

  /// A size flag in units of 2^shift bytes (--size-kb: 10, --halo-kb: 10,
  /// --transpose-mb: 20, --checkpoint-mb: 20), returned in bytes. A value
  /// whose byte count would pass 2^64 - 1 is a usage error.
  std::uint64_t get_scaled(const std::string& key, std::uint64_t fallback,
                           unsigned shift) const {
    return flag_at_most(key, get_u64(key, fallback), UINT64_MAX >> shift)
           << shift;
  }

  double get_f64(const std::string& key, double fallback) const {
    const std::string* text = value(key);
    if (text == nullptr) return fallback;
    try {
      std::size_t used = 0;
      const double v = std::stod(*text, &used);
      if (used != text->size()) throw std::invalid_argument(*text);
      return v;
    } catch (const std::exception&) {
      usage("--" + key + " expects a number, got '" + *text + "'");
    }
  }

  std::string get_str(const std::string& key, std::string fallback) const {
    const std::string* text = value(key);
    return text == nullptr ? fallback : *text;
  }

 private:
  const Flag* declared(std::string_view name) const {
    for (const Flag& flag : flags_)
      if (flag.name == name) return &flag;
    return nullptr;
  }

  /// The value given for `key`, or nullptr when absent.
  const std::string* value(const std::string& key) const {
    mb::support::check(declared(key) != nullptr, "command table",
                       command_ + " reads --" + key +
                           ", which it does not declare");
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  std::string command_;
  std::vector<Flag> flags_;
  std::map<std::string, std::string> values_;
};

/// Seed resolution shared by every seeded command: --seed wins, then the
/// MB_SEED environment variable (CI sets it once for a whole pipeline so
/// each step need not thread it through), then the command's default.
std::uint64_t effective_seed(const Options& opts, std::uint64_t fallback) {
  if (opts.has("seed")) return opts.get_u64("seed", fallback);
  // Read during single-threaded argument parsing, before any worker pool
  // exists, so the mt-unsafe getenv race cannot occur.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("MB_SEED")) {
    if (const auto v = parse_u64(env)) return *v;
    usage("MB_SEED expects an integer, got '" + std::string(env) + "'");
  }
  return fallback;
}

// --------------------------------------------------------------------------
// Files named on the command line.

/// Opens an input file; one that cannot be opened is a usage error
/// (exit 2) whichever command names it.
std::ifstream open_input(const std::string& path, const std::string& what,
                         std::ios::openmode mode = std::ios::in) {
  std::ifstream in(path, mode);
  if (!in) usage("cannot open " + what + " " + path);
  return in;
}

/// The whole of a small text input (JSON documents, platform files).
std::string read_input(const std::string& path, const std::string& what) {
  std::ifstream in = open_input(path, what);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Opens `path`, streams `write` into it, fails on an open or write error
/// and reports `wrote <path> (<note>)` on stderr. Nothing is assembled as
/// one string first: Paraver and mb-trace files can be large.
void write_output(const std::string& path, const std::string& note,
                  const std::function<void(std::ostream&)>& write,
                  std::ios::openmode mode = std::ios::out) {
  std::ofstream out(path, mode);
  if (!out) throw mb::support::Error("cannot open " + path + " for writing");
  write(out);
  if (!out) throw mb::support::Error("write to " + path + " failed");
  std::cerr << "wrote " << path << " (" << note << ")\n";
}

mb::arch::Platform resolve_platform(const std::string& spec) {
  if (!spec.empty() && spec[0] == '@')
    return mb::arch::parse_platform(
        read_input(spec.substr(1), "platform file"));
  if (spec == "snowball") return mb::arch::snowball();
  if (spec == "xeon" || spec == "xeon_x5550") return mb::arch::xeon_x5550();
  if (spec == "tegra2") return mb::arch::tegra2_node();
  if (spec == "exynos5") return mb::arch::exynos5();
  usage("unknown platform '" + spec + "'");
}

/// Reads a trace file, sniffing the format: mb-trace v1 (binary) or the
/// Paraver text dump. Returns the mb-trace header; nullopt for Paraver.
std::optional<mb::trace::MbTraceMeta> load_trace(const std::string& path,
                                                 mb::trace::Trace& trace) {
  std::ifstream in = open_input(path, "trace", std::ios::binary);
  if (mb::trace::is_mb_trace(in)) {
    mb::trace::MbTraceFile file = mb::trace::read_mb_trace(in);
    trace = std::move(file.trace);
    return std::move(file.meta);
  }
  trace = mb::trace::parse_paraver(in);
  return std::nullopt;
}

/// The --faults plan; nullopt when the flag is absent.
std::optional<mb::fault::FaultPlan> load_fault_plan(const Options& opts) {
  if (!opts.has("faults")) return std::nullopt;
  return mb::fault::plan_from_json(
      read_input(opts.get_str("faults", ""), "fault plan"));
}

// --------------------------------------------------------------------------
// Flag-group readers.

// Defined with the lint/verify-mpi commands below; used by every scenario
// command that validates configuration through lint rules.
void enforce_clean(const mb::verify::Report& report);

/// Applies the capture opts to a cluster config: any --trace-* flag
/// switches the run to the bounded streaming sink, --timeseries-out arms
/// the metrics time sampler.
void apply_capture_options(const Options& opts,
                           mb::apps::ClusterConfig& cluster,
                           std::uint64_t seed) {
  if (opts.has("trace-ranks") || opts.has("trace-buffer") ||
      opts.has("trace-kinds")) {
    cluster.streaming_trace = true;
    mb::trace::SinkConfig& sink = cluster.trace_sink;
    sink.seed = seed;
    sink.tool_version = std::string(mb::support::version());
    sink.ring_capacity = opts.get_u32("trace-buffer", sink.ring_capacity);
    const std::string spec = opts.get_str("trace-ranks", "all");
    const std::string bad =
        "--trace-ranks expects all, a count, or a comma list of rank ids, "
        "got '" +
        spec + "'";
    // Rank ids and the count are 32-bit.
    const auto number = [&bad](const std::string& token) {
      const auto v = parse_u64(token);
      if (!v) usage(bad);
      return static_cast<std::uint32_t>(
          flag_at_most("trace-ranks", *v, UINT32_MAX));
    };
    if (spec.find(',') != std::string::npos) {
      std::stringstream ss(spec);
      std::string token;
      while (std::getline(ss, token, ',')) {
        if (!token.empty()) sink.rank_list.push_back(number(token));
      }
      if (sink.rank_list.empty())
        usage("--trace-ranks rank list is empty: '" + spec + "'");
    } else if (spec != "all") {
      sink.sample_count = number(spec);
      if (sink.sample_count == 0) usage(bad);
    }
    if (opts.has("trace-kinds")) {
      try {
        sink.kind_mask = mb::trace::parse_event_kind_mask(
            opts.get_str("trace-kinds", "all"));
      } catch (const mb::support::Error& e) {
        usage(e.what());
      }
    }
  }
  if (opts.has("timeseries-out") || opts.has("sample-interval")) {
    cluster.timeseries.enabled = true;
    cluster.timeseries.interval_s = opts.get_f64("sample-interval", 0.1);
    if (cluster.timeseries.interval_s <= 0.0)
      usage("--sample-interval must be positive");
  }
}

/// Writes the mb-timeseries artifact when --timeseries-out was given.
void write_timeseries_artifact(const Options& opts, mb::obs::TimeSeries& ts,
                               std::uint64_t seed) {
  if (!opts.has("timeseries-out")) return;
  ts.seed = seed;
  write_output(opts.get_str("timeseries-out", ""),
               std::to_string(ts.times_s.size()) + " samples, " +
                   std::to_string(ts.series.size()) + " series",
               [&](std::ostream& out) { out << mb::obs::to_json(ts) << '\n'; });
}

/// Campaign knobs shared by every sweeping command (campaign opts).
mb::core::CampaignOptions campaign_options(const Options& opts) {
  mb::core::CampaignOptions co;
  co.jobs = opts.get_u32("jobs", 1);
  if (co.jobs == 0) usage("--jobs must be at least 1");
  co.cache = !opts.has("no-cache");
  co.cache_dir = opts.get_str("cache-dir", ".mb-cache");
  co.cache_max_bytes = opts.get_u64("cache-max-bytes", 0);
  return co;
}

/// The compare noise gate (--threshold-sigma, --min-rel), shared by
/// compare and advise --apply.
mb::core::CompareOptions compare_options(const Options& opts) {
  mb::core::CompareOptions co;
  co.threshold_sigma = opts.get_f64("threshold-sigma", co.threshold_sigma);
  co.min_rel_delta = opts.get_f64("min-rel", co.min_rel_delta);
  return co;
}

/// The guarded-apply knobs of both advise modes.
mb::advise::ApplyOptions apply_options(const Options& opts) {
  mb::advise::ApplyOptions apply;
  apply.campaign = campaign_options(opts);
  apply.compare = compare_options(opts);
  apply.reps = opts.get_u32("reps", 3);
  return apply;
}

/// Failure detection and restart knobs of a chaos run (recovery opts).
struct Recovery {
  double recv_timeout_s = 2.0;
  std::uint32_t send_retries = 3;
  std::uint32_t max_restarts = 8;
};

Recovery read_recovery(const Options& opts) {
  Recovery r;
  r.recv_timeout_s = opts.get_f64("recv-timeout", r.recv_timeout_s);
  r.send_retries = opts.get_u32("send-retries", r.send_retries);
  r.max_restarts = opts.get_u32("max-restarts", r.max_restarts);
  return r;
}

/// A chaos scenario on a `nodes`-board Tibidabo cluster.
mb::fault::ChaosScenario chaos_scenario(std::uint32_t nodes,
                                        const Recovery& recovery) {
  mb::fault::ChaosScenario scenario;
  scenario.cluster = mb::apps::tibidabo_cluster(nodes);
  scenario.cluster.mpi.recv_timeout_s = recovery.recv_timeout_s;
  scenario.cluster.mpi.max_send_retries = recovery.send_retries;
  scenario.max_restarts = recovery.max_restarts;
  return scenario;
}

/// The --tree switch generation: tibidabo (default) or upgraded.
std::string read_tree(const Options& opts) {
  std::string tree = opts.get_str("tree", "tibidabo");
  if (tree != "tibidabo" && tree != "upgraded")
    usage("--tree expects tibidabo|upgraded, got '" + tree + "'");
  return tree;
}

// --------------------------------------------------------------------------
// App programs: every cluster command builds its program here.

using mb::apps::AppParams;

/// An app a command can run, with that command's defaults (docs/cli.md,
/// "App options"); the app flags override them.
struct App {
  std::string_view name;
  AppParams defaults;
};

/// fig4, trace-export, analyze: the paper's Fig. 4 run, 36 ranks on 18
/// dual-core boards.
const std::vector<App> kFig4Apps = {
    {"bigdft", mb::apps::scenario("fig4", 36, 1).params}};
/// chaos, advise: small runs that a fault plan can still hurt.
const std::vector<App> kChaosApps = {
    {"bigdft", mb::apps::BigDftParams{.ranks = 8,
                                      .iterations = 6,
                                      .compute_s_per_iter = 1.0,
                                      .transpose_bytes = 8ull << 20}},
    {"hpl", mb::apps::HplParams{.ranks = 16, .n = 4096, .block = 64}},
    {"specfem", mb::apps::SpecfemParams{}}};
/// verify-mpi, analyze-static: the params structs' own defaults; `fig4` is
/// the program `mbctl fig4` runs.
const std::vector<App> kStaticApps = {
    {"fig4", mb::apps::scenario("fig4", 36, 1).params},
    {"bigdft", mb::apps::BigDftParams{}},
    {"hpl", mb::apps::HplParams{}},
    {"specfem", mb::apps::SpecfemParams{}}};

/// Reads the app flags of `name` over its defaults in `apps`, seeds it
/// from `seed` and lints its rank count.
AppParams read_app(const std::vector<App>& apps, const std::string& name,
                   const Options& opts, std::uint64_t seed) {
  const auto app = std::find_if(apps.begin(), apps.end(),
                                [&](const App& a) { return a.name == name; });
  if (app == apps.end()) {
    std::string known;
    for (const App& a : apps)
      known += (known.empty() ? "" : "|") + std::string(a.name);
    usage("unknown " + opts.command() + " app '" + name +
          "' (" + known + ")");
  }
  AppParams params = app->defaults;
  std::visit(
      [&](auto& p) {
        using P = std::decay_t<decltype(p)>;
        p.ranks = opts.get_u32("ranks", p.ranks);
        if constexpr (std::is_same_v<P, mb::apps::BigDftParams>) {
          p.iterations = opts.get_u32("iterations", p.iterations);
          p.compute_s_per_iter =
              opts.get_f64("compute-s", p.compute_s_per_iter);
          p.transpose_bytes =
              opts.get_scaled("transpose-mb", p.transpose_bytes >> 20, 20);
          p.seed = seed;
        } else if constexpr (std::is_same_v<P, mb::apps::HplParams>) {
          p.n = opts.get_u32("n", p.n);
          p.block = opts.get_u32("block", p.block);
        } else {
          p.steps = opts.get_u32("steps", p.steps);
          p.compute_s_per_step =
              opts.get_f64("compute-s", p.compute_s_per_step);
          p.halo_bytes = opts.get_scaled("halo-kb", p.halo_bytes >> 10, 10);
          p.seed = seed;
        }
        enforce_clean(mb::verify::lint_rank_count(p.ranks, 2, "--ranks"));
      },
      params);
  return params;
}

// --------------------------------------------------------------------------
// Structured-report helpers.

/// A report stamped with this tool, `suite` and `seed`; `reps` > 0 also
/// records the measurement plan (that many repetitions under `seed`).
mb::core::BenchReport new_report(std::string suite, std::uint64_t seed,
                                 std::uint32_t reps = 0) {
  mb::core::BenchReport report;
  report.suite = std::move(suite);
  report.tool = "mbctl";
  report.seed = seed;
  if (reps > 0) {
    report.plan.repetitions = reps;
    report.plan.seed = seed;
  }
  return report;
}

mb::core::PlatformInfo platform_info(const mb::arch::Platform& p) {
  mb::core::PlatformInfo info;
  info.name = p.name;
  info.cores = p.cores;
  info.freq_hz = p.core.freq_hz;
  info.power_w = p.power_w;
  info.peak_dp_gflops = p.peak_dp_gflops();
  info.peak_sp_gflops = p.peak_sp_gflops();
  return info;
}

void write_report(mb::core::BenchReport& report, const std::string& path) {
  // Profiled runs carry the registry snapshot so that `compare` can later
  // attribute an end-to-end regression to the phase whose counters moved.
  if (mb::obs::profiler().enabled() && report.metrics.empty())
    report.metrics = mb::obs::metrics().snapshot();
  write_output(path,
               std::to_string(report.records.size()) + " benchmark records",
               [&](std::ostream& out) { out << mb::core::to_json(report); });
}

void add_record(mb::core::BenchReport& report, std::string name,
                std::string platform, std::string metric, std::string unit,
                mb::core::Direction direction, std::vector<double> samples) {
  mb::core::BenchRecord record;
  record.name = std::move(name);
  record.platform = std::move(platform);
  record.metric = std::move(metric);
  record.unit = std::move(unit);
  record.direction = direction;
  record.samples = std::move(samples);
  report.records.push_back(std::move(record));
}

/// Runs a campaign and reports its totals on stderr — never on stdout,
/// where steal counts (timing-dependent) would break byte-identity.
mb::core::CampaignResult run_campaign_reported(
    const std::vector<mb::core::CampaignTask>& tasks,
    const mb::core::CampaignOptions& co) {
  auto result = mb::core::run_campaign(tasks, co);
  std::cerr << mb::core::campaign_summary(result.stats, co) << "\n";
  return result;
}

/// Runs `measure` on `reps` independently seeded machines (fresh physical
/// page placement each time — the paper's "new run" notion).
std::vector<double> run_reps(
    const mb::arch::Platform& p, mb::sim::PagePolicy policy,
    std::uint32_t reps, std::uint64_t seed,
    const std::function<double(mb::sim::Machine&)>& measure) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::uint32_t i = 0; i < reps; ++i) {
    mb::sim::Machine machine(p, policy, mb::support::Rng(seed + i));
    samples.push_back(measure(machine));
  }
  return samples;
}

// --------------------------------------------------------------------------
// Commands.

int cmd_platforms(const Args& /*args*/, const Options& /*opts*/) {
  mb::support::Table table({"Name", "Cores", "Freq (GHz)", "Peak DP GF",
                            "Peak SP GF", "Power (W)"});
  for (const auto& p : mb::arch::all_builtin_platforms()) {
    table.add_row({p.name, std::to_string(p.cores),
                   fmt_fixed(p.core.freq_hz / 1e9, 2),
                   fmt_fixed(p.peak_dp_gflops(), 1),
                   fmt_fixed(p.peak_sp_gflops(), 1),
                   fmt_fixed(p.power_w, 1)});
  }
  std::cout << table;
  return 0;
}

int cmd_roofline(const Args& args, const Options& opts) {
  const auto p = resolve_platform(args[0]);
  const auto dp = mb::sim::dp_roofline(p);
  const auto sp = mb::sim::sp_roofline(p);
  std::cout << p.name << '\n'
            << "  DP roof: " << fmt_fixed(dp.peak_gflops, 2)
            << " GFLOPS, ridge " << fmt_fixed(dp.ridge_intensity(), 2)
            << " flop/B\n"
            << "  SP roof: " << fmt_fixed(sp.peak_gflops, 2)
            << " GFLOPS, ridge " << fmt_fixed(sp.ridge_intensity(), 2)
            << " flop/B\n"
            << "  memory:  " << fmt_fixed(dp.bandwidth_gbs, 2) << " GB/s\n";
  // The cache-level- and vector-width-aware hierarchy the advisor cites:
  // one compute ceiling per datapath, one bandwidth ceiling per level.
  const auto hier = mb::sim::hierarchical_dp_roofline(p);
  std::cout << "  compute roofs:\n";
  for (const auto& roof : hier.compute)
    std::cout << "    " << roof.name << ": " << fmt_fixed(roof.gflops, 2)
              << " GFLOPS\n";
  std::cout << "  memory roofs:\n";
  for (const auto& level : hier.levels) {
    std::cout << "    " << level.name << ": "
              << fmt_fixed(level.bandwidth_gbs, 2) << " GB/s";
    if (level.capacity_bytes > 0)
      std::cout << " (working sets <= " << level.capacity_bytes / 1024
                << " KiB)";
    std::cout << '\n';
  }
  std::cout << "  vector speedup: " << fmt_fixed(hier.vector_speedup(), 2)
            << "x over scalar\n";
  if (opts.has("json")) {
    // Analytic, but CI keys on the seed.
    auto report = new_report("roofline", effective_seed(opts, 0));
    report.add_platform(platform_info(p));
    const std::string base = "roofline/" + p.name;
    using D = mb::core::Direction;
    add_record(report, base + "/dp_peak", p.name, "gflops", "GFLOPS",
               D::kMaximize, {dp.peak_gflops});
    add_record(report, base + "/sp_peak", p.name, "gflops", "GFLOPS",
               D::kMaximize, {sp.peak_gflops});
    add_record(report, base + "/bandwidth", p.name, "bandwidth_gbs", "GB/s",
               D::kMaximize, {dp.bandwidth_gbs});
    for (const auto& level : hier.levels)
      add_record(report, base + "/" + level.name + "_bandwidth", p.name,
                 "bandwidth_gbs", "GB/s", D::kMaximize,
                 {level.bandwidth_gbs});
    add_record(report, base + "/vector_speedup", p.name, "ratio", "x",
               D::kMaximize, {hier.vector_speedup()});
    write_report(report, opts.get_str("json", ""));
  }
  return 0;
}

int cmd_membench(const Args& args, const Options& opts) {
  const auto p = resolve_platform(args[0]);
  mb::kernels::MembenchParams params;
  params.array_bytes = opts.get_scaled("size-kb", 48, 10);
  params.stride_elems = opts.get_u32("stride", 1);
  params.elem_bits = opts.get_u32("bits", 64);
  params.unroll = opts.get_u32("unroll", 4);
  params.passes = opts.get_u32("passes", 8);
  const std::uint32_t reps = opts.get_u32("reps", 1);
  const std::uint64_t seed = effective_seed(opts, 1);
  if (reps == 0) usage("--reps must be at least 1");
  const auto co = campaign_options(opts);

  // One campaign task per repetition: each rep is an independently seeded
  // machine (fresh page placement), so reps shard cleanly across --jobs
  // and cache per (config, rep-seed).
  std::ostringstream point;
  point << "size_kb=" << params.array_bytes / 1024
        << " stride=" << params.stride_elems << " bits=" << params.elem_bits
        << " unroll=" << params.unroll << " passes=" << params.passes;
  std::vector<mb::core::CampaignTask> tasks;
  for (std::uint32_t i = 0; i < reps; ++i) {
    mb::core::CampaignTask task;
    task.key = {std::string(mb::support::version()), "membench", p.name,
                point.str(), seed + i, 0};
    task.run = [&p, params, s = seed + i]() {
      mb::sim::Machine machine(p, mb::sim::PagePolicy::kConsecutive,
                               mb::support::Rng(s));
      return std::vector<double>{
          mb::kernels::membench_run(machine, params).bandwidth_bytes_per_s /
          1e9};
    };
    tasks.push_back(std::move(task));
  }
  const auto campaign = run_campaign_reported(tasks, co);
  std::vector<double> samples;
  samples.reserve(reps);
  for (const auto& s : campaign.samples) samples.push_back(s.at(0));
  if (reps == 1) {
    // Single run: keep the detailed counter dump.
    mb::sim::Machine machine(p, mb::sim::PagePolicy::kConsecutive,
                             mb::support::Rng(seed));
    const auto r = mb::kernels::membench_run(machine, params);
    std::cout << "bandwidth: " << fmt_fixed(r.bandwidth_bytes_per_s / 1e9, 3)
              << " GB/s\n"
              << "time: " << r.sim.seconds * 1e6 << " us\n"
              << r.sim.counters.to_string();
  } else {
    const auto sum = mb::stats::summarize(samples);
    std::cout << "bandwidth: " << fmt_fixed(sum.mean, 3) << " GB/s mean of "
              << reps << " reps (stddev " << fmt_fixed(sum.stddev, 3)
              << ", min " << fmt_fixed(sum.min, 3) << ", max "
              << fmt_fixed(sum.max, 3) << ")\n";
  }
  if (opts.has("json")) {
    auto report = new_report("membench", seed, reps);
    report.add_platform(platform_info(p));
    std::ostringstream name;
    name << "membench/" << p.name << "/size_kb="
         << params.array_bytes / 1024 << " stride=" << params.stride_elems
         << " bits=" << params.elem_bits << " unroll=" << params.unroll;
    add_record(report, name.str(), p.name, "bandwidth_gbs", "GB/s",
               mb::core::Direction::kMaximize, samples);
    write_report(report, opts.get_str("json", ""));
  }
  return 0;
}

int cmd_latency(const Args& args, const Options& opts) {
  const auto p = resolve_platform(args[0]);
  mb::kernels::LatencyParams params;
  params.buffer_bytes = opts.get_scaled("size-kb", 1024, 10);
  params.hops = opts.get_u32("hops", 4096);
  const std::uint32_t reps = opts.get_u32("reps", 1);
  const std::uint64_t seed = effective_seed(opts, 1);
  if (reps == 0) usage("--reps must be at least 1");

  const auto co = campaign_options(opts);

  // Per-rep tasks returning [ns_per_hop, cycles_per_hop] so both series
  // come back from one simulation (and one cache entry).
  std::ostringstream point;
  point << "size_kb=" << params.buffer_bytes / 1024
        << " hops=" << params.hops;
  std::vector<mb::core::CampaignTask> tasks;
  for (std::uint32_t i = 0; i < reps; ++i) {
    mb::core::CampaignTask task;
    task.key = {std::string(mb::support::version()), "latency", p.name,
                point.str(), seed + i, 0};
    task.run = [&p, params, s = seed + i]() {
      mb::sim::Machine machine(p, mb::sim::PagePolicy::kConsecutive,
                               mb::support::Rng(s));
      auto rep_params = params;
      rep_params.seed = s;
      const auto r = mb::kernels::latency_run(machine, rep_params);
      return std::vector<double>{r.ns_per_hop, r.cycles_per_hop};
    };
    tasks.push_back(std::move(task));
  }
  const auto campaign = run_campaign_reported(tasks, co);
  std::vector<double> samples;
  std::vector<double> cycles;
  for (const auto& s : campaign.samples) {
    samples.push_back(s.at(0));
    cycles.push_back(s.at(1));
  }
  std::cout << "latency: " << fmt_fixed(mb::stats::mean(cycles), 1)
            << " cycles/hop (" << fmt_fixed(mb::stats::mean(samples), 1)
            << " ns)";
  if (reps > 1) std::cout << " mean of " << reps << " reps";
  std::cout << "\n";
  if (opts.has("json")) {
    auto report = new_report("latency", seed, reps);
    report.add_platform(platform_info(p));
    std::ostringstream name;
    name << "latency/" << p.name << "/size_kb="
         << params.buffer_bytes / 1024;
    add_record(report, name.str(), p.name, "ns_per_hop", "ns",
               mb::core::Direction::kMinimize, samples);
    write_report(report, opts.get_str("json", ""));
  }
  return 0;
}

/// The magicfilter instance every unroll sweep and advise arm measures.
mb::kernels::MagicfilterParams magicfilter_params(std::uint32_t unroll) {
  mb::kernels::MagicfilterParams params;
  params.n = 20;
  params.dims = 1;
  params.unroll = unroll;
  return params;
}

/// The unroll degrees the magicfilter sweep covers.
mb::core::ParamSpace unroll_space() {
  mb::core::ParamSpace space;
  space.add_range("unroll", 1, 12);
  return space;
}

/// The magicfilter unroll sweep over unroll_space() on `p`. One campaign task
/// per degree, each on its own machine whose RNG seed is derived from the
/// campaign seed + the point's cache key — points are independent, so the
/// sweep shards across --jobs and caches per point while staying
/// byte-identical to the serial walk. tune-magicfilter and advise
/// magicfilter both run it, so either warms the other's cache.
std::vector<mb::advise::KernelSweepPoint> sweep_magicfilter(
    const mb::arch::Platform& p, std::uint64_t seed,
    const mb::core::CampaignOptions& co) {
  const mb::core::ParamSpace space = unroll_space();
  std::vector<mb::core::CampaignTask> tasks;
  for (std::size_t i = 0; i < space.size(); ++i) {
    mb::core::CampaignTask task;
    task.key = {std::string(mb::support::version()), "tune-magicfilter",
                p.name, space.at(i).to_string() + " n=20 dims=1", seed, 0};
    const auto unroll =
        static_cast<std::uint32_t>(space.at(i).get("unroll"));
    task.run = [&p, unroll, key = task.key]() {
      mb::sim::Machine machine(
          p, mb::sim::PagePolicy::kConsecutive,
          mb::support::Rng(mb::support::derive_seed(key.seed, key.hash())));
      return std::vector<double>{
          mb::kernels::magicfilter_run(machine, magicfilter_params(unroll))
              .cycles_per_output};
    };
    tasks.push_back(std::move(task));
  }
  const auto campaign = run_campaign_reported(tasks, co);
  std::vector<mb::advise::KernelSweepPoint> sweep;
  for (std::size_t i = 0; i < space.size(); ++i)
    sweep.push_back({static_cast<std::uint32_t>(space.at(i).get("unroll")),
                     campaign.samples[i].at(0)});
  return sweep;
}

int cmd_tune_magicfilter(const Args& args, const Options& opts) {
  const auto p = resolve_platform(args[0]);
  const std::uint64_t seed = effective_seed(opts, 1);
  const auto sweep = sweep_magicfilter(p, seed, campaign_options(opts));

  const mb::core::ParamSpace space = unroll_space();
  std::vector<double> cycles;
  mb::support::Table table({"Unroll", "Cycles/output"});
  for (const auto& point : sweep) {
    cycles.push_back(point.cycles_per_output);
    table.add_row({std::to_string(point.unroll),
                   fmt_fixed(point.cycles_per_output, 1)});
  }
  std::cout << table;
  const auto spot = mb::core::sweet_spot(space, cycles,
                                         mb::core::Direction::kMinimize);
  std::cout << "sweet spot: unroll in [" << spot.lo << ", " << spot.hi
            << "]\n";
  if (opts.has("json")) {
    auto report = new_report("tune-magicfilter", seed);
    report.add_platform(platform_info(p));
    for (std::size_t i = 0; i < space.size(); ++i) {
      add_record(report,
                 "magicfilter/" + p.name + "/" + space.at(i).to_string(),
                 p.name, "cycles_per_output", "cycles",
                 mb::core::Direction::kMinimize, {cycles[i]});
    }
    write_report(report, opts.get_str("json", ""));
  }
  return 0;
}

// --------------------------------------------------------------------------
// bench-suite: two curated deterministic suites emitted as consolidated
// reports that CI gates on. `--suite smoke` (default) covers the paper's
// Fig. 5 (RT-scheduler bimodality), Fig. 6 (membench variants), Fig. 7
// (magicfilter unrolling) and Table II (cross-platform kernels).
// `--suite scaling` runs the scaling scenarios of src/apps/scenario.h at
// --ranks counts, whose wall-clock the scaling-gate CI job budgets; its
// records are simulated quantities only (makespans and drop counts), so
// the JSON is byte-identical for any --sim-jobs value — the gate diffs
// serial against sharded output directly.

/// Parses the `--ranks 1024,4096` comma list for the scaling suite. A rank
/// count may appear once: its records are named after it.
std::vector<std::uint32_t> parse_rank_list(const std::string& text) {
  std::vector<std::uint32_t> ranks;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto v = parse_u64(item);
    if (!v || *v == 0)
      usage("--ranks expects a comma list of rank counts, got '" + text +
            "'");
    const auto n =
        static_cast<std::uint32_t>(flag_at_most("ranks", *v, UINT32_MAX));
    if (std::find(ranks.begin(), ranks.end(), n) != ranks.end())
      usage("--ranks lists rank count " + std::to_string(n) + " twice: '" +
            text + "'");
    ranks.push_back(n);
  }
  if (ranks.empty()) usage("--ranks expects at least one rank count");
  return ranks;
}

int cmd_bench_scaling(const Options& opts) {
  const std::uint64_t seed = effective_seed(opts, 2013);
  const std::uint32_t sim_jobs = opts.get_u32("sim-jobs", 0);
  const auto rank_list = parse_rank_list(opts.get_str("ranks", "1024,4096"));
  for (const std::uint32_t ranks : rank_list)
    enforce_clean(mb::verify::lint_rank_count(ranks, 2, "--ranks"));

  auto report = new_report("bench-scaling", seed, 1);
  using D = mb::core::Direction;

  mb::support::Table table({"Scenario", "Makespan (s)", "Drops"});
  // Wall-clock is reported on stderr only: the JSON report and stdout
  // digest must stay byte-identical across --sim-jobs values and machine
  // speeds (the CI identity check literally `cmp`s two reports).
  double total_wall = 0.0;
  for (const std::uint32_t ranks : rank_list) {
    for (const mb::apps::Scenario& s : mb::apps::scaling_suite(ranks, seed)) {
      const std::string base =
          std::string(s.name) + "/ranks=" + std::to_string(ranks);
      const auto t0 = std::chrono::steady_clock::now();
      mb::apps::AppRunResult result;
      {
        mb::obs::ScopedSpan span(mb::obs::profiler(), base);
        mb::apps::ClusterConfig cluster = mb::apps::cluster_for(s);
        // Generator-produced programs; statically verified once by
        // tests/apps — skip re-verification in the timed loop.
        cluster.mpi.verify = false;
        cluster.sim_jobs = sim_jobs;
        result = mb::apps::run_on_cluster(cluster,
                                          mb::apps::build_program(s.params));
      }
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      total_wall += wall;
      add_record(report, base + "/makespan", "tibidabo", "seconds", "s",
                 D::kMinimize, {result.makespan_s});
      add_record(report, base + "/drops", "tibidabo", "count", "frames",
                 D::kMinimize, {static_cast<double>(result.network_drops)});
      table.add_row({base, mb::support::fmt_eng(result.makespan_s),
                     std::to_string(result.network_drops)});
      std::cerr << base << ": wall " << fmt_fixed(wall, 2) << " s\n";
    }
  }

  std::cout << "=== bench-suite scaling (seed " << seed << ", sim-jobs "
            << sim_jobs << ") ===\n"
            << table;
  std::cerr << "scaling suite wall-clock: " << fmt_fixed(total_wall, 2)
            << " s (sim-jobs " << sim_jobs << ")\n";

  if (opts.has("json")) write_report(report, opts.get_str("json", ""));
  return 0;
}

int cmd_bench_suite(const Args& /*args*/, const Options& opts) {
  const std::string suite = opts.get_str("suite", "smoke");
  if (suite == "scaling") return cmd_bench_scaling(opts);
  if (suite != "smoke") usage("--suite expects smoke|scaling");
  const std::uint32_t reps = opts.get_u32("reps", 8);
  const std::uint64_t seed = effective_seed(opts, 2013);
  if (reps == 0) usage("--reps must be at least 1");
  const auto co = campaign_options(opts);
  // Shards the two Harness sweeps below by machine slot; Harness
  // guarantees byte-identical results for any worker count.
  mb::core::Executor harness_exec(co.jobs);
  using D = mb::core::Direction;

  const auto snowball = mb::arch::snowball();
  const auto xeon = mb::arch::xeon_x5550();
  const auto tegra2 = mb::arch::tegra2_node();

  auto report = new_report("bench-suite", seed, reps);
  report.add_platform(platform_info(snowball));
  report.add_platform(platform_info(xeon));
  report.add_platform(platform_info(tegra2));

  // Fig. 5: stride-1 membench on the Snowball under the anomalous
  // real-time scheduler, randomized placement — the suite's canary for
  // bimodal distributions (compare must not false-alarm on these).
  {
    mb::core::MachineFactory factory = [&](std::uint64_t s) {
      return mb::sim::Machine(snowball, mb::sim::PagePolicy::kReuseBiased,
                              mb::support::Rng(s));
    };
    mb::core::MeasurementPlan plan;
    plan.repetitions = reps * 3;  // mode detection needs a few extra samples
    plan.fresh_machine_per_rep = false;
    plan.seed = seed;
    mb::core::ParamSpace space;
    space.add("array_kb", {8, 32});
    mb::core::Workload workload = [](const mb::core::Point& pt,
                                     mb::sim::Machine& m) {
      mb::kernels::MembenchParams mp;
      mp.array_bytes =
          static_cast<std::uint64_t>(pt.get("array_kb")) * 1024;
      mp.stride_elems = 1;
      mp.elem_bits = 32;
      mp.passes = 4;
      const auto r = mb::kernels::membench_run(m, mp);
      return r.bandwidth_bytes_per_s / 1e9;
    };
    mb::core::Harness harness(
        factory,
        std::make_unique<mb::os::RealTimeAnomalous>(mb::support::Rng(seed)),
        plan);
    const auto results = harness.run(space, workload, harness_exec);
    mb::core::append_resultset(report, space, results, "fig5-rt/snowball",
                               snowball.name, "bandwidth_gbs", "GB/s",
                               D::kMaximize);
  }

  // Fig. 6: vectorization/unrolling variants of membench on the Snowball
  // under fair scheduling with randomized page placement.
  {
    mb::core::MachineFactory factory = [&](std::uint64_t s) {
      return mb::sim::Machine(snowball, mb::sim::PagePolicy::kReuseBiased,
                              mb::support::Rng(s));
    };
    mb::core::MeasurementPlan plan;
    plan.repetitions = reps;
    plan.seed = seed + 1;
    mb::core::ParamSpace space;
    space.add("bits", {32, 128});
    space.add("unroll", {1, 4});
    mb::core::Workload workload = [](const mb::core::Point& pt,
                                     mb::sim::Machine& m) {
      mb::kernels::MembenchParams mp;
      mp.array_bytes = 48 * 1024;
      mp.stride_elems = 1;
      mp.elem_bits = static_cast<std::uint32_t>(pt.get("bits"));
      mp.unroll = static_cast<std::uint32_t>(pt.get("unroll"));
      mp.passes = 4;
      const auto r = mb::kernels::membench_run(m, mp);
      return r.bandwidth_bytes_per_s / 1e9;
    };
    mb::core::Harness harness(
        factory,
        std::make_unique<mb::os::FairScheduler>(mb::support::Rng(seed + 1)),
        plan);
    const auto results = harness.run(space, workload, harness_exec);
    mb::core::append_resultset(report, space, results, "membench/snowball",
                               snowball.name, "bandwidth_gbs", "GB/s",
                               D::kMaximize);
  }

  // Short stable keys for record names (full platform metadata lives in
  // the report's "platforms" section).
  struct Node {
    const mb::arch::Platform* platform;
    const char* key;
  };
  const Node kSnowball{&snowball, "snowball"};
  const Node kXeon{&xeon, "xeon"};
  const Node kTegra2{&tegra2, "tegra2"};

  // The remaining records are independent rep-loops — ideal campaign
  // tasks. Each task reruns its serial run_reps body verbatim (same
  // policy, seeds and order within the task), so samples are
  // byte-identical to the pre-campaign suite; tasks shard across --jobs
  // and cache individually. Records are appended strictly in task order
  // after the campaign drains, keeping the report layout deterministic.
  struct PendingRecord {
    std::string name;
    std::string platform;
    std::string metric;
    std::string unit;
    D direction;
  };
  std::vector<PendingRecord> pending;
  std::vector<mb::core::CampaignTask> tasks;
  const auto add_task =
      [&](std::string name, const mb::arch::Platform& plat,
          std::string metric, std::string unit, D direction,
          mb::sim::PagePolicy policy, std::uint64_t task_seed,
          std::function<double(mb::sim::Machine&)> measure) {
        pending.push_back({name, plat.name, metric, unit, direction});
        mb::core::CampaignTask task;
        task.key = {std::string(mb::support::version()), "bench-suite",
                    plat.name, name + " reps=" + std::to_string(reps),
                    task_seed, 0};
        task.run = [&plat, policy, reps, task_seed,
                    measure = std::move(measure)]() {
          return run_reps(plat, policy, reps, task_seed, measure);
        };
        tasks.push_back(std::move(task));
      };

  // Latency curves (model self-validation points) on both Table II nodes.
  for (const Node& node : {kSnowball, kXeon}) {
    for (const std::uint64_t kb : {64, 512}) {
      add_task("latency/" + std::string(node.key) +
                   "/size_kb=" + std::to_string(kb),
               *node.platform, "ns_per_hop", "ns", D::kMinimize,
               mb::sim::PagePolicy::kReuseBiased, seed + 2 + kb,
               [seed, kb](mb::sim::Machine& m) {
                 mb::kernels::LatencyParams lp;
                 lp.buffer_bytes = kb * 1024;
                 lp.hops = 2048;
                 lp.seed = seed + kb;
                 return mb::kernels::latency_run(m, lp).ns_per_hop;
               });
    }
  }

  // Fig. 7: magicfilter unrolling staircase on Tegra2 and Xeon.
  for (const Node& node : {kTegra2, kXeon}) {
    for (const std::uint32_t unroll : {2u, 6u, 10u}) {
      add_task("magicfilter/" + std::string(node.key) +
                   "/unroll=" + std::to_string(unroll),
               *node.platform, "cycles_per_output", "cycles", D::kMinimize,
               mb::sim::PagePolicy::kConsecutive, seed + 7,
               [unroll](mb::sim::Machine& m) {
                 mb::kernels::MagicfilterParams mp;
                 mp.n = 16;
                 mp.dims = 1;
                 mp.unroll = unroll;
                 return mb::kernels::magicfilter_run(m, mp).cycles_per_output;
               });
    }
  }

  // Table II kernels on both nodes (small instances, per-core metrics).
  for (const Node& node : {kSnowball, kXeon}) {
    const mb::arch::Platform& p = *node.platform;
    const std::string key(node.key);
    add_task("linpack/" + key, p, "mflops", "MFLOPS", D::kMaximize,
             mb::sim::PagePolicy::kReuseBiased, seed + 11,
             [](mb::sim::Machine& m) {
               mb::kernels::LinpackParams lp;
               lp.n = 64;
               lp.block = 16;
               return mb::kernels::linpack_run(m, lp).mflops;
             });
    add_task("coremark/" + key, p, "iterations_per_s", "ops/s", D::kMaximize,
             mb::sim::PagePolicy::kReuseBiased, seed + 12,
             [](mb::sim::Machine& m) {
               mb::kernels::CoremarkParams cp;
               cp.iterations = 4;
               return mb::kernels::coremark_run(m, cp).iterations_per_s;
             });
    add_task("chessbench/" + key, p, "nodes_per_s", "nodes/s", D::kMaximize,
             mb::sim::PagePolicy::kReuseBiased, seed + 13,
             [](mb::sim::Machine& m) {
               mb::kernels::ChessbenchParams cp;
               cp.depth = 3;
               cp.positions = 2;
               return mb::kernels::chessbench_run(m, cp).nodes_per_s;
             });
    add_task("stencil/" + key, p, "seconds", "s", D::kMinimize,
             mb::sim::PagePolicy::kReuseBiased, seed + 14,
             [](mb::sim::Machine& m) {
               mb::kernels::StencilParams sp;
               sp.n = 10;
               sp.steps = 10;
               return mb::kernels::stencil_run(m, sp).sim.seconds;
             });
  }

  const auto campaign = run_campaign_reported(tasks, co);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    add_record(report, pending[i].name, pending[i].platform,
               pending[i].metric, pending[i].unit, pending[i].direction,
               campaign.samples[i]);
  }

  // Human-readable digest.
  mb::support::Table table({"Benchmark", "Metric", "Median", "CV %", "Modes"});
  for (const auto& r : report.records) {
    const auto sum = r.summary();
    const double cv =
        sum.mean != 0.0 ? 100.0 * sum.stddev / sum.mean : 0.0;
    table.add_row({r.name, r.metric, mb::support::fmt_eng(sum.median),
                   fmt_fixed(cv, 1), r.modes().bimodal ? "2" : "1"});
  }
  std::cout << "=== bench-suite (seed " << seed << ", " << reps
            << " reps) ===\n"
            << table;

  if (opts.has("json")) write_report(report, opts.get_str("json", ""));
  return 0;
}
// --------------------------------------------------------------------------
// fig4 / trace-export / obs-report: the paper's Sec. IV tracing workflow.

/// Runs the Fig. 4 BigDFT-on-Tibidabo scenario (kFig4Apps) with CLI
/// overrides.
mb::apps::AppRunResult run_fig4_scenario(const Options& opts,
                                         const std::string& spill_path = {}) {
  const std::uint64_t seed = effective_seed(opts, 1);
  const mb::mpi::Program program =
      mb::apps::build_program(read_app(kFig4Apps, "bigdft", opts, seed));
  mb::apps::ClusterConfig cluster =
      mb::apps::tibidabo_cluster(program.ranks() / 2);
  cluster.sim_jobs = opts.get_u32("sim-jobs", 0);
  apply_capture_options(opts, cluster, seed);
  if (!spill_path.empty()) {
    // Stream straight into the mb-trace file: memory stays bounded no
    // matter how many records the run emits.
    cluster.streaming_trace = true;
    cluster.trace_sink.spill_path = spill_path;
    cluster.trace_sink.seed = seed;
    cluster.trace_sink.tool_version = std::string(mb::support::version());
    if (cluster.trace_sink.ring_capacity == 0)
      cluster.trace_sink.ring_capacity = 65536;
  }
  mb::apps::AppRunResult result;
  {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "fig4/simulate");
    result = mb::apps::run_on_cluster(cluster, program);
  }
  result.trace.set_provenance(std::string(mb::support::version()), seed);
  if (result.trace_dropped > 0) {
    std::cerr << "trace: ring overflow dropped " << result.trace_dropped
              << " record(s); raise --trace-buffer or narrow "
                 "--trace-ranks/--trace-kinds\n";
  }
  return result;
}

int cmd_fig4(const Args& /*args*/, const Options& opts) {
  auto result = run_fig4_scenario(opts);
  write_timeseries_artifact(opts, result.timeseries,
                            effective_seed(opts, 1));

  mb::trace::CollectiveReport collectives;
  {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "fig4/analyze");
    collectives = mb::trace::analyze_collectives(result.trace, "alltoallv");
  }

  mb::obs::ScopedSpan span(mb::obs::profiler(), "fig4/report");
  std::cout << "=== fig4: BigDFT trace study ===\n"
            << "ranks:               " << result.trace.ranks() << '\n'
            << "makespan:            " << fmt_fixed(result.makespan_s, 3)
            << " s\n"
            << "alltoallv instances: " << collectives.instances.size() << '\n'
            << "median duration:     "
            << fmt_fixed(collectives.median_duration * 1e3, 2) << " ms\n"
            << "delayed (>2x med.):  " << collectives.delayed_count << '\n'
            << "partial delays seen: "
            << (collectives.has_partial_delays ? "yes" : "no") << '\n'
            << "network drops:       " << result.network_drops << "\n\n";

  mb::support::Table table({"Instance", "Start (s)", "Duration (ms)",
                            "Classification", "Slow ranks"});
  for (const auto& inst : collectives.instances) {
    table.add_row({std::to_string(inst.index), fmt_fixed(inst.start, 3),
                   fmt_fixed(inst.duration * 1e3, 2),
                   inst.delayed ? "DELAYED" : "normal",
                   inst.delayed ? std::to_string(inst.slow_ranks) : "-"});
  }
  std::cout << table << '\n';

  mb::trace::GanttOptions gopt;
  gopt.width = 100;
  gopt.max_ranks = 12;
  gopt.t1 = 1.0;
  std::cout << "--- timeline (first second) ---\n"
            << mb::trace::render_gantt(result.trace, gopt) << '\n';

  if (opts.has("trace-out")) {
    write_output(opts.get_str("trace-out", ""),
                 std::to_string(result.trace.size()) + " trace records",
                 [&](std::ostream& out) { result.trace.write_paraver(out); });
  }

  if (opts.has("json")) {
    auto report = new_report("fig4", effective_seed(opts, 1));
    using D = mb::core::Direction;
    add_record(report, "fig4/makespan", "tibidabo", "seconds", "s",
               D::kMinimize, {result.makespan_s});
    add_record(report, "fig4/delayed_collectives", "tibidabo", "count",
               "instances", D::kMinimize,
               {static_cast<double>(collectives.delayed_count)});
    add_record(report, "fig4/network_drops", "tibidabo", "count", "frames",
               D::kMinimize, {static_cast<double>(result.network_drops)});
    write_report(report, opts.get_str("json", ""));
  }
  return 0;
}

int cmd_trace_export(const Args& /*args*/, const Options& opts) {
  const std::string format = opts.get_str("format", "chrome");
  if (format != "chrome" && format != "paraver" && format != "mb-trace")
    usage("--format must be 'paraver', 'chrome' or 'mb-trace', got '" +
          format + "'");
  if (format == "mb-trace" && !opts.has("out"))
    usage("--format mb-trace writes a binary file and needs --out PATH");
  if (opts.has("input") && opts.has("timeseries-out"))
    usage("--timeseries-out samples a simulated run; --input converts an "
          "existing trace");

  // Simulate-to-mb-trace streams records into the file as the run
  // produces them (bounded memory at any rank count) — no in-memory
  // trace ever exists.
  if (format == "mb-trace" && !opts.has("input")) {
    const std::string path = opts.get_str("out", "");
    auto result = run_fig4_scenario(opts, path);
    write_timeseries_artifact(opts, result.timeseries,
                              effective_seed(opts, 1));
    std::cerr << "wrote " << path << " (mb-trace, "
              << result.trace_sampled_ranks.size()
              << " sampled ranks streamed)\n";
    return 0;
  }

  mb::trace::Trace trace;
  std::optional<mb::trace::MbTraceMeta> header;
  if (opts.has("input")) {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "trace-export/parse");
    header = load_trace(opts.get_str("input", ""), trace);
  } else {
    auto result = run_fig4_scenario(opts);
    write_timeseries_artifact(opts, result.timeseries,
                              effective_seed(opts, 1));
    trace = std::move(result.trace);
  }

  mb::obs::ScopedSpan span(mb::obs::profiler(), "trace-export/write");
  const auto write = [&](std::ostream& os) {
    if (format == "chrome") {
      mb::obs::ChromeTraceOptions copt;
      copt.delay_factor = opts.get_f64("delay-factor", 2.0);
      mb::obs::write_chrome_trace(os, trace, copt);
    } else if (format == "mb-trace") {
      // An mb-trace input keeps its header, so mb-trace -> mb-trace
      // reproduces the file.
      mb::trace::MbTraceMeta meta;
      if (header) {
        meta = *header;
      } else {
        meta.tool_version = trace.has_provenance()
                                ? trace.tool_version()
                                : std::string(mb::support::version());
        meta.seed =
            trace.has_provenance() ? trace.seed() : effective_seed(opts, 1);
        meta.total_ranks = trace.ranks();
      }
      mb::trace::write_mb_trace(os, trace, meta);
    } else {
      trace.write_paraver(os);
    }
  };
  if (!opts.has("out")) {
    write(std::cout);
    if (!std::cout) throw mb::support::Error("trace-export write failed");
    return 0;
  }
  write_output(opts.get_str("out", ""),
               format + ", " + std::to_string(trace.size()) + " records, " +
                   std::to_string(trace.ranks()) + " ranks",
               write,
               format == "mb-trace" ? std::ios::out | std::ios::binary
                                    : std::ios::out);
  return 0;
}

int cmd_analyze(const Args& /*args*/, const Options& opts) {
  mb::obs::AnalysisOptions aopt;
  aopt.delay_factor = opts.get_f64("delay-factor", aopt.delay_factor);
  aopt.late_fraction = opts.get_f64("late-fraction", aopt.late_fraction);
  if (aopt.late_fraction <= 0.0 || aopt.late_fraction >= 1.0)
    usage("--late-fraction must be in (0, 1)");
  aopt.top = static_cast<std::size_t>(opts.get_u64("top", aopt.top));

  mb::trace::Trace trace;
  mb::obs::TimeSeries timeseries;
  std::uint64_t dropped = 0;
  if (opts.has("trace")) {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "analyze/parse");
    if (const auto header = load_trace(opts.get_str("trace", ""), trace))
      dropped = header->dropped;
  } else {
    auto result = run_fig4_scenario(opts);
    write_timeseries_artifact(opts, result.timeseries,
                              effective_seed(opts, 1));
    trace = std::move(result.trace);
    timeseries = std::move(result.timeseries);
    dropped = result.trace_dropped;
  }
  if (opts.has("timeseries")) {
    timeseries = mb::obs::timeseries_from_json(
        read_input(opts.get_str("timeseries", ""), "timeseries"));
  }

  mb::obs::Analysis analysis;
  {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "analyze/analyze");
    analysis = mb::obs::analyze_timeline(
        trace, timeseries.empty() ? nullptr : &timeseries, aopt);
  }
  std::cout << mb::obs::render_analysis(analysis);
  if (dropped > 0)
    std::cerr << "note: capture dropped " << dropped
              << " record(s); wait totals are a lower bound\n";
  if (opts.has("json")) {
    write_output(opts.get_str("json", ""),
                 "mb-analysis v" +
                     std::to_string(mb::support::kAnalysisSchema.version),
                 [&](std::ostream& out) {
                   out << mb::obs::to_json(analysis) << '\n';
                 });
  }
  return 0;
}

int cmd_obs_report(const Args& args, const Options& opts) {
  const std::string text = read_input(args[0], "profile");
  mb::obs::SpanRenderOptions ropt;
  ropt.top = static_cast<std::size_t>(opts.get_u64("top", 0));
  std::cout << mb::obs::render_profile(mb::obs::profile_from_json(text),
                                       ropt);
  return 0;
}

int cmd_compare(const Args& args, const Options& opts) {
  const auto baseline =
      mb::core::report_from_json(read_input(args[0], "report"));
  const auto candidate =
      mb::core::report_from_json(read_input(args[1], "report"));
  const mb::core::CompareOptions copts = compare_options(opts);
  // Wall-clock budget gate (the scaling-gate CI job): the caller times
  // the candidate run externally and passes the measurement in, so the
  // deterministic report itself never carries machine-speed numbers.
  const double budget_s = opts.get_f64("budget-s", 0.0);
  const double wall_clock_s = opts.get_f64("wall-clock-s", -1.0);
  if (budget_s > 0.0 && wall_clock_s < 0.0)
    usage("--budget-s needs --wall-clock-s (the measured candidate wall "
          "time in seconds)");

  const auto result = mb::core::compare_reports(baseline, candidate, copts);

  mb::support::Table table(
      {"Benchmark", "Baseline", "Candidate", "Delta %", "Sigma", "Verdict"});
  for (const auto& e : result.entries) {
    const bool matched = e.verdict != mb::core::Verdict::kBaselineOnly &&
                         e.verdict != mb::core::Verdict::kCandidateOnly;
    table.add_row(
        {e.name,
         e.verdict == mb::core::Verdict::kCandidateOnly
             ? "-"
             : mb::support::fmt_eng(e.baseline_center),
         e.verdict == mb::core::Verdict::kBaselineOnly
             ? "-"
             : mb::support::fmt_eng(e.candidate_center),
         matched ? fmt_fixed(100.0 * e.rel_delta, 2) : "-",
         matched ? fmt_fixed(e.sigma_delta, 1) : "-",
         std::string(mb::core::verdict_name(e.verdict)) +
             (e.baseline_bimodal ? " (bimodal baseline)" : "")});
  }
  std::cout << table;
  std::cout << result.regressions << " regression(s), "
            << result.improvements << " improvement(s), "
            << result.unmatched << " unmatched, threshold "
            << copts.threshold_sigma << " sigma / "
            << fmt_fixed(100.0 * copts.min_rel_delta, 1) << "% min delta\n";

  // When verdicts differ, name both seeds: a regression between reports
  // measured under different seeds may be placement/scheduler noise, and
  // that must be diagnosable from this log alone.
  if (result.regressions + result.improvements > 0) {
    std::cout << "seeds: baseline " << result.baseline_seed << ", candidate "
              << result.candidate_seed;
    if (result.seeds_differ())
      std::cout << " — seeds differ; deltas may reflect placement/scheduler "
                   "noise, rerun the candidate with MB_SEED="
                << result.baseline_seed << " before trusting the verdict";
    std::cout << "\n";
  }

  // When both reports embed an observability snapshot (profiled runs),
  // name the phases whose counters moved most — attribution, not gating.
  const auto movers = mb::core::attribute_metrics(baseline, candidate);
  if (!movers.empty()) {
    constexpr std::size_t kMaxMovers = 10;
    std::cout << "\nphase attribution (informational, top metric movers):\n";
    mb::support::Table attribution(
        {"Metric", "Baseline", "Candidate", "Delta %"});
    for (std::size_t i = 0; i < movers.size() && i < kMaxMovers; ++i) {
      const auto& m = movers[i];
      // One-sided series render the absent side as "-" and say which way
      // the series went instead of a meaningless percentage.
      using Presence = mb::core::MetricDelta::Presence;
      if (m.presence == Presence::kBaselineOnly) {
        attribution.add_row(
            {m.key, mb::support::fmt_eng(m.baseline), "-", "removed"});
      } else if (m.presence == Presence::kCandidateOnly) {
        attribution.add_row(
            {m.key, "-", mb::support::fmt_eng(m.candidate), "added"});
      } else {
        attribution.add_row({m.key, mb::support::fmt_eng(m.baseline),
                             mb::support::fmt_eng(m.candidate),
                             fmt_fixed(100.0 * m.rel_delta, 2)});
      }
    }
    std::cout << attribution;
    if (movers.size() > kMaxMovers)
      std::cout << "… " << movers.size() - kMaxMovers
                << " more metric(s) moved\n";
  }

  // Name the suite on every exit-3 path: the gate log must say *which*
  // suite regressed or blew its budget without the reader re-deriving it
  // from file paths.
  const std::string suite =
      candidate.suite.empty() ? "(unnamed)" : candidate.suite;
  bool budget_exceeded = false;
  if (budget_s > 0.0) {
    budget_exceeded = wall_clock_s > budget_s;
    std::cout << "wall-clock: " << fmt_fixed(wall_clock_s, 2)
              << " s against a " << fmt_fixed(budget_s, 2)
              << " s budget for suite '" << suite << "' — "
              << (budget_exceeded ? "EXCEEDED" : "within budget") << "\n";
  }

  if (result.has_regressions() || budget_exceeded) {
    std::cout << "verdict: REGRESSED (suite '" << suite << "'";
    if (result.has_regressions())
      std::cout << ", " << result.regressions << " metric regression(s)";
    if (budget_exceeded)
      std::cout << ", wall-clock budget exceeded by "
                << fmt_fixed(wall_clock_s - budget_s, 2) << " s";
    std::cout << ")\n";
    return kExitFindings;
  }
  std::cout << "verdict: OK\n";
  return kExitOk;
}
// --------------------------------------------------------------------------
// lint / verify-mpi: the static verification layer (src/verify).

void write_diagnostics_json(const mb::verify::Report& report,
                            const std::string& source,
                            const std::string& path, std::uint64_t seed) {
  write_output(path, std::to_string(report.findings().size()) + " finding(s)",
               [&](std::ostream& out) {
                 out << mb::verify::diagnostics_to_json(report, source, seed);
               });
}

int cmd_lint(const Args& args, const Options& opts) {
  const std::string& target = args[0];
  mb::verify::Report report;
  std::string source;
  if (target == "tibidabo-tree" || target == "upgraded-tree") {
    const std::uint32_t nodes = opts.get_u32("nodes", 32);
    const auto params = target == "tibidabo-tree"
                            ? mb::net::tibidabo_tree(nodes)
                            : mb::net::upgraded_tree(nodes);
    report = mb::verify::lint_tree(params, target);
    source = "tree:" + target;
  } else {
    const auto platform = resolve_platform(target);
    report = mb::verify::lint_platform(platform);
    source = "platform:" + platform.name;
  }
  std::cout << "lint " << source << ":\n"
            << mb::verify::render_diagnostics(report);
  if (opts.has("json"))
    write_diagnostics_json(report, source, opts.get_str("json", ""),
                           effective_seed(opts, 0));
  return report.has_errors() ? kExitFindings : kExitOk;
}

/// Prints `report` and exits 3 when it carries error findings — the shared
/// gate for configuration rules (CFG001 replaces the ad-hoc "--ranks must
/// be positive and even" checks scattered through the scenario commands).
void enforce_clean(const mb::verify::Report& report) {
  if (!report.has_errors()) return;
  std::cerr << mb::verify::render_diagnostics(report);
  // Configuration lint runs before the simulation spins up any threads.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  std::exit(kExitFindings);
}

/// The seeded defect fixture behind `verify-mpi demo-deadlock`: a classic
/// recv/send tag mismatch. Both ranks post their receive first, each with
/// a tag the other never sends — a two-rank wait-for cycle the verifier
/// must name end to end (rule, ranks, op indices, cycle chain).
mb::mpi::Program demo_deadlock_program() {
  mb::mpi::Program program(2);
  program.append(0, mb::mpi::Op::recv(1, 2));
  program.append(0, mb::mpi::Op::send(1, 1024, 1));
  program.append(1, mb::mpi::Op::recv(0, 1));
  program.append(1, mb::mpi::Op::send(0, 1024, 3));
  return program;
}

/// The platform half of an analyze-static / verify-mpi --cost question:
/// --tree picks the switch generation, --mtu the frame granularity. The
/// node count follows the program (2 ranks per node, as every cluster
/// command packs them).
mb::verify::CostDescriptor descriptor_for(const mb::mpi::Program& program,
                                          const Options& opts) {
  mb::verify::CostDescriptor d;
  const std::uint32_t nodes = program.ranks() / d.cores_per_node;
  d.tree = read_tree(opts) == "tibidabo" ? mb::net::tibidabo_tree(nodes)
                                         : mb::net::upgraded_tree(nodes);
  d.mtu_bytes = opts.get_u32("mtu", d.mtu_bytes);
  if (d.mtu_bytes == 0) usage("--mtu must be positive");
  return d;
}

/// The static half of analyze-static and verify-mpi --cost: bounds on the
/// --tree/--mtu platform plus the PERF findings. A --faults plan must lint
/// clean on the program's cluster (2 ranks per node) first, as chaos and
/// advise require.
std::pair<mb::verify::CostReport, mb::verify::Report> static_perf(
    const mb::mpi::Program& program, const Options& opts) {
  const auto descriptor = descriptor_for(program, opts);
  const std::optional<mb::fault::FaultPlan> plan = load_fault_plan(opts);
  if (plan)
    enforce_clean(mb::verify::lint_fault_plan(*plan, program.ranks() / 2));
  auto cost = mb::verify::analyze_cost(program, descriptor);
  auto perf = mb::verify::perf_pass(program, descriptor, cost,
                                    plan ? &*plan : nullptr);
  return {std::move(cost), std::move(perf)};
}

int cmd_verify_mpi(const Args& args, const Options& opts) {
  const std::string& app = args[0];
  const std::uint64_t seed = effective_seed(opts, 1);
  const mb::mpi::Program program =
      app == "demo-deadlock"
          ? demo_deadlock_program()
          : mb::apps::build_program(read_app(kStaticApps, app, opts, seed));

  auto report = mb::verify::verify_program(program);
  std::cout << "verify-mpi " << app << " (" << program.ranks()
            << " ranks):\n"
            << mb::verify::render_diagnostics(report);

  // --cost: run the pass-3 interpreter on top and fold the PERF findings
  // into the same report/exit/JSON. Bounds of a broken schedule are
  // meaningless, so errors skip the cost pass (and already exit 3).
  if (opts.has("cost")) {
    if (report.has_errors()) {
      std::cout << "cost: skipped (fix the errors above first; bounds of "
                   "a broken schedule are meaningless)\n";
    } else {
      const auto [cost, perf] = static_perf(program, opts);
      std::cout << '\n'
                << mb::verify::render_cost(cost)
                << "perf rules:\n"
                << mb::verify::render_diagnostics(perf);
      report.merge(perf);
    }
  }

  if (opts.has("json"))
    write_diagnostics_json(report, app, opts.get_str("json", ""), seed);
  return report.has_errors() ? kExitFindings : kExitOk;
}

// --------------------------------------------------------------------------
// analyze-static: the pass-3 abstract cost interpreter (src/verify).

int cmd_analyze_static(const Args& args, const Options& opts) {
  const std::string& app = args[0];
  const std::uint64_t seed = effective_seed(opts, 1);
  const mb::mpi::Program program =
      mb::apps::build_program(read_app(kStaticApps, app, opts, seed));

  // Bounds are only defined for programs that verify clean: a deadlocked
  // or unmatched schedule never finishes, so there is nothing to bound.
  const auto verdict = mb::verify::verify_program(program);
  if (verdict.has_errors()) {
    std::cerr << mb::verify::render_diagnostics(verdict)
              << "analyze-static: the program fails verify-mpi; run "
                 "`mbctl verify-mpi` and fix the errors first\n";
    return kExitFindings;
  }

  mb::verify::CostReport cost;
  mb::verify::Report perf;
  {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "analyze-static/run");
    std::tie(cost, perf) = static_perf(program, opts);
  }

  std::cout << "=== analyze-static: " << app << " on " << read_tree(opts)
            << " tree ===\n"
            << mb::verify::render_cost(cost) << "perf rules:\n"
            << mb::verify::render_diagnostics(perf);

  if (opts.has("json")) {
    write_output(
        opts.get_str("json", ""),
        std::to_string(perf.findings().size()) + " finding(s)",
        [&](std::ostream& out) {
          out << mb::verify::static_analysis_to_json(cost, app, seed, perf);
        });
  }
  return perf.has_errors() ? kExitFindings : kExitOk;
}

// --------------------------------------------------------------------------
// chaos: fault-injection scenarios (src/fault) — run an application under
// a declarative FaultPlan with failure detection and checkpoint/restart.

int cmd_chaos(const Args& args, const Options& opts) {
  const std::string& app = args[0];
  // --faults is required: see the table.
  mb::fault::FaultPlan plan = load_fault_plan(opts).value();
  plan.seed = effective_seed(opts, plan.seed);

  // Checkpoint-model overrides; setting an interval or size implies `on`.
  if (opts.has("checkpoint")) {
    const std::string v = opts.get_str("checkpoint", "on");
    if (v != "on" && v != "off") usage("--checkpoint expects on|off");
    plan.checkpoint.enabled = v == "on";
  }
  if (opts.has("checkpoint-interval")) {
    plan.checkpoint.enabled = true;
    plan.checkpoint.interval_s = opts.get_f64("checkpoint-interval", 0.0);
  }
  if (opts.has("checkpoint-mb")) {
    plan.checkpoint.enabled = true;
    plan.checkpoint.state_bytes_per_rank =
        static_cast<double>(opts.get_scaled("checkpoint-mb", 64, 20));
  }

  const mb::mpi::Program program =
      mb::apps::build_program(read_app(kChaosApps, app, opts, plan.seed));
  const std::uint32_t ranks = program.ranks();
  mb::fault::ChaosScenario scenario =
      chaos_scenario(ranks / 2, read_recovery(opts));
  apply_capture_options(opts, scenario.cluster, plan.seed);
  enforce_clean(mb::verify::lint_fault_plan(plan, scenario.cluster.nodes));
  scenario.plan = plan;

  mb::fault::ChaosResult result;
  {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "chaos/run");
    result = mb::fault::run_chaos(scenario, program);
  }

  const auto& rec = result.recovery;
  std::cout << "=== chaos: " << app << " under "
            << opts.get_str("faults", "") << " ===\n"
            << "ranks:            " << ranks << " on "
            << scenario.cluster.nodes << " nodes\n"
            << "outcome:          "
            << (result.completed
                    ? (result.recovered ? "RECOVERED" : "COMPLETED")
                    : "UNRECOVERED")
            << " after " << result.attempts << " attempt(s)\n"
            << "app makespan:     " << fmt_fixed(result.app_makespan_s, 3)
            << " s\n"
            << "time-to-solution: "
            << fmt_fixed(result.time_to_solution_s, 3) << " s\n"
            << "recovery cost:    " << fmt_fixed(rec.total(), 3)
            << " s (checkpoints " << fmt_fixed(rec.checkpoint_write_s, 3)
            << ", lost work " << fmt_fixed(rec.lost_work_s, 3)
            << ", detection " << fmt_fixed(rec.detection_s, 3)
            << ", restart " << fmt_fixed(rec.restart_s, 3) << ")\n"
            << "network:          " << result.network_drops << " drops, "
            << result.retransmits << " retransmits, "
            << result.injected_losses << " injected losses\n";

  result.trace.set_provenance(std::string(mb::support::version()),
                              plan.seed);
  write_timeseries_artifact(opts, result.timeseries, plan.seed);
  if (opts.has("trace-out")) {
    write_output(opts.get_str("trace-out", ""),
                 std::to_string(result.trace.size()) +
                     " trace records, fault marks included",
                 [&](std::ostream& out) { result.trace.write_paraver(out); });
  }

  if (opts.has("json")) {
    auto report = new_report("chaos", plan.seed);
    using D = mb::core::Direction;
    const std::string base = "chaos/" + app;
    add_record(report, base + "/time_to_solution", "tibidabo", "seconds",
               "s", D::kMinimize, {result.time_to_solution_s});
    add_record(report, base + "/app_makespan", "tibidabo", "seconds", "s",
               D::kMinimize, {result.app_makespan_s});
    add_record(report, base + "/restarts", "tibidabo", "count", "restarts",
               D::kMinimize, {static_cast<double>(result.attempts - 1)});
    add_record(report, base + "/recovery_overhead", "tibidabo", "seconds",
               "s", D::kMinimize, {rec.total()});
    add_record(report, base + "/network_drops", "tibidabo", "count",
               "frames", D::kMinimize,
               {static_cast<double>(result.network_drops)});
    add_record(report, base + "/retransmits", "tibidabo", "count", "frames",
               D::kMinimize, {static_cast<double>(result.retransmits)});
    add_record(report, base + "/injected_losses", "tibidabo", "count",
               "frames", D::kMinimize,
               {static_cast<double>(result.injected_losses)});
    // An unrecovered run embeds the structured failure report so CI can
    // act on it (dead ranks, blocked ops, detection time) instead of
    // scraping the stderr rendering.
    if (!result.completed) {
      report.failure.present = true;
      report.failure.dead_ranks = result.failure.dead_ranks;
      for (const mb::mpi::BlockedOp& b : result.failure.blocked) {
        mb::core::RunFailure::Blocked blocked;
        blocked.rank = b.rank;
        blocked.peer = b.peer;
        blocked.tag = b.tag;
        blocked.op_index = b.op_index;
        blocked.since_s = b.since_s;
        blocked.timed_out = b.timed_out;
        report.failure.blocked.push_back(blocked);
      }
      report.failure.detected_s = result.failure.detected_s;
    }
    write_report(report, opts.get_str("json", ""));
  }

  if (!result.completed) {
    std::cerr << result.failure.to_string();
    return kExitFindings;
  }
  return kExitOk;
}
// --------------------------------------------------------------------------
// advise: recommendation engine + guarded apply (src/advise). The bigdft
// mode measures the same scenario `chaos bigdft` runs (same defaults), so
// a chaos investigation and the advice about it describe the same run.

/// Everything that shapes a bigdft advise arm besides its rep seed. The
/// campaign cache key folds a hash of this in, so editing the fault plan
/// or any knob invalidates cached arm samples instead of replaying stale
/// ones.
struct BigDftArmConfig {
  mb::apps::BigDftParams params;
  mb::fault::FaultPlan plan;
  std::uint32_t nodes = 0;
  Recovery recovery;
  // Candidate-side deviations from the measured configuration.
  std::uint32_t extra_nodes = 0;        ///< spare nodes appended
  std::vector<std::uint32_t> rank_map;  ///< empty = node-major default
  std::string rewrite_allreduce_label;  ///< non-empty = switch algorithm
  double checkpoint_interval_s = 0.0;   ///< > 0 = override the interval
};

/// One time-to-solution sample of a bigdft chaos configuration. The rep
/// seed drives the application's compute skew; the fault-plan seed stays
/// fixed — the injected environment is the hypothesis under test, not a
/// noise source.
double measure_bigdft_arm(const BigDftArmConfig& cfg,
                          std::uint64_t rep_seed) {
  mb::apps::BigDftParams params = cfg.params;
  params.seed = rep_seed;
  mb::mpi::Program program = mb::apps::bigdft_program(params);
  if (!cfg.rewrite_allreduce_label.empty())
    program =
        mb::advise::rewrite_allreduce(program, cfg.rewrite_allreduce_label);
  mb::fault::ChaosScenario scenario =
      chaos_scenario(cfg.nodes + cfg.extra_nodes, cfg.recovery);
  scenario.cluster.rank_map = cfg.rank_map;
  scenario.plan = cfg.plan;
  if (cfg.checkpoint_interval_s > 0.0) {
    scenario.plan.checkpoint.enabled = true;
    scenario.plan.checkpoint.interval_s = cfg.checkpoint_interval_s;
  }
  const mb::fault::ChaosResult result =
      mb::fault::run_chaos(scenario, program);
  mb::support::check(result.completed, "advise --apply",
                     "an apply arm did not complete — the candidate "
                     "configuration broke recovery");
  return result.time_to_solution_s;
}

/// Shared tail of both advise modes: render to stdout, publish the
/// advise.* counters, optionally write the mb-advice document.
void write_advice_outputs(const mb::advise::AdviceReport& report,
                          const Options& opts) {
  std::cout << mb::advise::render_advice(report);
  mb::advise::publish_advice_metrics(report);
  if (opts.has("json")) {
    write_output(opts.get_str("json", ""),
                 std::to_string(report.recommendations.size()) +
                     " recommendation(s)",
                 [&](std::ostream& out) {
                   out << mb::advise::to_json(report) << '\n';
                 });
  }
}

/// Guarded apply for the bigdft scenario: per appliable recommendation,
/// re-measures baseline vs candidate arms through the campaign cache and
/// records the accepted/rejected verdict via the compare noise gate.
void apply_bigdft(mb::advise::AdviceReport& report,
                  const BigDftArmConfig& base, const Options& opts) {
  mb::advise::ApplyOptions apply = apply_options(opts);
  apply.seed = base.plan.seed;
  apply.metric = "seconds";
  apply.unit = "s";
  // Chaos arms publish to the single-threaded obs registry, so the
  // campaign must not shard them: --jobs N still resolves cache hits but
  // misses run serially, keeping output byte-identical for any N.
  apply.serial_only = true;
  mb::support::Hasher hasher;
  hasher.str(mb::fault::to_json(base.plan))
      .u64(base.params.ranks)
      .u64(base.params.iterations)
      .f64(base.params.compute_s_per_iter)
      .u64(base.params.transpose_bytes)
      .f64(base.recovery.recv_timeout_s)
      .u64(base.recovery.send_retries)
      .u64(base.recovery.max_restarts);
  apply.config_hash = hasher.digest();

  const mb::advise::Arm baseline{"baseline",
                                 [&base](std::uint64_t rep_seed) {
                                   return measure_bigdft_arm(base, rep_seed);
                                 }};
  for (mb::advise::Recommendation& rec : report.recommendations) {
    if (!rec.appliable) continue;
    BigDftArmConfig cand = base;
    if (rec.kind == mb::advise::Kind::kRemapRanks) {
      // Vacate the degraded node onto a spare appended to the cluster;
      // every other rank keeps its node-major home.
      const auto degraded = static_cast<std::uint32_t>(rec.proposed_value);
      for (std::uint32_t r = 0; r < base.params.ranks; ++r) {
        const std::uint32_t home = r / 2;
        cand.rank_map.push_back(home == degraded ? base.nodes : home);
      }
      cand.extra_nodes = 1;
    } else if (rec.kind == mb::advise::Kind::kSwitchCollective) {
      cand.rewrite_allreduce_label = rec.target;
    } else if (rec.kind == mb::advise::Kind::kCheckpointInterval) {
      cand.checkpoint_interval_s = rec.proposed_value;
    } else {
      continue;  // no mechanical arm for this kind
    }
    const mb::advise::Arm candidate{
        rec.id, [&cand](std::uint64_t rep_seed) {
          return measure_bigdft_arm(cand, rep_seed);
        }};
    mb::advise::verify_recommendation(rec, report.scenario, baseline,
                                      candidate, apply);
  }
  report.applied = true;
}

int cmd_advise_bigdft(const Options& opts) {
  auto plan = load_fault_plan(opts).value_or(mb::fault::FaultPlan{});
  plan.seed = effective_seed(opts, plan.seed);

  BigDftArmConfig cfg;
  cfg.params = std::get<mb::apps::BigDftParams>(
      read_app(kChaosApps, "bigdft", opts, plan.seed));
  cfg.plan = plan;
  cfg.nodes = cfg.params.ranks / 2;
  cfg.recovery = read_recovery(opts);

  const mb::mpi::Program program = mb::apps::bigdft_program(cfg.params);

  // Measure once: the run every piece of evidence points back into.
  mb::fault::ChaosScenario scenario = chaos_scenario(cfg.nodes, cfg.recovery);
  enforce_clean(mb::verify::lint_fault_plan(plan, scenario.cluster.nodes));
  scenario.plan = plan;
  mb::fault::ChaosResult measured;
  {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "advise/measure");
    measured = mb::fault::run_chaos(scenario, program);
  }
  if (!measured.completed) {
    std::cerr << "advise: the measured scenario did not complete — fix "
                 "recovery before tuning performance\n"
              << measured.failure.to_string();
    return kExitFindings;
  }
  measured.trace.set_provenance(std::string(mb::support::version()),
                                plan.seed);
  const mb::obs::Analysis analysis =
      mb::obs::analyze_timeline(measured.trace, nullptr, {});

  // Independent static view of the same program: contention-free bounds
  // plus the PERF rule pack (the advisor cross-references both).
  const mb::verify::CostDescriptor descriptor =
      descriptor_for(program, opts);
  const mb::verify::CostReport cost =
      mb::verify::analyze_cost(program, descriptor);
  const mb::verify::Report perf =
      mb::verify::perf_pass(program, descriptor, cost, &plan);

  mb::advise::ScenarioFacts facts;
  facts.analysis = &analysis;
  facts.cost = &cost;
  facts.perf = &perf;
  facts.plan = &plan;
  facts.ranks = cfg.params.ranks;
  facts.cores_per_node = 2;
  facts.measured_makespan_s = measured.time_to_solution_s;
  facts.sim_jobs = opts.get_u32("sim-jobs", 0);

  mb::advise::AdviceReport report;
  report.scenario = "chaos:bigdft";
  report.seed = plan.seed;
  report.recommendations = mb::advise::advise_scenario(facts);
  mb::advise::rank_recommendations(report);

  if (opts.has("apply")) apply_bigdft(report, cfg, opts);

  write_advice_outputs(report, opts);
  return kExitOk;
}

int cmd_advise_magicfilter(const Options& opts) {
  const auto platform =
      resolve_platform(opts.get_str("platform", "tegra2"));
  const std::uint64_t seed = effective_seed(opts, 1);
  const std::uint32_t current = opts.get_u32("unroll", 1);
  if (current < 1 || current > 12) usage("--unroll must be in 1..12");
  // The same measurement as tune-magicfilter, under the same cache keys.
  const auto sweep =
      sweep_magicfilter(platform, seed, campaign_options(opts));

  // Place the current variant on the hierarchical roofline — the
  // recommendation's evidence for what bounds the kernel and how much
  // vector headroom is left.
  mb::sim::Machine machine(
      platform, mb::sim::PagePolicy::kConsecutive,
      mb::support::Rng(mb::support::derive_seed(seed, 0x616476)));
  const mb::kernels::MagicfilterParams params = magicfilter_params(current);
  const auto run = mb::kernels::magicfilter_run(machine, params);
  const auto hier = mb::sim::hierarchical_dp_roofline(platform);
  const std::uint64_t working_set =
      2ull * params.n * params.n * params.n * sizeof(double);
  const auto placement = mb::sim::place_on_hierarchy(
      hier, "magicfilter", run.sim, 1, working_set, false);

  mb::advise::AdviceReport report;
  report.scenario = "magicfilter:" + platform.name;
  report.seed = seed;
  report.recommendations = mb::advise::advise_kernel(
      platform, "magicfilter", sweep, current, placement);
  mb::advise::rank_recommendations(report);

  if (opts.has("apply")) {
    mb::advise::ApplyOptions apply = apply_options(opts);
    apply.seed = seed;
    apply.metric = "cycles_per_output";
    apply.unit = "cycles";
    mb::support::Hasher hasher;
    hasher.str(platform.name).u64(params.n).u64(params.dims).u64(current);
    apply.config_hash = hasher.digest();
    // Pure-machine arms: no shared state, so these may shard across
    // --jobs workers (serial_only stays false).
    auto arm = [&platform](std::string name, std::uint32_t unroll) {
      return mb::advise::Arm{
          std::move(name), [&platform, unroll](std::uint64_t rep_seed) {
            mb::sim::Machine m(platform, mb::sim::PagePolicy::kConsecutive,
                               mb::support::Rng(rep_seed));
            return mb::kernels::magicfilter_run(m, magicfilter_params(unroll))
                .cycles_per_output;
          }};
    };
    for (mb::advise::Recommendation& rec : report.recommendations) {
      if (!rec.appliable) continue;
      mb::advise::verify_recommendation(
          rec, report.scenario, arm("baseline", current),
          arm(rec.id, static_cast<std::uint32_t>(rec.proposed_value)),
          apply);
    }
    report.applied = true;
  }

  write_advice_outputs(report, opts);
  return kExitOk;
}

int cmd_advise(const Args& args, const Options& opts) {
  const std::string& target = args[0];
  if (target == "bigdft") return cmd_advise_bigdft(opts);
  if (target == "magicfilter") return cmd_advise_magicfilter(opts);
  usage("unknown advise target '" + target + "' (bigdft|magicfilter)");
}
// --------------------------------------------------------------------------
// fuzz / replay: differential fuzzing and mb-repro record/replay.

/// `count` seeds from `first` on. A count, not an end, so that the range
/// of the top seed, whose end would be 2^64, still fits.
struct SeedRange {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// "--seeds A..B" (half-open) or "--seeds N" (the single seed N).
SeedRange parse_seed_range(const std::string& spec) {
  const auto dots = spec.find("..");
  const auto lo = parse_u64(spec.substr(0, dots));
  const auto hi =
      dots == std::string::npos ? lo : parse_u64(spec.substr(dots + 2));
  if (!lo || !hi)
    usage("--seeds expects N or A..B (half-open), got '" + spec + "'");
  if (dots == std::string::npos) return {*lo, 1};
  if (*lo >= *hi) usage("--seeds range is empty: '" + spec + "'");
  if (*hi - *lo > 1000000) usage("--seeds range covers more than 1e6 seeds");
  return {*lo, *hi - *lo};
}

void write_bundle_file(const mb::gen::ReproBundle& bundle,
                       const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  write_output(path, "mb-repro bundle, oracle " + bundle.oracle,
               [&](std::ostream& out) {
                 out << mb::gen::to_json(bundle) << '\n';
               });
}

int cmd_fuzz(const Args& /*args*/, const Options& opts) {
  const SeedRange range = parse_seed_range(opts.get_str("seeds", "0..100"));
  const std::uint64_t base_seed = effective_seed(opts, 2013);

  mb::gen::SweepSpec spec;
  if (opts.has("pattern")) {
    try {
      spec.base.pattern =
          mb::gen::parse_pattern(opts.get_str("pattern", "mixed"));
    } catch (const mb::support::Error& e) {
      usage(e.what());
    }
    spec.pin_pattern = true;
  }
  if (opts.has("ranks")) {
    spec.base.ranks = opts.get_u32("ranks", 8);
    enforce_clean(mb::verify::lint_rank_count(spec.base.ranks, 2, "--ranks"));
    spec.pin_ranks = true;
  }
  if (opts.has("rounds")) {
    spec.base.rounds = opts.get_u32("rounds", 3);
    spec.pin_rounds = true;
  }
  spec.base.min_bytes = opts.get_u64("min-bytes", spec.base.min_bytes);
  spec.base.max_bytes = opts.get_u64("max-bytes", spec.base.max_bytes);
  spec.base.defect_prob = opts.get_f64("defect-rate", 0.2);
  if (spec.base.defect_prob < 0.0 || spec.base.defect_prob > 1.0)
    usage("--defect-rate must be in [0, 1]");

  mb::gen::DiffConfig config;
  config.tree = read_tree(opts);
  config.sim_jobs = opts.get_u32("sim-jobs", 2);
  config.pretend_clean = opts.has("pretend-clean");
  const std::uint64_t chaos_every = opts.get_u64("chaos-every", 25);

  const std::uint32_t jobs = opts.get_u32("jobs", 1);
  if (jobs == 0) usage("--jobs must be at least 1");

  const std::size_t n = range.count;
  if (opts.has("bundle-out") && n != 1)
    usage("--bundle-out records a single seed; use --seeds N");

  // Derive every (seed, params) pair, then generate the programs across
  // --jobs workers — generation is pure, so the output is byte-identical
  // for any worker count. The oracles themselves run serially: every arm
  // executes the DES, which publishes to the single-threaded metrics
  // registry.
  std::vector<std::uint64_t> gen_seeds(n);
  std::vector<mb::gen::GenParams> params(n);
  for (std::size_t i = 0; i < n; ++i) {
    gen_seeds[i] = mb::support::derive_seed(base_seed, range.first + i);
    params[i] = mb::gen::sweep_params(gen_seeds[i], spec);
  }
  std::vector<mb::gen::GeneratedProgram> programs(n);
  {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "fuzz/generate");
    mb::support::Executor executor(jobs);
    executor.run(n, [&](std::size_t i) {
      programs[i] = mb::gen::generate(gen_seeds[i], params[i]);
    });
  }

  const std::string bundle_dir = opts.get_str("bundle-dir", "fuzz-bundles");
  std::size_t clean = 0;
  std::size_t defective = 0;
  std::size_t chaos_arms = 0;
  std::size_t discrepancies = 0;
  // The end wraps to 0 only for the top seed's range; it is 2^64 there.
  const std::uint64_t end = range.first + range.count;
  std::cout << "=== fuzz: seeds [" << range.first << ", "
            << (end != 0 ? std::to_string(end) : "18446744073709551616")
            << ") base seed " << base_seed << " on " << config.tree
            << " ===\n";
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed_index = range.first + i;
    mb::gen::DiffConfig seed_config = config;
    seed_config.with_chaos =
        chaos_every > 0 && seed_index % chaos_every == 0;

    mb::gen::SeedOutcome outcome;
    {
      mb::obs::ScopedSpan span(mb::obs::profiler(), "fuzz/differential");
      outcome = mb::gen::run_differential(gen_seeds[i], params[i],
                                          programs[i], seed_config);
    }
    if (outcome.defect.empty()) {
      ++clean;
    } else {
      ++defective;
    }
    if (outcome.has_chaos) ++chaos_arms;

    if (!outcome.ok()) {
      ++discrepancies;
      std::cout << "seed " << seed_index << " ("
                << mb::gen::pattern_name(params[i].pattern)
                << (outcome.defect.empty() ? ""
                                           : ", defect " + outcome.defect)
                << "): FAILED " << outcome.failed_oracle << "\n";
      for (const std::string& d : outcome.discrepancies)
        std::cout << "  - " << d << "\n";
      write_bundle_file(
          mb::gen::make_bundle(outcome, seed_config, base_seed),
          bundle_dir + "/mb-repro-seed" + std::to_string(seed_index) +
              ".json");
    }
    // --bundle-out records the seed unconditionally (known-good capture).
    if (opts.has("bundle-out"))
      write_bundle_file(mb::gen::make_bundle(outcome, seed_config, base_seed),
                        opts.get_str("bundle-out", ""));
  }

  std::cout << "programs:      " << n << " (" << clean << " clean, "
            << defective << " defective)\n"
            << "chaos arms:    " << chaos_arms << "\n"
            << "discrepancies: " << discrepancies << "\n";

  if (opts.has("json")) {
    auto report = new_report("fuzz", base_seed);
    using D = mb::core::Direction;
    add_record(report, "fuzz/programs", config.tree, "count", "programs",
               D::kMaximize, {static_cast<double>(n)});
    add_record(report, "fuzz/clean", config.tree, "count", "programs",
               D::kMaximize, {static_cast<double>(clean)});
    add_record(report, "fuzz/defective", config.tree, "count", "programs",
               D::kMaximize, {static_cast<double>(defective)});
    add_record(report, "fuzz/chaos_arms", config.tree, "count", "runs",
               D::kMaximize, {static_cast<double>(chaos_arms)});
    add_record(report, "fuzz/discrepancies", config.tree, "count", "seeds",
               D::kMinimize, {static_cast<double>(discrepancies)});
    write_report(report, opts.get_str("json", ""));
  }

  return discrepancies == 0 ? kExitOk : kExitFindings;
}

int cmd_replay(const Args& args, const Options& opts) {
  const std::string& path = args[0];
  const mb::gen::ReproBundle bundle =
      mb::gen::bundle_from_json(read_input(path, "bundle"));
  if (bundle.tool_version != mb::support::version())
    std::cerr << "note: bundle was recorded by tool version "
              << bundle.tool_version << ", this is "
              << mb::support::version()
              << " — digest mismatches may be version drift\n";
  // --jobs is accepted for symmetry with fuzz (a replay is a single-seed
  // pipeline, byte-identical for any worker count); --sim-jobs genuinely
  // re-parameterizes the sharded arm, whose digests must not change.
  (void)opts.get_u32("jobs", 1);
  const int sim_jobs_override =
      opts.has("sim-jobs")
          ? static_cast<int>(opts.get_u32("sim-jobs", 0, INT32_MAX))
          : -1;

  mb::gen::ReplayOutcome rep;
  {
    mb::obs::ScopedSpan span(mb::obs::profiler(), "replay/differential");
    rep = mb::gen::replay_bundle(bundle, sim_jobs_override);
  }
  const mb::gen::SeedOutcome& got = rep.observed;

  std::cout << "=== replay: " << path << " ===\n"
            << "generator:     seed " << bundle.gen_seed << ", "
            << mb::gen::pattern_name(bundle.params.pattern) << ", "
            << bundle.params.ranks << " ranks, " << bundle.params.rounds
            << " rounds\n"
            << "platform:      " << bundle.platform.tree << ", "
            << bundle.platform.nodes << " nodes, sim-jobs "
            << (sim_jobs_override >= 0 ? sim_jobs_override
                                       : static_cast<int>(
                                             bundle.platform.sim_jobs))
            << "\n"
            << "recorded for:  oracle " << bundle.oracle
            << (bundle.note.empty() ? "" : " (" + bundle.note + ")") << "\n"
            << "verifier:      " << got.verifier_errors << " error(s), digest "
            << mb::support::hex64(got.verifier_digest) << "\n"
            << "des:           "
            << (got.des_completed ? "completed" : "did not complete")
            << ", digest " << mb::support::hex64(got.des_digest) << "\n";
  if (got.has_sharded)
    std::cout << "sharded:       digest "
              << mb::support::hex64(got.sharded_digest) << "\n";
  if (got.has_static)
    std::cout << "static:        digest "
              << mb::support::hex64(got.static_digest) << "\n";
  if (got.has_chaos)
    std::cout << "chaos:         digest "
              << mb::support::hex64(got.chaos_digest) << "\n";

  if (opts.has("bundle-out")) {
    // Re-emit the bundle with the observed digests but the original
    // capture metadata (platform, oracle, note), so replays from any
    // --jobs/--sim-jobs variant byte-compare equal to each other and —
    // when every digest matches — to the original bundle.
    mb::gen::ReproBundle observed = bundle;
    observed.expected.verifier_digest = got.verifier_digest;
    observed.expected.verifier_errors = got.verifier_errors;
    observed.expected.des_digest = got.des_digest;
    observed.expected.des_completed = got.des_completed;
    double makespan = got.makespan_s;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &makespan, sizeof bits);
    observed.expected.makespan_bits = bits;
    observed.expected.has_sharded = got.has_sharded;
    observed.expected.sharded_digest = got.sharded_digest;
    observed.expected.has_static = got.has_static;
    observed.expected.static_digest = got.static_digest;
    observed.expected.has_chaos = got.has_chaos;
    observed.expected.chaos_digest = got.chaos_digest;
    write_bundle_file(observed, opts.get_str("bundle-out", ""));
  }

  if (!rep.match()) {
    std::cout << "result:        MISMATCH (" << rep.mismatches.size()
              << ")\n";
    for (const std::string& m : rep.mismatches)
      std::cout << "  - " << m << "\n";
    return kExitFindings;
  }
  std::cout << "result:        OK — every recorded digest reproduced\n";
  return kExitOk;
}

// --------------------------------------------------------------------------
// The command table: every command, its positionals and flags. Options
// accepts exactly these flags, usage() is generated from them, and
// tools/check_docs.py checks docs/cli.md against `mbctl help`.

constexpr Command kCommands[] = {
    {"platforms", "", cmd_platforms},
    {"version", "",
     [](const Args&, const Options&) {
       std::cout << "mbctl " << mb::support::version() << '\n';
       return 0;
     }},
    {"show", "<platform>",
     [](const Args& args, const Options&) {
       std::cout << mb::arch::serialize_platform(resolve_platform(args[0]));
       return 0;
     }},
    {"topology", "<platform>",
     [](const Args& args, const Options&) {
       std::cout << mb::arch::render_topology(resolve_platform(args[0]));
       return 0;
     }},
    {"roofline", "<platform> [--seed N] [--json PATH]", cmd_roofline},
    {"membench",
     "<platform> [--size-kb N] [--stride N] [--bits B] [--unroll N] "
     "[--passes N] [--reps N] [--seed N] [--json PATH] [campaign opts]",
     cmd_membench},
    {"latency",
     "<platform> [--size-kb N] [--hops N] [--reps N] [--seed N] "
     "[--json PATH] [campaign opts]",
     cmd_latency},
    {"tune-magicfilter",
     "<platform> [--seed N] [--json PATH] [campaign opts]",
     cmd_tune_magicfilter},
    {"bench-suite",
     "[--suite smoke|scaling] [--reps N] [--ranks R1,R2,...] [--sim-jobs N] "
     "[--seed N] [--json PATH] [campaign opts]",
     cmd_bench_suite},
    {"fig4",
     "[--sim-jobs N] [--seed N] [--trace-out PATH] [--json PATH] "
     "[bigdft opts] [capture opts]",
     cmd_fig4},
    {"trace-export",
     "[--input trace.{prv,mbt}] [--format paraver|chrome|mb-trace] "
     "[--out PATH] [--delay-factor X] [--sim-jobs N] [--seed N] "
     "[bigdft opts] [capture opts]",
     cmd_trace_export},
    {"analyze",
     "[--trace trace.{prv,mbt}] [--timeseries ts.json] [--delay-factor X] "
     "[--late-fraction X] [--top N] [--sim-jobs N] [--seed N] [--json PATH] "
     "[bigdft opts] [capture opts]",
     cmd_analyze},
    {"obs-report", "<profile.json> [--top N]", cmd_obs_report},
    {"compare",
     "<baseline.json> <candidate.json> [--threshold-sigma X] [--min-rel X] "
     "[--budget-s X] [--wall-clock-s T]",
     cmd_compare},
    {"lint",
     "<platform|tibidabo-tree|upgraded-tree> [--nodes N] [--seed N] "
     "[--json PATH]",
     cmd_lint},
    {"verify-mpi",
     "<fig4|bigdft|hpl|specfem|demo-deadlock> [--cost] "
     "[--tree tibidabo|upgraded] [--mtu N] [--faults plan.json] [--seed N] "
     "[--json PATH] [bigdft opts] [hpl opts] [specfem opts]",
     cmd_verify_mpi},
    {"analyze-static",
     "<fig4|bigdft|hpl|specfem> [--tree tibidabo|upgraded] [--mtu N] "
     "[--faults plan.json] [--seed N] [--json PATH] [bigdft opts] "
     "[hpl opts] [specfem opts]",
     cmd_analyze_static},
    {"chaos",
     "<bigdft|hpl|specfem> --faults plan.json [--checkpoint on|off] "
     "[--checkpoint-interval X] [--checkpoint-mb N] [--seed N] "
     "[--trace-out PATH] [--json PATH] [bigdft opts] [hpl opts] "
     "[specfem opts] [recovery opts] [capture opts]",
     cmd_chaos},
    {"fuzz",
     "[--seeds A..B] [--pattern halo|alltoall|pipeline|master-worker|mixed] "
     "[--ranks N] [--rounds N] [--min-bytes N] [--max-bytes N] "
     "[--defect-rate X] [--tree tibidabo|upgraded] [--sim-jobs N] [--jobs N] "
     "[--chaos-every N] [--seed N] [--bundle-dir PATH] [--bundle-out PATH] "
     "[--pretend-clean] [--json PATH]",
     cmd_fuzz},
    {"replay", "<bundle.json> [--sim-jobs N] [--jobs N] [--bundle-out PATH]",
     cmd_replay},
    {"advise",
     "<bigdft|magicfilter> [--apply] [--reps N] [--threshold-sigma X] "
     "[--min-rel X] [--faults plan.json] [--tree tibidabo|upgraded] "
     "[--mtu N] [--platform P] [--unroll N] [--sim-jobs N] [--seed N] "
     "[--json PATH] [bigdft opts] [recovery opts] [campaign opts]",
     cmd_advise},
};

/// Prints `line` followed by `items`, wrapped at 78 columns; continuation
/// lines are indented past the command names.
void print_wrapped(std::string line, const std::vector<std::string>& items) {
  for (const std::string& item : items) {
    if (line.size() + 1 + item.size() > 78) {
      std::cerr << line << '\n';
      line = std::string(10, ' ');
    }
    line += ' ' + item;
  }
  std::cerr << line << '\n';
}

[[noreturn]] void usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: mbctl [--profile PATH] <command> [args]\n";
  for (const Command& command : kCommands)
    print_wrapped("  " + std::string(command.name),
                  synopsis_items(command.synopsis));
  for (const FlagGroup& group : kFlagGroups)
    print_wrapped(std::string(group.name) + " opts:",
                  synopsis_items(group.flags));
  std::cerr <<
      "platform: snowball | xeon | tegra2 | exynos5 | @file\n"
      "bigdft/hpl/specfem opts: the app's knobs; each command has its own\n"
      "defaults (docs/cli.md, App options)\n"
      "recovery: failure-detection timeout in seconds, send retries and\n"
      "restarts of a chaos run (defaults 2.0, 3, 8)\n"
      "capture: the trace keeps every record of every rank unless a\n"
      "--trace-* flag bounds it: a count N samples N ranks\n"
      "deterministically from the seed, a comma list pins exact ranks,\n"
      "--trace-buffer caps records kept per rank (drop-oldest, default\n"
      "65536) and --trace-kinds filters event kinds (compute, send, recv,\n"
      "wait, collective, fault). --timeseries-out samples run gauges every\n"
      "X simulated seconds (--sample-interval, default 0.1; forces one\n"
      "shard) into an mb-timeseries document\n"
      "campaign: run the sweep on N worker threads (byte-identical output\n"
      "to --jobs 1) and cache simulation outcomes content-addressed under\n"
      "PATH (default .mb-cache); with a byte budget the oldest entries are\n"
      "evicted after the run, and corrupt entries are quarantined (renamed\n"
      "*.quarantined) instead of re-parsed; campaign/cache totals are\n"
      "reported on stderr\n"
      "--sim-jobs N shards the cluster discrete-event simulation across N\n"
      "workers under conservative lookahead; results and traces are\n"
      "byte-identical for any N (0 = one shard, the serial engine)\n"
      "--profile enables the scoped-span profiler and writes an mb-profile\n"
      "document (read it back with obs-report)\n"
      "--seed defaults to the MB_SEED environment variable when set\n"
      "exit codes (all commands): 0 = success, 2 = usage error (including\n"
      "an unreadable input file), 3 = the run worked but the answer is bad\n"
      "(error findings, confirmed regression, or an unrecovered chaos\n"
      "scenario)\n";
  // Usage errors abort before any worker pool is spawned, so the
  // multi-thread exit() hazard does not apply.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  std::exit(error.empty() ? kExitOk : kExitUsage);
}

int dispatch(const Args& args) {
  std::string name = args[0];
  if (name == "help" || name == "--help" || name == "-h") usage();
  if (name == "--version" || name == "-V") name = "version";
  const Command* command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) { return c.name == name; });
  if (command == std::end(kCommands)) usage("unknown command '" + name + "'");
  // Positionals lead every synopsis.
  const auto items = synopsis_items(command->synopsis);
  const auto count = static_cast<std::size_t>(
      std::count_if(items.begin(), items.end(),
                    [](const std::string& item) { return item[0] == '<'; }));
  if (args.size() <= count) {
    std::string needs;
    for (std::size_t i = 0; i < count; ++i) needs += " " + items[i];
    usage(name + " needs" + needs);
  }
  const Options opts(*command, args, count + 1);
  return command->run(Args(args.begin() + 1, args.begin() + 1 + count),
                      opts);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  // The global --profile flag may appear anywhere; strip it before command
  // parsing so every command accepts it uniformly.
  std::string profile_path;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--profile") {
      if (std::next(it) == args.end()) usage("--profile needs a value");
      profile_path = *std::next(it);
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  if (args.empty()) usage();

  try {
    if (!profile_path.empty()) mb::obs::profiler().set_enabled(true);

    int rc = 0;
    {
      // The root span wraps the whole command so obs-report's phase
      // coverage is measured against the command's true wall time.
      mb::obs::ScopedSpan span(mb::obs::profiler(), "mbctl/" + args[0]);
      rc = dispatch(args);
    }

    if (!profile_path.empty()) {
      std::string command;
      for (const auto& a : args) {
        if (!command.empty()) command += ' ';
        command += a;
      }
      const auto profile = mb::obs::capture_profile(
          mb::obs::profiler(), mb::obs::metrics(), "mbctl", command);
      write_output(profile_path, "mb-profile", [&](std::ostream& out) {
        out << mb::obs::to_json(profile);
      });
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "mbctl: " << e.what() << '\n';
    return 1;
  }
}
