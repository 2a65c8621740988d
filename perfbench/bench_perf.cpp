// bench_perf: runs one simulator benchmark workload per process and
// prints one JSON result on stdout.
//
// Every timing here is *host* time — what the simulator costs to run.
// Simulated quantities (makespans, drops, bytes, records) are outputs to
// check, never speed metrics. The process has two phases:
//
//   setup_s  main() entry -> every input built (programs, cluster
//            configs, a fresh cache path, expected send bytes)
//   run_s    inputs built -> the last output checked
//
// and peak_rss_mb is the process's peak resident set at exit.
//
// Each call bench_perf makes into a module's public function is wrapped
// in a span. With --spans PATH the spans (name, module, start, end,
// parent, run id) are kept in memory and written at exit; without it no
// span is recorded at all, so untraced runs carry no tracing cost.
//
// Each workload is a closed-loop batch of operations ("ops"). An op
// fails if it throws, does not complete, or its output breaks an
// expected value (--expect, --baseline) or a seed-independent invariant.
// Any failure makes the process exit 3 (the repository's "the run worked
// but the answer is bad" code); the result JSON is printed either way.
//
// usage: bench_perf --workload scaling|fig4|trace-export|static|tune|fuzz
//                   --workdir DIR [--seed S] [--size full|smoke]
//                   [--spans PATH] [--expect PATH] [--baseline PATH]
//
// DIR receives the workload's files (mb-trace spills, exports, the
// campaign cache); it must not hold an earlier run's files.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/bigdft.h"
#include "apps/cluster.h"
#include "apps/hpl.h"
#include "apps/specfem.h"
#include "arch/platforms.h"
#include "core/campaign.h"
#include "gen/differential.h"
#include "gen/generator.h"
#include "kernels/magicfilter.h"
#include "obs/analysis.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "sim/machine.h"
#include "support/check.h"
#include "support/exit_codes.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/version.h"
#include "trace/mb_trace.h"
#include "trace/trace.h"
#include "verify/mpi_verify.h"
#include "verify/perf_rules.h"
#include "verify/static_cost.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

// --------------------------------------------------------------------------
// Spans.

struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::string name;  ///< "module.function"
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store. Worker threads (the campaign pool) record too,
/// so appends are locked; ids come from an atomic counter so children
/// can name a parent that has not closed yet.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  std::int64_t next_id() { return next_id_.fetch_add(1); }
  void add(SpanRecord r) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(r));
  }
  /// Called after every worker has joined.
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::atomic<std::int64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;
thread_local std::int64_t t_parent = -1;

/// One public call. A no-op unless tracing is enabled.
class Span {
 public:
  explicit Span(const char* name) {
    if (!g_tracer.enabled()) return;
    record_.id = g_tracer.next_id();
    record_.parent = t_parent;
    record_.name = name;
    t_parent = record_.id;
    record_.start = now_s();
  }
  ~Span() {
    if (record_.id < 0) return;
    record_.end = now_s();
    t_parent = record_.parent;
    g_tracer.add(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t id() const { return record_.id; }

 private:
  SpanRecord record_{-1, -1, {}, 0.0, 0.0};
};

/// Makes spans opened on a pool thread children of `parent`.
class ParentScope {
 public:
  explicit ParentScope(std::int64_t parent) : saved_(t_parent) {
    t_parent = parent;
  }
  ~ParentScope() { t_parent = saved_; }
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  std::int64_t saved_;
};

template <typename F>
decltype(auto) call(const char* name, F&& f) {
  const Span span(name);
  return std::forward<F>(f)();
}

// --------------------------------------------------------------------------
// Ops, checks and expected values.

std::string hex_bits(double v) {
  return mb::support::hex64(std::bit_cast<std::uint64_t>(v));
}

class Bench {
 public:
  Bench(std::string workload, std::uint64_t seed, bool smoke, fs::path workdir)
      : workload(std::move(workload)),
        seed(seed),
        smoke(smoke),
        workdir(std::move(workdir)) {}

  const std::string workload;
  const std::uint64_t seed;
  const bool smoke;
  const fs::path workdir;

  /// Expected values for this workload (--expect), keyed like observe().
  std::map<std::string, std::string> expected;
  /// Simulated results of bench-suite --suite scaling (--baseline).
  std::map<std::string, double> baseline;

  std::map<std::string, std::uint64_t> counts;  ///< exact per-layer counts
  std::vector<std::pair<std::string, std::string>> observed;

  /// Runs one op: `body` makes the op's calls and checks its outputs.
  template <typename F>
  void op(std::string label, F&& body) {
    ++attempted_;
    op_label_ = std::move(label);
    op_failed_ = false;
    try {
      std::forward<F>(body)();
    } catch (const std::exception& e) {
      fail(std::string("threw: ") + e.what());
    }
  }

  /// One check of the current op's output.
  void check(bool ok, std::string_view what) {
    if (!ok) fail(std::string(what));
  }

  /// Records a simulated output; with --expect it must match exactly.
  void observe(const std::string& key, std::string value) {
    const auto it = expected.find(key);
    if (it != expected.end() && it->second != value)
      fail("expected " + key + " = " + it->second + ", got " + value);
    observed.emplace_back(key, std::move(value));
  }

  /// Expected keys no op produced fail the last op.
  void check_all_expected_observed() {
    for (const auto& [key, value] : expected) {
      bool seen = false;
      for (const auto& [k, v] : observed) seen = seen || k == key;
      if (!seen) fail("expected value " + key + " was never produced");
    }
  }

  void inputs_built() { setup_end_s = now_s(); }

  double setup_end_s = -1.0;
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void fail(std::string what) {
    if (!op_failed_) {
      op_failed_ = true;
      ++failed_;
    }
    // The count is exact; the messages are capped to keep the JSON small.
    if (failures_.size() < 20) failures_.push_back(op_label_ + ": " + what);
  }

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string op_label_ = "setup";
  bool op_failed_ = false;
  std::vector<std::string> failures_;
};

// --------------------------------------------------------------------------
// Shared helpers for the cluster (DES) workloads.

/// Payload bytes every rank sends: the runtime's mpi.bytes_sent total
/// must equal this for a completed run.
std::uint64_t program_send_bytes(const mb::mpi::Program& program) {
  const Span span("mpi.lower_collective");
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < program.ranks(); ++r) {
    for (const mb::mpi::Op& op : program.rank(r)) {
      if (op.kind == mb::mpi::Op::Kind::kSend) {
        total += op.bytes;
      } else if (mb::mpi::is_collective(op.kind)) {
        for (const mb::mpi::Op& low :
             mb::mpi::lower_collective(op, r, program.ranks(), 0))
          if (low.kind == mb::mpi::Op::Kind::kSend) total += low.bytes;
      }
    }
  }
  return total;
}

struct DesStats {
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t max_pending = 0;
  std::uint64_t windows = 0;
  std::uint64_t bytes_sent = 0;
};

/// Reads what run_on_cluster published to a registry that was reset just
/// before the run.
DesStats des_stats() {
  mb::obs::Registry& reg = mb::obs::metrics();
  const auto gauge = [&reg](const char* name) {
    return static_cast<std::uint64_t>(reg.gauge(name).value());
  };
  DesStats s;
  s.executed = gauge("sim.events_executed");
  s.scheduled = gauge("sim.events_scheduled");
  s.max_pending = gauge("sim.calendar_max_depth");
  s.windows = gauge("sim.windows");
  double bytes = 0.0;
  for (const mb::obs::MetricSample& m : reg.snapshot())
    if (m.name == "mpi.bytes_sent") bytes += m.value;
  s.bytes_sent = static_cast<std::uint64_t>(bytes);
  return s;
}

/// One cluster run as an op body: checks completion and byte accounting,
/// adds the exact counts, and observes the simulated results.
mb::apps::AppRunResult run_cluster_op(Bench& b, const std::string& key,
                                      const mb::apps::ClusterConfig& cluster,
                                      const mb::mpi::Program& program,
                                      std::uint64_t expected_bytes) {
  mb::obs::metrics().reset();
  mb::apps::AppRunResult result = call("apps.run_on_cluster", [&] {
    return mb::apps::run_on_cluster(cluster, program);
  });
  const DesStats s = des_stats();
  b.check(result.completed, "run did not complete");
  b.check(result.makespan_s > 0.0 && std::isfinite(result.makespan_s),
          "makespan is not positive and finite");
  b.check(s.bytes_sent == expected_bytes,
          "mpi.bytes_sent " + std::to_string(s.bytes_sent) +
              " != program send bytes " + std::to_string(expected_bytes));
  b.check(s.executed > 0 && s.executed <= s.scheduled,
          "events executed must be in (0, scheduled]");
  b.counts["sim.events_executed"] += s.executed;
  b.counts["sim.events_scheduled"] += s.scheduled;
  b.counts["sim.max_pending"] =
      std::max(b.counts["sim.max_pending"], s.max_pending);
  b.counts["sim.windows"] += s.windows;
  b.counts["net.drops"] += result.network_drops;
  b.counts["net.retransmits"] += result.network_retransmits;
  b.counts["mpi.bytes_sent"] += s.bytes_sent;
  b.observe(key + "/makespan", hex_bits(result.makespan_s));
  b.observe(key + "/drops", std::to_string(result.network_drops));
  b.observe(key + "/events", std::to_string(s.executed));
  return result;
}

/// Streams every rank's records into an mb-trace file under the workdir.
void spill_trace(mb::apps::ClusterConfig& cluster, const fs::path& path,
                 std::uint64_t seed) {
  cluster.streaming_trace = true;
  cluster.trace_sink.spill_path = path.string();
  cluster.trace_sink.seed = seed;
  cluster.trace_sink.tool_version = std::string(mb::support::version());
  cluster.trace_sink.ring_capacity = 65536;
}

mb::trace::MbTraceFile read_spill(Bench& b, const fs::path& path,
                                  const mb::apps::AppRunResult& run,
                                  std::uint32_t ranks) {
  mb::trace::MbTraceFile file = call("trace.read_mb_trace", [&] {
    std::ifstream in(path, std::ios::binary);
    mb::support::check(static_cast<bool>(in), "bench_perf",
                       "cannot open " + path.string());
    return mb::trace::read_mb_trace(in);
  });
  const mb::trace::Trace& trace = file.trace;
  b.check(file.meta.dropped == 0 && run.trace_dropped == 0,
          "spilled capture dropped records");
  b.check(file.meta.total_ranks == ranks && trace.ranks() == ranks,
          "mb-trace rank count differs from the program");
  b.check(trace.size() > 0, "mb-trace holds no records");
  b.check(trace.end_time() == run.makespan_s,
          "last trace record does not end at the makespan");
  const auto file_bytes = static_cast<std::uint64_t>(fs::file_size(path));
  b.counts["trace.records"] += trace.size();
  b.counts["trace.file_bytes"] += file_bytes;
  b.observe("trace/records", std::to_string(trace.size()));
  b.observe("trace/file_bytes", std::to_string(file_bytes));
  return file;
}

void check_analysis(Bench& b, const mb::obs::Analysis& a,
                    const mb::trace::Trace& trace) {
  b.check(a.records == trace.size(), "analysis record count differs");
  b.check(a.ranks == trace.ranks(), "analysis rank count differs");
  b.check(a.makespan_s == trace.end_time(), "analysis makespan differs");
}

// --------------------------------------------------------------------------
// Workloads. Each builds its inputs, calls b.inputs_built(), then runs
// its ops. Full sizes are the benchmark; smoke sizes exist only so the
// self-check (run.py --smoke) stays within seconds.

/// The five scenarios of `mbctl bench-suite --suite scaling` on the
/// sharded engine. The only sharded-engine workload: DES event handling
/// (ladder queue, heap bypass, window barriers) does almost all the work.
void workload_scaling(Bench& b) {
  struct Scenario {
    std::string key;
    mb::mpi::Program program{1};
    mb::apps::ClusterConfig cluster;
    std::uint64_t send_bytes = 0;
  };
  const std::vector<std::uint32_t> rank_list =
      b.smoke ? std::vector<std::uint32_t>{64, 128}
              : std::vector<std::uint32_t>{1024, 4096};
  std::vector<Scenario> scenarios;
  const auto add = [&](const std::string& app, std::uint32_t ranks,
                       std::uint32_t mtu, auto build) {
    Scenario s;
    s.key = "scaling/" + app + "/ranks=" + std::to_string(ranks);
    s.program = build();
    s.cluster = call("apps.tibidabo_cluster",
                     [&] { return mb::apps::tibidabo_cluster(ranks / 2); });
    // Generator-built programs, verified by the repository's tests; the
    // scaling suite skips re-verification the same way.
    s.cluster.mpi.verify = false;
    s.cluster.sim_jobs = 2;
    if (mtu != 0) s.cluster.mtu_bytes = mtu;
    s.send_bytes = program_send_bytes(s.program);
    scenarios.push_back(std::move(s));
  };
  for (const std::uint32_t ranks : rank_list) {
    add("specfem", ranks, 0, [&] {
      mb::apps::SpecfemParams p;
      p.ranks = ranks;
      p.steps = 8;
      p.compute_s_per_step = 200.0;
      p.halo_bytes = 64 * 1024;
      p.seed = b.seed;
      return call("apps.specfem_program",
                  [&] { return mb::apps::specfem_program(p); });
    });
    add("hpl", ranks, 1u << 20, [&] {
      mb::apps::HplParams p;
      p.ranks = ranks;
      p.n = 4096;
      p.block = 128;
      return call("apps.hpl_program", [&] { return mb::apps::hpl_program(p); });
    });
    if (ranks <= 1024) {
      add("bigdft", ranks, 0, [&] {
        mb::apps::BigDftParams p;
        p.ranks = ranks;
        p.iterations = 1;
        p.transposes = 1;
        p.allreduces = 0;
        p.compute_s_per_iter = 100.0;
        p.transpose_bytes = 64ull << 20;
        p.seed = b.seed;
        return call("apps.bigdft_program",
                    [&] { return mb::apps::bigdft_program(p); });
      });
    }
  }
  b.inputs_built();

  for (const Scenario& s : scenarios) {
    b.op(s.key, [&] {
      const auto result =
          run_cluster_op(b, s.key, s.cluster, s.program, s.send_bytes);
      if (b.baseline.empty()) return;
      const auto expect = [&](const std::string& name, double value) {
        const auto it = b.baseline.find(name);
        b.check(it != b.baseline.end() &&
                    std::bit_cast<std::uint64_t>(it->second) ==
                        std::bit_cast<std::uint64_t>(value),
                name + " differs from BENCH_SCALING.json");
      };
      expect(s.key + "/makespan", result.makespan_s);
      expect(s.key + "/drops", static_cast<double>(result.network_drops));
    });
  }
}

/// The paper's Fig. 4: BigDFT on the Tibidabo tree, serial engine, every
/// rank spilled to mb-trace, then the timeline analysis. Exercises the
/// serial queue and the retransmit path (the alltoallv incast drops).
void workload_fig4(Bench& b) {
  mb::apps::BigDftParams params;
  params.ranks = b.smoke ? 16 : 128;
  params.iterations = b.smoke ? 3 : 12;
  params.compute_s_per_iter = 2.0;
  params.transpose_bytes = 12ull << 20;
  params.seed = b.seed;
  const mb::mpi::Program program = call(
      "apps.bigdft_program", [&] { return mb::apps::bigdft_program(params); });
  mb::apps::ClusterConfig cluster = call("apps.tibidabo_cluster", [&] {
    return mb::apps::tibidabo_cluster(params.ranks / 2);
  });
  cluster.mpi.verify = false;  // verify_program runs as its own op
  const fs::path spill = b.workdir / "fig4.mbt";
  spill_trace(cluster, spill, b.seed);
  const std::uint64_t send_bytes = program_send_bytes(program);
  b.inputs_built();

  b.op("verify_program", [&] {
    const auto report = call("verify.verify_program", [&] {
      return mb::verify::verify_program(program);
    });
    b.check(!report.has_errors(), "the Fig. 4 program fails verification");
  });
  mb::apps::AppRunResult run;
  b.op("run_on_cluster", [&] {
    run = run_cluster_op(b, "fig4", cluster, program, send_bytes);
  });
  mb::trace::Trace trace;
  b.op("read_mb_trace", [&] {
    trace = read_spill(b, spill, run, params.ranks).trace;
  });
  b.op("analyze", [&] {
    const auto analysis = call("obs.analyze_timeline", [&] {
      return mb::obs::analyze_timeline(trace, nullptr);
    });
    check_analysis(b, analysis, trace);
    const auto collectives = call("trace.analyze_collectives", [&] {
      return mb::trace::analyze_collectives(trace, "alltoallv");
    });
    b.check(collectives.instances.size() ==
                static_cast<std::size_t>(params.iterations) *
                    params.transposes,
            "alltoallv instance count differs from the program");
    b.observe("fig4/delayed_collectives",
              std::to_string(collectives.delayed_count));
  });
}

/// SPECFEM3D traced at every rank, then every export path: mb-trace
/// read, timeline analysis, Chrome JSON, Paraver write and parse. The
/// trace and obs modules do most of the work; the DES is congestion-free.
void workload_trace_export(Bench& b) {
  mb::apps::SpecfemParams params;
  params.ranks = b.smoke ? 32 : 256;
  params.steps = b.smoke ? 5 : 60;
  params.seed = b.seed;
  const mb::mpi::Program program = call(
      "apps.specfem_program", [&] { return mb::apps::specfem_program(params); });
  mb::apps::ClusterConfig cluster = call("apps.tibidabo_cluster", [&] {
    return mb::apps::tibidabo_cluster(params.ranks / 2);
  });
  cluster.mpi.verify = false;
  const fs::path spill = b.workdir / "specfem.mbt";
  const fs::path chrome = b.workdir / "specfem.json";
  const fs::path paraver = b.workdir / "specfem.prv";
  spill_trace(cluster, spill, b.seed);
  const std::uint64_t send_bytes = program_send_bytes(program);
  b.inputs_built();

  mb::apps::AppRunResult run;
  b.op("run_on_cluster", [&] {
    run = run_cluster_op(b, "trace-export", cluster, program, send_bytes);
  });
  mb::trace::Trace trace;
  b.op("read_mb_trace", [&] {
    trace = read_spill(b, spill, run, params.ranks).trace;
  });
  b.op("analyze_timeline", [&] {
    const auto analysis = call("obs.analyze_timeline", [&] {
      return mb::obs::analyze_timeline(trace, nullptr);
    });
    check_analysis(b, analysis, trace);
  });
  b.op("write_chrome_trace", [&] {
    call("obs.write_chrome_trace", [&] {
      std::ofstream out(chrome);
      mb::obs::write_chrome_trace(out, trace);
      mb::support::check(static_cast<bool>(out), "bench_perf",
                         "chrome trace write failed");
    });
    const auto bytes = static_cast<std::uint64_t>(fs::file_size(chrome));
    b.check(bytes > trace.size(), "chrome trace is implausibly small");
    b.observe("trace-export/chrome_bytes", std::to_string(bytes));
  });
  b.op("write_paraver", [&] {
    call("trace.write_paraver", [&] {
      std::ofstream out(paraver);
      trace.write_paraver(out);
      mb::support::check(static_cast<bool>(out), "bench_perf",
                         "paraver write failed");
    });
  });
  b.op("parse_paraver", [&] {
    const mb::trace::Trace parsed = call("trace.parse_paraver", [&] {
      std::ifstream in(paraver);
      return mb::trace::parse_paraver(in);
    });
    b.check(parsed.size() == trace.size(),
            "Paraver parse returned " + std::to_string(parsed.size()) +
                " records, " + std::to_string(trace.size()) + " written");
    b.check(parsed.ranks() == trace.ranks(), "Paraver rank count differs");
  });
}

/// `mbctl analyze-static bigdft`: the verifier's three passes and no DES.
/// Abstract-execution time and memory show here.
void workload_static(Bench& b) {
  mb::apps::BigDftParams params;
  params.ranks = b.smoke ? 32 : 192;
  params.seed = b.seed;
  const mb::mpi::Program program = call(
      "apps.bigdft_program", [&] { return mb::apps::bigdft_program(params); });
  mb::verify::CostDescriptor descriptor;
  descriptor.tree = call("net.tibidabo_tree", [&] {
    return mb::net::tibidabo_tree(params.ranks / descriptor.cores_per_node);
  });
  const std::uint64_t send_bytes = program_send_bytes(program);
  b.inputs_built();

  b.op("verify_program", [&] {
    const auto report = call("verify.verify_program", [&] {
      return mb::verify::verify_program(program);
    });
    b.check(!report.has_errors(), "the BigDFT program fails verification");
  });
  mb::verify::CostReport cost;
  b.op("analyze_cost", [&] {
    cost = call("verify.analyze_cost", [&] {
      return mb::verify::analyze_cost(program, descriptor);
    });
    b.check(cost.ranks == params.ranks, "cost report rank count differs");
    b.check(cost.total_bytes == send_bytes,
            "static byte total " + std::to_string(cost.total_bytes) +
                " != program send bytes " + std::to_string(send_bytes));
    b.check(cost.makespan_lower_s > 0.0 &&
                cost.makespan_lower_s <= cost.makespan_upper_s,
            "makespan bounds are not 0 < lower <= upper");
    b.counts["verify.messages"] += cost.total_messages;
    b.counts["verify.frames"] += cost.total_frames;
    b.observe("static/messages", std::to_string(cost.total_messages));
    b.observe("static/frames", std::to_string(cost.total_frames));
    b.observe("static/lower", hex_bits(cost.makespan_lower_s));
    b.observe("static/upper", hex_bits(cost.makespan_upper_s));
  });
  b.op("perf_pass", [&] {
    const auto perf = call("verify.perf_pass", [&] {
      return mb::verify::perf_pass(program, descriptor, cost);
    });
    b.check(!perf.has_errors(), "PERF rules report errors");
    b.observe("static/perf_findings", std::to_string(perf.findings().size()));
  });
}

/// Magic-filter tuning campaign on two workers: a cold pass that
/// simulates every task and stores it in a fresh cache, then the same
/// tasks warm (every one a cache hit). Single-node kernels and cache-model
/// work, no DES.
void workload_tune(Bench& b) {
  const std::uint32_t reps = b.smoke ? 1 : 4;
  const std::uint32_t n = b.smoke ? 16 : 24;
  const std::vector<mb::arch::Platform> platforms = call("arch.platforms", [] {
    return std::vector<mb::arch::Platform>{
        mb::arch::snowball(), mb::arch::xeon_x5550(), mb::arch::tegra2_node(),
        mb::arch::exynos5()};
  });
  std::int64_t campaign_span = -1;
  std::vector<mb::core::CampaignTask> tasks;
  for (const mb::arch::Platform& p : platforms) {
    for (std::uint32_t unroll = 1; unroll <= 12; ++unroll) {
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        mb::core::CampaignTask task;
        task.key = {std::string(mb::support::version()), "perfbench-tune",
                    p.name,
                    "unroll=" + std::to_string(unroll) +
                        " rep=" + std::to_string(rep) +
                        " n=" + std::to_string(n) + " dims=1",
                    b.seed, 0};
        task.run = [&p, &campaign_span, unroll, n, key = task.key] {
          const ParentScope scope(campaign_span);
          mb::sim::Machine machine = call("sim.Machine", [&] {
            return mb::sim::Machine(
                p, mb::sim::PagePolicy::kConsecutive,
                mb::support::Rng(
                    mb::support::derive_seed(key.seed, key.hash())));
          });
          mb::kernels::MagicfilterParams mp;
          mp.n = n;
          mp.dims = 1;
          mp.unroll = unroll;
          const auto r = call("kernels.magicfilter_run", [&] {
            return mb::kernels::magicfilter_run(machine, mp);
          });
          return std::vector<double>{
              r.cycles_per_output,
              static_cast<double>(
                  r.sim.counters.get(mb::counters::Counter::kL1Dca))};
        };
        tasks.push_back(std::move(task));
      }
    }
  }
  // A fresh cache: the cold pass creates the directory with its first
  // store, so set-up costs no file-system work.
  mb::core::CampaignOptions options;
  options.jobs = 2;
  options.cache = true;
  options.cache_dir = (b.workdir / "mb-cache").string();
  mb::support::check(!fs::exists(options.cache_dir), "bench_perf",
                     options.cache_dir + " exists; tune needs a fresh workdir");
  b.inputs_built();

  const auto run_pass = [&](const char* span_name) {
    const Span span(span_name);
    campaign_span = span.id();
    return mb::core::run_campaign(tasks, options);
  };
  const auto run_ops = [&](const char* pass, auto&& body) {
    mb::core::CampaignResult result;
    std::string error;
    try {
      result = run_pass(pass);
    } catch (const std::exception& e) {
      error = e.what();
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      b.op(std::string(pass) + "/" + tasks[i].key.platform + "/" +
               tasks[i].key.point,
           [&] {
             b.check(error.empty(), "run_campaign threw: " + error);
             if (error.empty()) body(result, i);
           });
    }
    return result;
  };

  const auto cold = run_ops(
      "core.run_campaign.cold",
      [&](const mb::core::CampaignResult& r, std::size_t i) {
        const std::vector<double>& s = r.samples.at(i);
        b.check(s.size() == 2 && s[0] > 0.0 && std::isfinite(s[0]) &&
                    s[1] > 0.0,
                "task samples are not {cycles > 0, accesses > 0}");
        if (i == 0) {
          b.check(r.stats.cache_hits == 0 &&
                      r.stats.cache_misses == tasks.size(),
                  "the cold pass must miss every task");
        }
      });
  run_ops("core.run_campaign.warm",
          [&](const mb::core::CampaignResult& r, std::size_t i) {
            const std::vector<double>& s = r.samples.at(i);
            const std::vector<double>& c = cold.samples.at(i);
            b.check(s.size() == c.size() &&
                        std::equal(s.begin(), s.end(), c.begin(),
                                   [](double x, double y) {
                                     return std::bit_cast<std::uint64_t>(x) ==
                                            std::bit_cast<std::uint64_t>(y);
                                   }),
                    "warm samples differ from the cold ones");
            if (i == 0) {
              b.check(r.stats.cache_hits == tasks.size() &&
                          r.stats.cache_misses == 0,
                      "the warm pass must hit every task");
              b.counts["core.cache_hits"] += r.stats.cache_hits;
              b.counts["core.cache_misses"] += cold.stats.cache_misses;
            }
          });

  mb::support::Hasher digest;
  std::uint64_t accesses = 0;
  for (const auto& s : cold.samples) {
    for (const double v : s) digest.f64(v);
    if (s.size() == 2) accesses += static_cast<std::uint64_t>(s[1]);
  }
  b.counts["cache.l1_accesses"] += accesses;
  b.counts["kernels.tasks"] += cold.stats.executed;
  b.observe("tune/sample_digest", mb::support::hex64(digest.digest()));
}

/// `mbctl fuzz` defaults: thousands of tiny generated programs, each
/// through the serial DES, the sharded engine (two workers) and the
/// static oracle. Per-run construction dominates, not per-event cost.
void workload_fuzz(Bench& b) {
  const std::size_t count = b.smoke ? 40 : 2000;
  mb::gen::SweepSpec spec;
  spec.base.defect_prob = 0.2;
  mb::gen::DiffConfig config;
  config.tree = "tibidabo";
  config.sim_jobs = 2;
  constexpr std::uint64_t kChaosEvery = 25;

  std::vector<std::uint64_t> gen_seeds(count);
  std::vector<mb::gen::GenParams> params(count);
  std::vector<mb::gen::GeneratedProgram> programs(count);
  for (std::size_t i = 0; i < count; ++i) {
    gen_seeds[i] = mb::support::derive_seed(b.seed, b.seed + i);
    params[i] = call("gen.sweep_params", [&] {
      return mb::gen::sweep_params(gen_seeds[i], spec);
    });
    programs[i] = call("gen.generate", [&] {
      return mb::gen::generate(gen_seeds[i], params[i]);
    });
  }
  b.inputs_built();

  mb::support::Hasher digest;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t seed_index = b.seed + i;
    b.op("seed " + std::to_string(seed_index), [&] {
      mb::gen::DiffConfig seed_config = config;
      seed_config.with_chaos = seed_index % kChaosEvery == 0;
      const auto outcome = call("gen.run_differential", [&] {
        return mb::gen::run_differential(gen_seeds[i], params[i], programs[i],
                                         seed_config);
      });
      b.check(outcome.ok(), "oracle " + outcome.failed_oracle + " failed");
      b.counts["gen.discrepancies"] += outcome.ok() ? 0 : 1;
      b.counts["gen.defective"] += programs[i].has_defect() ? 1 : 0;
      digest.u64(outcome.verifier_digest)
          .u64(outcome.des_digest)
          .u64(outcome.sharded_digest)
          .u64(outcome.static_digest)
          .u64(outcome.chaos_digest);
    });
  }
  b.counts["gen.programs"] += count;
  b.observe("fuzz/discrepancies", std::to_string(b.counts["gen.discrepancies"]));
  b.observe("fuzz/defective", std::to_string(b.counts["gen.defective"]));
  b.observe("fuzz/digest", mb::support::hex64(digest.digest()));
}

const std::map<std::string, void (*)(Bench&)>& workloads() {
  static const std::map<std::string, void (*)(Bench&)> table = {
      {"scaling", workload_scaling},
      {"fig4", workload_fig4},
      {"trace-export", workload_trace_export},
      {"static", workload_static},
      {"tune", workload_tune},
      {"fuzz", workload_fuzz},
  };
  return table;
}

// --------------------------------------------------------------------------
// Input files and output documents.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  mb::support::check(static_cast<bool>(in), "bench_perf",
                     "cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// perfbench/expected_seed2013.json: {"seed", "size", "workloads":
/// {name: {key: value}}}. A file for another seed or size is an error.
void load_expected(Bench& b, const std::string& path, const std::string& size) {
  const auto doc = mb::support::parse_json(read_file(path));
  const auto* seed = doc.find("seed");
  const auto* doc_size = doc.find("size");
  mb::support::check(
      seed != nullptr && doc_size != nullptr &&
          static_cast<std::uint64_t>(seed->as_number()) == b.seed &&
          doc_size->as_string() == size,
      "bench_perf", path + " holds expected values for another seed or size");
  const auto* all = doc.find("workloads");
  const auto* mine = all != nullptr ? all->find(b.workload) : nullptr;
  if (mine == nullptr) return;
  for (const auto& [key, value] : mine->members())
    b.expected[key] = value.as_string();
}

/// bench/baseline/BENCH_SCALING.json: the scaling suite's simulated
/// results, read only.
void load_baseline(Bench& b, const std::string& path) {
  const auto doc = mb::support::parse_json(read_file(path));
  const auto* seed = doc.find("seed");
  mb::support::check(
      seed != nullptr && static_cast<std::uint64_t>(seed->as_number()) == b.seed,
      "bench_perf", path + " was recorded with another seed");
  const auto* records = doc.find("benchmarks");
  mb::support::check(records != nullptr, "bench_perf",
                     path + " has no benchmarks array");
  for (const auto& record : records->as_array()) {
    const auto* name = record.find("name");
    const auto* samples = record.find("samples");
    mb::support::check(name != nullptr && samples != nullptr &&
                           samples->as_array().size() == 1,
                       "bench_perf", path + " has a malformed record");
    b.baseline[name->as_string()] = samples->as_array()[0].as_number();
  }
}

/// This process's peak resident set (VmHWM). getrusage's ru_maxrss is
/// not used: exec keeps it, so a child vforked from a larger launcher
/// (python's subprocess) would report the launcher's peak.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  }
  mb::support::fail("bench_perf", "no VmHWM line in /proc/self/status");
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  mb::support::check(static_cast<bool>(out), "bench_perf",
                     "cannot write " + path);
}

std::string spans_json(const std::string& run_id) {
  mb::support::JsonWriter w(false);
  w.begin_object().field("run_id", std::string_view(run_id)).key("spans");
  w.begin_array();
  for (const SpanRecord& s : g_tracer.spans()) {
    const std::string_view name(s.name);
    w.begin_object()
        .field("id", s.id)
        .field("parent", s.parent)
        .field("name", name)
        .field("module", name.substr(0, name.find('.')))
        .field("start", s.start)
        .field("end", s.end)
        .field("run", std::string_view(run_id))
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string result_json(const Bench& b, const std::string& run_id,
                        const std::string& size, double setup_s, double run_s,
                        double peak_rss_mb) {
  mb::support::JsonWriter w(true);
  w.begin_object()
      .field("schema", "perfbench-result")
      .field("schema_version", 1)
      .field("workload", std::string_view(b.workload))
      .field("seed", b.seed)
      .field("size", std::string_view(size))
      .field("run_id", std::string_view(run_id))
      .field("traced", g_tracer.enabled())
      .field("setup_s", setup_s)
      .field("run_s", run_s)
      .field("peak_rss_mb", peak_rss_mb)
      .field("attempted", b.attempted())
      .field("failed", b.failed());
  w.key("failures").begin_array();
  for (const std::string& f : b.failures()) w.value(std::string_view(f));
  w.end_array();
  w.key("counts").begin_object();
  for (const auto& [name, value] : b.counts) w.field(name, value);
  w.end_object();
  w.key("observed").begin_object();
  for (const auto& [name, value] : b.observed)
    w.field(name, std::string_view(value));
  w.end_object();
  w.end_object();
  return w.str();
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: bench_perf --workload "
               "scaling|fig4|trace-export|static|tune|fuzz\n"
               "                  --workdir DIR [--seed S] "
               "[--size full|smoke]\n"
               "                  [--spans PATH] [--expect PATH] "
               "[--baseline PATH]\n";
  // NOLINTNEXTLINE(concurrency-mt-unsafe): no thread exists yet
  std::exit(mb::support::kExitUsage);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> opts = {{"seed", "2013"},
                                             {"size", "full"}};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      usage("expected --key value pairs, got '" + key + "'");
    opts[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : opts) {
    static const std::vector<std::string> kKnown = {
        "workload", "workdir", "seed",    "size",
        "spans",    "expect",  "baseline"};
    if (std::find(kKnown.begin(), kKnown.end(), key) == kKnown.end())
      usage("unknown option --" + key);
  }
  const auto it = workloads().find(opts["workload"]);
  if (it == workloads().end())
    usage("unknown workload '" + opts["workload"] + "'");
  if (opts.count("workdir") == 0) usage("--workdir is required");
  if (opts["size"] != "full" && opts["size"] != "smoke")
    usage("--size expects full|smoke");
  std::uint64_t seed = 0;
  try {
    std::size_t used = 0;
    seed = std::stoull(opts["seed"], &used);
    if (used != opts["seed"].size()) throw std::invalid_argument("seed");
  } catch (const std::exception&) {
    usage("--seed expects an integer");
  }
  if (opts.count("spans") != 0) g_tracer.enable();

  Bench b(it->first, seed, opts["size"] == "smoke", opts["workdir"]);
  const std::string run_id =
      b.workload + "-" + std::to_string(seed) + "-" + std::to_string(getpid());
  try {
    if (opts.count("expect") != 0) load_expected(b, opts["expect"], opts["size"]);
    if (opts.count("baseline") != 0) load_baseline(b, opts["baseline"]);
    fs::create_directories(b.workdir);
    it->second(b);
    b.check_all_expected_observed();
  } catch (const std::exception& e) {
    // Set-up failed before any op ran: the run cannot be measured.
    std::cerr << "bench_perf: " << e.what() << "\n";
    return mb::support::kExitInternalError;
  }
  const double end_s = now_s();

  double peak_rss_mb = 0.0;
  try {
    peak_rss_mb = peak_rss_mib();
  } catch (const std::exception& e) {
    std::cerr << "bench_perf: " << e.what() << "\n";
    return mb::support::kExitInternalError;
  }
  const double setup_s = b.setup_end_s;
  const double run_s = end_s - b.setup_end_s;

  try {
    if (g_tracer.enabled()) write_text(opts["spans"], spans_json(run_id));
    std::cout << result_json(b, run_id, opts["size"], setup_s, run_s,
                             peak_rss_mb)
              << '\n';
  } catch (const std::exception& e) {
    std::cerr << "bench_perf: " << e.what() << "\n";
    return mb::support::kExitInternalError;
  }
  for (const std::string& f : b.failures()) std::cerr << "FAILED " << f << "\n";
  return b.failed() == 0 ? mb::support::kExitOk : mb::support::kExitFindings;
}
