#include "gen/generator.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include "support/check.h"
#include "support/hash.h"
#include "support/rng.h"

namespace mb::gen {
namespace {

// Keep generated user tags far below the runtime's reserved collective
// tag space (1 << 16); the budget is generous — patterns use at most a
// handful of tags per round.
constexpr std::int32_t kMaxUserTag = 1 << 15;

struct Builder {
  const GenParams& params;
  support::Rng& rng;
  mpi::Program& program;
  std::int32_t next_tag = 0;

  std::int32_t tag() {
    support::check(next_tag < kMaxUserTag, "gen",
                   "generated program exhausted the user tag budget");
    return next_tag++;
  }

  std::uint64_t bytes() {
    if (params.min_bytes == params.max_bytes) return params.min_bytes;
    const double lo = std::log2(static_cast<double>(params.min_bytes));
    const double hi = std::log2(static_cast<double>(params.max_bytes));
    const auto v =
        static_cast<std::uint64_t>(std::llround(std::exp2(rng.uniform(lo, hi))));
    if (v < params.min_bytes) return params.min_bytes;
    if (v > params.max_bytes) return params.max_bytes;
    return v;
  }

  double compute() {
    const double skew = 1.0 + params.imbalance * (2.0 * rng.uniform() - 1.0);
    return params.compute_s * skew;
  }

  // One ring halo-exchange round: everyone computes, eagerly sends both
  // halos, then receives both. Sends are buffered so send-send-recv-recv
  // cannot deadlock.
  void halo_round() {
    const std::uint32_t n = program.ranks();
    const std::int32_t tag_right = tag();  // messages travelling rank+1
    const std::int32_t tag_left = tag();   // messages travelling rank-1
    for (std::uint32_t r = 0; r < n; ++r) {
      const std::uint32_t right = (r + 1) % n;
      const std::uint32_t left = (r + n - 1) % n;
      program.append(r, mpi::Op::compute(compute(), "halo-compute"));
      program.append(r, mpi::Op::send(right, bytes(), tag_right));
      program.append(r, mpi::Op::send(left, bytes(), tag_left));
      program.append(r, mpi::Op::recv(left, tag_right));
      program.append(r, mpi::Op::recv(right, tag_left));
    }
  }

  // One alltoallv round. A single counts vector shared by every rank —
  // the consistency the verifier's MPI004/MPI008 rules demand.
  void alltoall_round() {
    const std::uint32_t n = program.ranks();
    std::vector<std::uint64_t> counts(n);
    for (std::uint32_t d = 0; d < n; ++d) counts[d] = bytes();
    for (std::uint32_t r = 0; r < n; ++r)
      program.append(r, mpi::Op::compute(compute(), "a2a-compute"));
    program.append_all(mpi::Op::alltoallv(counts, "gen-alltoallv"));
  }

  // One pipeline round: rank r feeds rank r+1 along the chain.
  void pipeline_round() {
    const std::uint32_t n = program.ranks();
    const std::int32_t t = tag();
    for (std::uint32_t r = 0; r < n; ++r) {
      if (r > 0) program.append(r, mpi::Op::recv(r - 1, t));
      program.append(r, mpi::Op::compute(compute(), "stage-compute"));
      if (r + 1 < n) program.append(r, mpi::Op::send(r + 1, bytes(), t));
    }
  }

  // One master/worker round: rank 0 scatters one task to each worker and
  // collects one result from each.
  void master_worker_round() {
    const std::uint32_t n = program.ranks();
    const std::int32_t tag_task = tag();
    const std::int32_t tag_result = tag();
    program.append(0, mpi::Op::compute(compute(), "master-compute"));
    for (std::uint32_t w = 1; w < n; ++w)
      program.append(0, mpi::Op::send(w, bytes(), tag_task));
    for (std::uint32_t w = 1; w < n; ++w) {
      program.append(w, mpi::Op::recv(0, tag_task));
      program.append(w, mpi::Op::compute(compute(), "worker-compute"));
      program.append(w, mpi::Op::send(0, bytes(), tag_result));
    }
    for (std::uint32_t w = 1; w < n; ++w)
      program.append(0, mpi::Op::recv(w, tag_result));
  }

  void collective() {
    const std::uint32_t n = program.ranks();
    const auto root = static_cast<std::uint32_t>(rng.index(n));
    switch (rng.index(7)) {
      case 0: program.append_all(mpi::Op::barrier()); break;
      case 1: program.append_all(mpi::Op::bcast(root, bytes())); break;
      case 2: program.append_all(mpi::Op::allreduce(bytes())); break;
      case 3: program.append_all(mpi::Op::gather(root, bytes())); break;
      case 4: program.append_all(mpi::Op::scatter(root, bytes())); break;
      case 5: program.append_all(mpi::Op::allgather(bytes())); break;
      default: program.append_all(mpi::Op::reduce(root, bytes())); break;
    }
  }

  void round(Pattern p) {
    switch (p) {
      case Pattern::kHalo: halo_round(); break;
      case Pattern::kAllToAll: alltoall_round(); break;
      case Pattern::kPipeline: pipeline_round(); break;
      case Pattern::kMasterWorker: master_worker_round(); break;
      case Pattern::kMixed: {
        switch (rng.index(4)) {
          case 0: halo_round(); break;
          case 1: alltoall_round(); break;
          case 2: pipeline_round(); break;
          default: master_worker_round(); break;
        }
        if (rng.bernoulli(params.collective_prob)) collective();
        break;
      }
    }
  }

  // Defect epilogues. Appended after the full clean body so they are
  // reachable regardless of pattern; each plants a receive that blocks
  // forever, which both the verifier (error) and the DES (incomplete run)
  // observe — the exactness the differential oracle relies on.
  std::string inject_defect(std::size_t cls) {
    switch (cls) {
      case 0: {  // send and recv that disagree on the tag
        const std::int32_t sent = tag();
        const std::int32_t expected = tag();
        program.append(1, mpi::Op::send(0, bytes(), sent));
        program.append(0, mpi::Op::recv(1, expected));
        return "tag-mismatch";
      }
      case 1: {  // recv whose matching send was never written
        program.append(0, mpi::Op::recv(1, tag()));
        return "missing-send";
      }
      default: {  // both ranks receive before sending: wait-for cycle
        const std::int32_t t01 = tag();
        const std::int32_t t10 = tag();
        program.append(0, mpi::Op::recv(1, t10));
        program.append(0, mpi::Op::send(1, bytes(), t01));
        program.append(1, mpi::Op::recv(0, t01));
        program.append(1, mpi::Op::send(0, bytes(), t10));
        return "recv-cycle";
      }
    }
  }
};

void validate(const GenParams& p) {
  support::check(p.ranks >= 4 && p.ranks % 2 == 0, "gen",
                 "ranks must be even and >= 4");
  support::check(p.rounds >= 1 && p.rounds <= 64, "gen",
                 "rounds must be in [1, 64]");
  support::check(p.min_bytes >= 1 && p.min_bytes <= p.max_bytes, "gen",
                 "need 1 <= min_bytes <= max_bytes");
  support::check(p.max_bytes <= (1ULL << 30), "gen",
                 "max_bytes above 1 GiB is not a fuzzing payload");
  support::check(std::isfinite(p.compute_s) && p.compute_s >= 0.0, "gen",
                 "compute_s must be finite and >= 0");
  support::check(p.imbalance >= 0.0 && p.imbalance < 1.0, "gen",
                 "imbalance must be in [0, 1)");
  support::check(p.collective_prob >= 0.0 && p.collective_prob <= 1.0, "gen",
                 "collective_prob must be in [0, 1]");
  support::check(p.defect_prob >= 0.0 && p.defect_prob <= 1.0, "gen",
                 "defect_prob must be in [0, 1]");
}

}  // namespace

std::string_view pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kHalo: return "halo";
    case Pattern::kAllToAll: return "alltoall";
    case Pattern::kPipeline: return "pipeline";
    case Pattern::kMasterWorker: return "master-worker";
    case Pattern::kMixed: return "mixed";
  }
  return "mixed";
}

Pattern parse_pattern(std::string_view name) {
  if (name == "halo") return Pattern::kHalo;
  if (name == "alltoall") return Pattern::kAllToAll;
  if (name == "pipeline") return Pattern::kPipeline;
  if (name == "master-worker") return Pattern::kMasterWorker;
  if (name == "mixed") return Pattern::kMixed;
  support::check(false, "gen",
                 "unknown pattern (expected halo|alltoall|pipeline|"
                 "master-worker|mixed)");
  return Pattern::kMixed;
}

std::uint64_t params_hash(const GenParams& p) {
  support::Hasher h;
  h.str(pattern_name(p.pattern))
      .u64(p.ranks)
      .u64(p.rounds)
      .u64(p.min_bytes)
      .u64(p.max_bytes)
      .f64(p.compute_s)
      .f64(p.imbalance)
      .f64(p.collective_prob)
      .f64(p.defect_prob);
  return h.digest();
}

void write_params(support::JsonWriter& w, const GenParams& p) {
  w.begin_object();
  w.field("pattern", pattern_name(p.pattern));
  w.field("ranks", p.ranks);
  w.field("rounds", p.rounds);
  w.field("min_bytes", p.min_bytes);
  w.field("max_bytes", p.max_bytes);
  w.field("compute_s", p.compute_s);
  w.field("imbalance", p.imbalance);
  w.field("collective_prob", p.collective_prob);
  w.field("defect_prob", p.defect_prob);
  w.end_object();
}

GenParams params_from_json(const support::JsonValue& v) {
  GenParams p;
  p.pattern = parse_pattern(v.at("pattern").as_string());
  p.ranks = support::u32_at(v, "ranks");
  p.rounds = support::u32_at(v, "rounds");
  p.min_bytes = support::u64_at(v, "min_bytes");
  p.max_bytes = support::u64_at(v, "max_bytes");
  p.compute_s = v.at("compute_s").as_number();
  p.imbalance = v.at("imbalance").as_number();
  p.collective_prob = v.at("collective_prob").as_number();
  p.defect_prob = v.at("defect_prob").as_number();
  validate(p);
  return p;
}

GeneratedProgram generate(std::uint64_t seed, const GenParams& params) {
  validate(params);
  support::Rng rng(seed);
  GeneratedProgram out;
  out.program = mpi::Program(params.ranks);
  Builder b{params, rng, out.program};

  // Decide the defect up front so the body's draw sequence is identical
  // for a given seed whether or not a defect follows it.
  const bool defective = rng.bernoulli(params.defect_prob);
  const std::size_t defect_class = defective ? rng.index(3) : 0;

  for (std::uint32_t round = 0; round < params.rounds; ++round)
    b.round(params.pattern);
  if (defective) out.defect = b.inject_defect(defect_class);
  return out;
}

std::uint64_t program_digest(const mpi::Program& program) {
  support::Hasher h;
  h.u64(program.ranks());
  for (std::uint32_t r = 0; r < program.ranks(); ++r) {
    const auto& ops = program.rank(r);
    h.u64(ops.size());
    for (const auto& op : ops) {
      h.u64(static_cast<std::uint64_t>(op.kind))
          .f64(op.seconds)
          .u64(op.peer)
          .u64(op.bytes)
          .u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(op.tag)))
          .u64(op.root)
          .u64(op.counts.size());
      for (std::uint64_t c : op.counts) h.u64(c);
      h.str(op.label);
    }
  }
  return h.digest();
}

GenParams sweep_params(std::uint64_t seed, const SweepSpec& spec) {
  support::Rng rng(support::derive_seed(seed, params_hash(spec.base)));
  GenParams p = spec.base;
  if (!spec.pin_pattern) {
    constexpr Pattern kAll[] = {Pattern::kHalo, Pattern::kAllToAll,
                                Pattern::kPipeline, Pattern::kMasterWorker,
                                Pattern::kMixed};
    p.pattern = kAll[rng.index(5)];
  }
  if (!spec.pin_ranks) {
    constexpr std::uint32_t kRanks[] = {4, 8, 12, 16};
    p.ranks = kRanks[rng.index(4)];
  }
  if (!spec.pin_rounds) {
    p.rounds = static_cast<std::uint32_t>(2 + rng.index(3));
  }
  return p;
}

}  // namespace mb::gen
