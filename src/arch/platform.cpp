#include "arch/platform.h"

#include <algorithm>
#include <string>
#include <utility>

#include "support/check.h"

namespace mb::arch {

std::string_view op_class_name(OpClass c) {
  switch (c) {
    case OpClass::kIntAlu: return "int_alu";
    case OpClass::kIntMul: return "int_mul";
    case OpClass::kInt64: return "int64";
    case OpClass::kFpAddSp: return "fp_add_sp";
    case OpClass::kFpMulSp: return "fp_mul_sp";
    case OpClass::kFpAddDp: return "fp_add_dp";
    case OpClass::kFpMulDp: return "fp_mul_dp";
    case OpClass::kVecSp: return "vec_sp";
    case OpClass::kVecDp: return "vec_dp";
    case OpClass::kLoad32: return "load32";
    case OpClass::kLoad64: return "load64";
    case OpClass::kLoad128: return "load128";
    case OpClass::kStore32: return "store32";
    case OpClass::kStore64: return "store64";
    case OpClass::kStore128: return "store128";
    case OpClass::kBranch: return "branch";
    case OpClass::kCount: break;
  }
  return "?";
}

bool is_memory_op(OpClass c) {
  switch (c) {
    case OpClass::kLoad32:
    case OpClass::kLoad64:
    case OpClass::kLoad128:
    case OpClass::kStore32:
    case OpClass::kStore64:
    case OpClass::kStore128:
      return true;
    default:
      return false;
  }
}

std::uint32_t memory_op_bytes(OpClass c) {
  switch (c) {
    case OpClass::kLoad32:
    case OpClass::kStore32:
      return 4;
    case OpClass::kLoad64:
    case OpClass::kStore64:
      return 8;
    case OpClass::kLoad128:
    case OpClass::kStore128:
      return 16;
    default:
      return 0;
  }
}

OpClass load_class_for_bits(std::uint32_t bits) {
  switch (bits) {
    case 32: return OpClass::kLoad32;
    case 64: return OpClass::kLoad64;
    case 128: return OpClass::kLoad128;
    default:
      support::fail("load_class_for_bits", "width must be 32, 64 or 128");
  }
}

OpClass store_class_for_bits(std::uint32_t bits) {
  switch (bits) {
    case 32: return OpClass::kStore32;
    case 64: return OpClass::kStore64;
    case 128: return OpClass::kStore128;
    default:
      support::fail("store_class_for_bits", "width must be 32, 64 or 128");
  }
}

double recip_throughput(const CoreConfig& core, OpClass c) {
  return core.recip_throughput[static_cast<std::size_t>(c)];
}

double Platform::peak_dp_gflops() const {
  // Peak = best of vector DP (lanes per cycle) or scalar DP pipes.
  double flops_per_cycle = 0.0;
  const double vec_rt = recip_throughput(core, OpClass::kVecDp);
  if (core.vector_bits > 0 && core.vector_dp && vec_rt > 0.0) {
    const double lanes = core.vector_bits / 64.0;
    // Separate add and mul pipes can dual-issue: count both if both exist.
    flops_per_cycle = 2.0 * lanes / vec_rt;
  } else {
    const double add_rt = recip_throughput(core, OpClass::kFpAddDp);
    const double mul_rt = recip_throughput(core, OpClass::kFpMulDp);
    if (add_rt > 0.0) flops_per_cycle += 1.0 / add_rt;
    if (mul_rt > 0.0) flops_per_cycle += 1.0 / mul_rt;
    flops_per_cycle = std::min<double>(flops_per_cycle, core.issue_width);
  }
  return cores * core.freq_hz * flops_per_cycle / 1e9;
}

double Platform::peak_sp_gflops() const {
  double flops_per_cycle = 0.0;
  const double vec_rt = recip_throughput(core, OpClass::kVecSp);
  if (core.vector_bits > 0 && vec_rt > 0.0) {
    const double lanes = core.vector_bits / 32.0;
    flops_per_cycle = 2.0 * lanes / vec_rt;
  } else {
    const double add_rt = recip_throughput(core, OpClass::kFpAddSp);
    const double mul_rt = recip_throughput(core, OpClass::kFpMulSp);
    if (add_rt > 0.0) flops_per_cycle += 1.0 / add_rt;
    if (mul_rt > 0.0) flops_per_cycle += 1.0 / mul_rt;
    flops_per_cycle = std::min<double>(flops_per_cycle, core.issue_width);
  }
  return cores * core.freq_hz * flops_per_cycle / 1e9;
}

std::size_t Platform::llc_index() const {
  support::check(!caches.empty(), "Platform::llc_index", "no caches defined");
  return caches.size() - 1;
}

namespace {

bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// The first failing check of one cache level, {field, message}, or
/// {nullptr, nullptr}. Later checks divide by the earlier fields.
std::pair<const char*, const char*> cache_violation(const CacheConfig& c) {
  if (c.size_bytes == 0) return {"size_bytes", "cache size must be positive"};
  if (c.line_bytes == 0)
    return {"line_bytes", "cache line size must be positive"};
  if (c.associativity == 0)
    return {"associativity", "cache associativity must be positive"};
  if (!is_pow2(c.line_bytes))
    return {"line_bytes", "cache line size must be a power of two"};
  if (c.line_bytes < 4)
    return {"line_bytes", "cache line size must be at least 4 bytes"};
  const std::uint64_t way_bytes =
      static_cast<std::uint64_t>(c.line_bytes) * c.associativity;
  if (c.size_bytes % way_bytes != 0)
    return {"size_bytes", "cache size must divide into sets exactly"};
  if (!is_pow2(c.sets()))
    return {"size_bytes", "cache set count must be a power of two"};
  return {nullptr, nullptr};
}

/// The first failing check of the TLB geometry, as cache_violation().
std::pair<const char*, const char*> tlb_violation(const CoreConfig& core) {
  if (core.tlb_entries == 0)
    return {"core.tlb_entries", "TLB entries must be positive"};
  if (core.tlb_associativity == 0)
    return {"core.tlb_associativity", "TLB associativity must be positive"};
  if (core.tlb_entries % core.tlb_associativity != 0)
    return {"core.tlb_entries",
            "TLB entries must be a multiple of the associativity"};
  if (!is_pow2(core.tlb_entries / core.tlb_associativity))
    return {"core.tlb_entries", "TLB set count must be a power of two"};
  return {nullptr, nullptr};
}

}  // namespace

std::vector<support::Violation> Platform::violations() const {
  std::vector<support::Violation> out;
  const auto add = [&out](std::string field, const char* message) {
    out.push_back({std::move(field), message});
  };
  // Written as !(ok) so that NaN fails every range too.
  if (name.empty()) add("name", "platform needs a name");
  if (!(core.freq_hz > 0.0))
    add("core.freq_hz", "core frequency must be positive");
  if (cores < 1) add("cores", "at least one core");
  if (core.issue_width < 1)
    add("core.issue_width", "issue width must be >= 1");
  if (!(core.miss_overlap >= 0.0 && core.miss_overlap <= 1.0))
    add("core.miss_overlap", "miss_overlap must lie in [0, 1]");
  if (!(core.mshr >= 1.0)) add("core.mshr", "mshr must be >= 1");
  if (!(core.branch_mispredict_rate >= 0.0 &&
        core.branch_mispredict_rate <= 1.0))
    add("core.branch_mispredict_rate",
        "branch_mispredict_rate must lie in [0, 1]");
  if (!(core.branch_mispredict_penalty >= 0.0))
    add("core.branch_mispredict_penalty",
        "branch_mispredict_penalty must be >= 0");
  if (!(core.fp_dep_latency_cycles >= 0.0))
    add("core.fp_dep_latency_cycles", "fp_dep_latency_cycles must be >= 0");
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    if (core.recip_throughput[i] >= 0.0) continue;
    const std::string recip =
        "recip." + std::string(op_class_name(static_cast<OpClass>(i)));
    out.push_back({"core." + recip, recip + " must be >= 0"});
  }
  if (caches.empty()) add("caches", "at least one cache level required");
  for (std::size_t i = 0; i < caches.size(); ++i) {
    const auto [field, message] = cache_violation(caches[i]);
    if (field != nullptr)
      add("caches[" + std::to_string(i) + "]." + field, message);
  }
  if (!(mem.bandwidth_bytes_per_s > 0.0))
    add("mem.bandwidth_bytes_per_s", "memory bandwidth must be positive");
  if (!(mem.latency_ns > 0.0))
    add("mem.latency_ns", "memory latency must be positive");
  if (!is_pow2(mem.page_bytes))
    add("mem.page_bytes", "page size must be a positive power of two");
  if (const auto [field, message] = tlb_violation(core); field != nullptr)
    add(field, message);
  if (!(power_w > 0.0)) add("power_w", "power must be positive");
  if (mem.total_bytes == 0)
    add("mem.total_bytes", "installed memory must be positive");
  return out;
}

void Platform::validate() const {
  support::check_none(violations(), "Platform::validate");
}

}  // namespace mb::arch
