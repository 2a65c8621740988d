#include "arch/platform.h"

#include <algorithm>
#include <string>

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

void Platform::validate() const {
  namespace sp = mb::support;
  sp::check(!name.empty(), "Platform::validate", "platform needs a name");
  sp::check(core.freq_hz > 0.0, "Platform::validate",
            "core frequency must be positive");
  sp::check(cores >= 1, "Platform::validate", "at least one core");
  sp::check(core.issue_width >= 1, "Platform::validate",
            "issue width must be >= 1");
  // Written so that NaN fails every range too.
  sp::check(core.miss_overlap >= 0.0 && core.miss_overlap <= 1.0,
            "Platform::validate", "miss_overlap must lie in [0, 1]");
  sp::check(core.mshr >= 1.0, "Platform::validate", "mshr must be >= 1");
  sp::check(core.branch_mispredict_rate >= 0.0 &&
                core.branch_mispredict_rate <= 1.0,
            "Platform::validate",
            "branch_mispredict_rate must lie in [0, 1]");
  sp::check(core.branch_mispredict_penalty >= 0.0, "Platform::validate",
            "branch_mispredict_penalty must be >= 0");
  sp::check(core.fp_dep_latency_cycles >= 0.0, "Platform::validate",
            "fp_dep_latency_cycles must be >= 0");
  for (std::size_t i = 0; i < kOpClassCount; ++i)
    sp::check(core.recip_throughput[i] >= 0.0, "Platform::validate",
              "recip." +
                  std::string(op_class_name(static_cast<OpClass>(i))) +
                  " must be >= 0");
  sp::check(!caches.empty(), "Platform::validate",
            "at least one cache level required");
  for (const auto& c : caches) {
    sp::check(c.size_bytes > 0 && c.line_bytes > 0 && c.associativity > 0,
              "Platform::validate", "cache parameters must be positive");
    sp::check((c.line_bytes & (c.line_bytes - 1)) == 0, "Platform::validate",
              "cache line size must be a power of two");
    sp::check(c.line_bytes >= 4, "Platform::validate",
              "cache line size must be at least 4 bytes");
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(c.line_bytes) * c.associativity;
    sp::check(c.size_bytes % way_bytes == 0, "Platform::validate",
              "cache size must divide into sets exactly");
    const std::uint64_t sets = c.sets();
    sp::check((sets & (sets - 1)) == 0, "Platform::validate",
              "cache set count must be a power of two");
  }
  sp::check(mem.bandwidth_bytes_per_s > 0.0, "Platform::validate",
            "memory bandwidth must be positive");
  sp::check(mem.latency_ns > 0.0, "Platform::validate",
            "memory latency must be positive");
  sp::check(mem.page_bytes > 0 && (mem.page_bytes & (mem.page_bytes - 1)) == 0,
            "Platform::validate", "page size must be a positive power of two");
  sp::check(core.tlb_entries > 0 && core.tlb_associativity > 0,
            "Platform::validate",
            "TLB entries and associativity must be positive");
  sp::check(core.tlb_entries % core.tlb_associativity == 0,
            "Platform::validate",
            "TLB entries must be a multiple of the associativity");
  const std::uint32_t tlb_sets = core.tlb_entries / core.tlb_associativity;
  sp::check((tlb_sets & (tlb_sets - 1)) == 0, "Platform::validate",
            "TLB set count must be a power of two");
  sp::check(power_w > 0.0, "Platform::validate", "power must be positive");
}

}  // namespace mb::arch
