// Platform descriptors.
//
// A Platform is a declarative model of one machine from the paper: core
// microarchitecture (issue width, per-operation-class throughput, vector
// capabilities, register files), cache hierarchy, memory system, and power.
// The cost model in mb::sim combines a kernel's instruction mix and simulated
// cache behaviour with these parameters to produce cycles, time and energy.
//
// The paper's platforms (Section II-III):
//  * Snowball     — ST-Ericsson A9500, 2x Cortex-A9 @1 GHz, NEON (SP only)
//  * Xeon X5550   — 4x Nehalem @2.66 GHz, SSE 128-bit, 8 MB L3
//  * Tegra2 node  — Tibidabo compute node, 2x Cortex-A9 @1 GHz, no NEON
//  * Exynos5 Dual — projected Mont-Blanc prototype chip (2x A15 + Mali T604)
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/check.h"

namespace mb::arch {

/// Instruction classes distinguished by the cost model. Granularity follows
/// what the paper's workloads stress: integer vs 64-bit integer (bitboards),
/// scalar vs vector floating point in both precisions, memory ops, branches.
enum class OpClass : std::uint8_t {
  kIntAlu,     ///< 32-bit integer add/sub/logic/shift
  kIntMul,     ///< integer multiply
  kInt64,      ///< 64-bit integer op (decomposed on 32-bit cores)
  kFpAddSp,    ///< scalar single-precision add
  kFpMulSp,    ///< scalar single-precision multiply
  kFpAddDp,    ///< scalar double-precision add
  kFpMulDp,    ///< scalar double-precision multiply
  kVecSp,      ///< one 128-bit-wide packed SP op (4 lanes nominal)
  kVecDp,      ///< one 128-bit-wide packed DP op (2 lanes nominal)
  kLoad32,     ///< 32-bit load (cache behaviour modelled separately)
  kLoad64,     ///< 64-bit load
  kLoad128,    ///< 128-bit (vector) load
  kStore32,    ///< 32-bit store
  kStore64,    ///< 64-bit store
  kStore128,   ///< 128-bit (vector) store
  kBranch,     ///< conditional branch
  kCount
};

/// True for the load/store classes.
bool is_memory_op(OpClass c);
/// Bytes moved by one memory op of this class (0 for non-memory classes).
std::uint32_t memory_op_bytes(OpClass c);
/// The load (or store) class matching an element width in bits (32/64/128).
OpClass load_class_for_bits(std::uint32_t bits);
OpClass store_class_for_bits(std::uint32_t bits);

inline constexpr std::size_t kOpClassCount =
    static_cast<std::size_t>(OpClass::kCount);

/// Human-readable operation class name.
std::string_view op_class_name(OpClass c);

/// One cache level.
struct CacheConfig {
  std::string name;            ///< "L1", "L2", ...
  std::uint64_t size_bytes = 0;
  std::uint32_t line_bytes = 0;
  std::uint32_t associativity = 0;  ///< ways; sets = size / (line * ways)
  std::uint32_t latency_cycles = 0; ///< load-to-use on hit
  bool shared = false;              ///< shared among all cores of the socket
  bool physically_indexed = true;   ///< uses physical addresses for indexing

  std::uint64_t sets() const {
    return size_bytes / (static_cast<std::uint64_t>(line_bytes) *
                         associativity);
  }
};

/// DRAM / memory-bus behaviour.
struct MemConfig {
  std::string kind;                  ///< "LP-DDR2", "DDR3", ...
  double latency_ns = 0.0;           ///< loaded DRAM access latency
  double bandwidth_bytes_per_s = 0;  ///< sustainable chip bandwidth
  std::uint64_t total_bytes = 0;     ///< installed capacity
  std::uint32_t page_bytes = 4096;   ///< OS page size
};

/// Core microarchitecture parameters.
struct CoreConfig {
  std::string name;               ///< "Cortex-A9", "Nehalem", ...
  double freq_hz = 0.0;
  std::uint32_t issue_width = 1;  ///< sustained ops per cycle ceiling
  bool out_of_order = false;

  /// Reciprocal throughput (cycles per operation when that class saturates
  /// its unit) for each OpClass. A value of 0 marks the class unsupported:
  /// the cost model decomposes it (see sim::CostModel).
  std::array<double, kOpClassCount> recip_throughput{};

  /// Loads and stores issue on separate ports (Nehalem-style) rather than
  /// sharing a single AGU/LSU slot (Cortex-A9-style). With split ports the
  /// LSU bound is max(loads, stores) instead of their sum.
  bool split_lsu = false;

  /// Vector datapath width in bits (64 for Cortex-A9 NEON: 128-bit ops crack
  /// into two 64-bit halves; 128 for SSE). 0 = no vector unit.
  std::uint32_t vector_bits = 0;
  bool vector_dp = false;  ///< vector unit handles double precision

  /// Architectural registers available for unrolled loop bodies. Drives the
  /// spill models in the unrolling experiments (Fig. 6 and 7).
  std::uint32_t int_registers = 0;
  /// Vector registers the compiler will actually allocate, in 128-bit
  /// units (membench vectorized-unrolling spill model, Fig. 6).
  std::uint32_t fp_registers = 0;
  /// Scalar double-precision values that can stay register-resident in an
  /// unrolled FP loop (magicfilter spill model, Fig. 7).
  std::uint32_t dp_scalar_registers = 8;

  /// Fraction of a miss's latency an OoO window can overlap with useful
  /// work (0 = fully exposed, 0.7 = 70% hidden).
  double miss_overlap = 0.0;

  /// Outstanding DRAM misses the core can sustain (MSHRs + prefetch
  /// streams). Back-to-back independent misses pipeline across them, so
  /// streaming cost approaches the bandwidth bound instead of serializing
  /// on DRAM latency.
  double mshr = 1.0;

  double branch_mispredict_penalty = 10.0;  ///< cycles
  double branch_mispredict_rate = 0.02;     ///< default rate when a kernel
                                            ///< does not supply its own

  /// Result-to-use latency of a dependent FP add chain (reduction loops).
  double fp_dep_latency_cycles = 4.0;

  /// Data TLB parameters (drives cache::Tlb construction).
  std::uint32_t tlb_entries = 32;
  std::uint32_t tlb_associativity = 32;
  std::uint32_t tlb_walk_cycles = 30;
};

/// GPU presence (perspectives section; used by power projections only).
struct GpuConfig {
  std::string name;
  double peak_sp_gflops = 0.0;
  bool general_purpose = false;  ///< usable for GPGPU (Mali-400 is not)
};

/// A complete machine description.
struct Platform {
  std::string name;
  CoreConfig core;
  std::uint32_t cores = 1;
  std::vector<CacheConfig> caches;  ///< ordered L1 -> LLC
  MemConfig mem;
  std::optional<GpuConfig> gpu;

  /// Power model: the paper uses nameplate numbers (2.5 W full-board for
  /// Snowball, 95 W TDP for the Xeon) — deliberately conservative for ARM.
  double power_w = 0.0;

  /// Peak double-precision GFLOPS of the whole chip (derived).
  double peak_dp_gflops() const;
  /// Peak single-precision GFLOPS of the whole chip (derived).
  double peak_sp_gflops() const;

  /// Cycles -> seconds at core frequency.
  double seconds(double cycles) const { return cycles / core.freq_hz; }

  /// Returns the cache level index acting as last-level cache.
  std::size_t llc_index() const;

  /// Every field that breaks internal consistency (sizes
  /// power-of-two-divisible into sets, nonzero frequency, a positive page
  /// size, a TLB geometry cache::Tlb can build, installed memory, ...),
  /// named by its path ("core.tlb_entries", "caches[1].line_bytes",
  /// "mem.page_bytes", "power_w"). This list is the model's whole
  /// definition of validity: validate() and parse_platform throw its first
  /// entry, and verify::lint_platform reports each entry as an error.
  /// Within one cache level, and within the TLB, only the first failing
  /// check is listed, because the later checks divide by earlier fields.
  std::vector<support::Violation> violations() const;
  /// Throws support::Error naming the first violation, if there is one.
  void validate() const;
};

/// Convenience accessor for a core's reciprocal throughput of a class.
double recip_throughput(const CoreConfig& core, OpClass c);

}  // namespace mb::arch
