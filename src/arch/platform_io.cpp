#include "arch/platform_io.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "support/check.h"

namespace mb::arch {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

void serialize_core(std::ostringstream& out, const CoreConfig& c) {
  out << "[core]\n";
  out << "name = " << c.name << '\n';
  out << "freq_hz = " << c.freq_hz << '\n';
  out << "issue_width = " << c.issue_width << '\n';
  out << "out_of_order = " << (c.out_of_order ? 1 : 0) << '\n';
  out << "split_lsu = " << (c.split_lsu ? 1 : 0) << '\n';
  out << "vector_bits = " << c.vector_bits << '\n';
  out << "vector_dp = " << (c.vector_dp ? 1 : 0) << '\n';
  out << "int_registers = " << c.int_registers << '\n';
  out << "fp_registers = " << c.fp_registers << '\n';
  out << "dp_scalar_registers = " << c.dp_scalar_registers << '\n';
  out << "miss_overlap = " << c.miss_overlap << '\n';
  out << "mshr = " << c.mshr << '\n';
  out << "branch_mispredict_penalty = " << c.branch_mispredict_penalty
      << '\n';
  out << "branch_mispredict_rate = " << c.branch_mispredict_rate << '\n';
  out << "fp_dep_latency_cycles = " << c.fp_dep_latency_cycles << '\n';
  out << "tlb_entries = " << c.tlb_entries << '\n';
  out << "tlb_associativity = " << c.tlb_associativity << '\n';
  out << "tlb_walk_cycles = " << c.tlb_walk_cycles << '\n';
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    out << "recip." << op_class_name(static_cast<OpClass>(i)) << " = "
        << c.recip_throughput[i] << '\n';
  }
}

/// A value as written, with the line it came from for error messages.
struct Value {
  std::string text;
  int line = 0;
};

/// Section = ordered key/value list (caches repeat, so order matters).
struct Section {
  std::string name;  // "" for top level
  std::map<std::string, Value> kv;
  int line = 0;
};

std::vector<Section> split_sections(const std::string& text) {
  std::vector<Section> sections;
  sections.push_back(Section{});
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;
    if (line.front() == '[') {
      support::check(line.back() == ']', "parse_platform",
                     "unterminated section header at line " +
                         std::to_string(line_no));
      sections.push_back(
          Section{trim(line.substr(1, line.size() - 2)), {}, line_no});
      continue;
    }
    const auto eq = line.find('=');
    support::check(eq != std::string::npos, "parse_platform",
                   "expected key = value at line " +
                       std::to_string(line_no));
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    support::check(!key.empty(), "parse_platform",
                   "empty key at line " + std::to_string(line_no));
    auto& section = sections.back();
    support::check(section.kv.emplace(key, Value{value, line_no}).second,
                   "parse_platform",
                   "duplicate key '" + key + "' at line " +
                       std::to_string(line_no));
  }
  return sections;
}

const Value& find_value(const Section& s, const std::string& key) {
  const auto it = s.kv.find(key);
  support::check(it != s.kv.end(), "parse_platform",
                 "missing key '" + key + "' in section [" + s.name + "]");
  return it->second;
}

/// A real-valued field: a finite number (strtod syntax without inf and
/// nan, which no model input can use).
double to_double(const Section& s, const std::string& key) {
  const Value& v = find_value(s, key);
  char* end = nullptr;
  const double d = std::strtod(v.text.c_str(), &end);
  support::check(!v.text.empty() && *end == '\0', "parse_platform",
                 "bad numeric value for '" + key + "' at line " +
                     std::to_string(v.line));
  support::check(std::isfinite(d), "parse_platform",
                 "'" + key + "' at line " + std::to_string(v.line) +
                     " must be a finite number, not '" + v.text + "'");
  return d;
}

/// An integer field: decimal digits only (no sign, fraction, exponent,
/// inf or nan) and no larger than the field's type holds.
template <typename T>
T to_uint(const Section& s, const std::string& key) {
  const Value& v = find_value(s, key);
  std::uint64_t n = 0;
  const char* first = v.text.data();
  const char* last = first + v.text.size();
  const auto [end, ec] = std::from_chars(first, last, n);
  support::check(ec == std::errc{} && end == last &&
                     n <= std::numeric_limits<T>::max(),
                 "parse_platform",
                 "'" + key + "' at line " + std::to_string(v.line) +
                     " must be an unsigned integer below 2^" +
                     std::to_string(std::numeric_limits<T>::digits) +
                     ", not '" + v.text + "'");
  return static_cast<T>(n);
}

bool to_bool(const Section& s, const std::string& key) {
  return to_uint<std::uint64_t>(s, key) != 0;
}

std::string to_string_value(const Section& s, const std::string& key) {
  return find_value(s, key).text;
}

CoreConfig parse_core(const Section& s) {
  CoreConfig c;
  c.name = to_string_value(s, "name");
  c.freq_hz = to_double(s, "freq_hz");
  c.issue_width = to_uint<std::uint32_t>(s, "issue_width");
  c.out_of_order = to_bool(s, "out_of_order");
  c.split_lsu = to_bool(s, "split_lsu");
  c.vector_bits = to_uint<std::uint32_t>(s, "vector_bits");
  c.vector_dp = to_bool(s, "vector_dp");
  c.int_registers = to_uint<std::uint32_t>(s, "int_registers");
  c.fp_registers = to_uint<std::uint32_t>(s, "fp_registers");
  c.dp_scalar_registers =
      to_uint<std::uint32_t>(s, "dp_scalar_registers");
  c.miss_overlap = to_double(s, "miss_overlap");
  c.mshr = to_double(s, "mshr");
  c.branch_mispredict_penalty = to_double(s, "branch_mispredict_penalty");
  c.branch_mispredict_rate = to_double(s, "branch_mispredict_rate");
  c.fp_dep_latency_cycles = to_double(s, "fp_dep_latency_cycles");
  c.tlb_entries = to_uint<std::uint32_t>(s, "tlb_entries");
  c.tlb_associativity =
      to_uint<std::uint32_t>(s, "tlb_associativity");
  c.tlb_walk_cycles =
      to_uint<std::uint32_t>(s, "tlb_walk_cycles");
  for (std::size_t i = 0; i < kOpClassCount; ++i) {
    const auto cls = static_cast<OpClass>(i);
    c.recip_throughput[i] =
        to_double(s, "recip." + std::string(op_class_name(cls)));
  }
  return c;
}

CacheConfig parse_cache(const Section& s) {
  CacheConfig c;
  c.name = to_string_value(s, "name");
  c.size_bytes = to_uint<std::uint64_t>(s, "size_bytes");
  c.line_bytes = to_uint<std::uint32_t>(s, "line_bytes");
  c.associativity =
      to_uint<std::uint32_t>(s, "associativity");
  c.latency_cycles =
      to_uint<std::uint32_t>(s, "latency_cycles");
  c.shared = to_bool(s, "shared");
  c.physically_indexed = to_bool(s, "physically_indexed");
  return c;
}

MemConfig parse_mem(const Section& s) {
  MemConfig m;
  m.kind = to_string_value(s, "kind");
  m.latency_ns = to_double(s, "latency_ns");
  m.bandwidth_bytes_per_s = to_double(s, "bandwidth_bytes_per_s");
  m.total_bytes = to_uint<std::uint64_t>(s, "total_bytes");
  m.page_bytes = to_uint<std::uint32_t>(s, "page_bytes");
  return m;
}

}  // namespace

std::string serialize_platform(const Platform& platform) {
  platform.validate();
  std::ostringstream out;
  out.precision(17);
  out << "# montblanc platform description\n";
  out << "name = " << platform.name << '\n';
  out << "cores = " << platform.cores << '\n';
  out << "power_w = " << platform.power_w << '\n';
  serialize_core(out, platform.core);
  for (const auto& c : platform.caches) {
    out << "[cache]\n";
    out << "name = " << c.name << '\n';
    out << "size_bytes = " << c.size_bytes << '\n';
    out << "line_bytes = " << c.line_bytes << '\n';
    out << "associativity = " << c.associativity << '\n';
    out << "latency_cycles = " << c.latency_cycles << '\n';
    out << "shared = " << (c.shared ? 1 : 0) << '\n';
    out << "physically_indexed = " << (c.physically_indexed ? 1 : 0)
        << '\n';
  }
  out << "[mem]\n";
  out << "kind = " << platform.mem.kind << '\n';
  out << "latency_ns = " << platform.mem.latency_ns << '\n';
  out << "bandwidth_bytes_per_s = " << platform.mem.bandwidth_bytes_per_s
      << '\n';
  out << "total_bytes = " << platform.mem.total_bytes << '\n';
  out << "page_bytes = " << platform.mem.page_bytes << '\n';
  return out.str();
}

Platform parse_platform(const std::string& text) {
  const auto sections = split_sections(text);
  Platform p;
  bool have_core = false, have_mem = false;
  for (const auto& s : sections) {
    if (s.name.empty()) {
      if (s.kv.empty()) continue;
      p.name = to_string_value(s, "name");
      p.cores = to_uint<std::uint32_t>(s, "cores");
      p.power_w = to_double(s, "power_w");
    } else if (s.name == "core") {
      support::check(!have_core, "parse_platform",
                     "duplicate [core] section");
      p.core = parse_core(s);
      have_core = true;
    } else if (s.name == "cache") {
      p.caches.push_back(parse_cache(s));
    } else if (s.name == "mem") {
      support::check(!have_mem, "parse_platform",
                     "duplicate [mem] section");
      p.mem = parse_mem(s);
      have_mem = true;
    } else {
      support::fail("parse_platform", "unknown section [" + s.name + "]");
    }
  }
  support::check(have_core, "parse_platform", "missing [core] section");
  support::check(have_mem, "parse_platform", "missing [mem] section");
  p.validate();
  return p;
}

}  // namespace mb::arch
