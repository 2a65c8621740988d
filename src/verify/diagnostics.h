// Structured diagnostics for the static verification layer.
//
// Every finding carries a stable rule id (see verify/rules.h), a severity,
// a location — either {rank, op index} inside an mpi::Program or a config
// key inside a platform/network description — a human message and an
// optional fix hint. Reports render as an aligned text table for terminals
// and as a versioned JSON document ("mb-diagnostics") for CI artifacts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.h"

namespace mb::verify {

enum class Severity : std::uint8_t { kError, kWarn, kNote };

std::string_view severity_name(Severity s);

/// Where a finding points. Exactly one of the two flavours is set: a
/// program location (rank + op index into the rank's op list as the user
/// built it) or a configuration key ("caches[1].line_bytes", "ranks", ...).
struct Location {
  bool in_program = false;
  std::uint32_t rank = 0;
  std::size_t op_index = 0;
  std::string config_key;

  static Location program(std::uint32_t rank, std::size_t op_index);
  static Location config(std::string key);
  static Location none() { return Location{}; }

  bool empty() const { return !in_program && config_key.empty(); }
  std::string to_string() const;
};

struct Diagnostic {
  std::string rule;  ///< stable id, e.g. "MPI003" — never renumbered
  Severity severity = Severity::kError;
  Location location;
  std::string message;
  std::string hint;  ///< optional "how to fix" guidance
};

/// An ordered list of findings plus severity tallies.
class Report {
 public:
  void add(Diagnostic d);
  /// Convenience: add with the rule's registered default severity.
  void add(std::string_view rule, Location location, std::string message,
           std::string hint = {});
  /// Convenience: add with an explicit severity override.
  void add(std::string_view rule, Severity severity, Location location,
           std::string message, std::string hint = {});

  /// Appends every finding of `other` (pass composition).
  void merge(const Report& other);

  const std::vector<Diagnostic>& findings() const { return findings_; }
  bool empty() const { return findings_.empty(); }
  std::size_t count(Severity s) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarn); }
  std::size_t notes() const { return count(Severity::kNote); }
  bool has_errors() const { return errors() > 0; }

  /// True when any finding carries this rule id.
  bool has_rule(std::string_view rule) const;

 private:
  std::vector<Diagnostic> findings_;
};

/// Human rendering: one table row per finding plus a severity summary line.
std::string render_diagnostics(const Report& report);

/// JSON rendering — the "mb-diagnostics" schema, version 1:
///   {schema, schema_version, tool, tool_version, source, seed,
///    counts: {error, warn, note},
///    findings: [{rule, severity, rank?, op_index?, config_key?,
///                message, hint?}]}
/// `source` names what was analyzed ("platform:snowball", "fig4", ...);
/// `seed` is the effective seed of the analyzed scenario (0 when the
/// target is unseeded, e.g. a platform description).
std::string diagnostics_to_json(const Report& report,
                                std::string_view source,
                                std::uint64_t seed = 0);

/// Writes the report's `counts` and `findings` members into the object
/// `w` has open — the shape mb-diagnostics and mb-static-analysis share.
void write_findings(support::JsonWriter& w, const Report& report);

/// Publishes the report's severity tallies into the global metrics
/// registry: verify.findings{severity=...} counters plus one
/// verify.runs{pass=...} increment. `pass` is "mpi" or "lint".
void publish_diagnostics(const Report& report, std::string_view pass);

}  // namespace mb::verify
