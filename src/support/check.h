// Error handling primitives for the montblanc library.
//
// The library reports precondition violations and invariant breaks by
// throwing mb::support::Error (a std::runtime_error). Simulation code never
// calls abort(); callers (tests, benches, examples) are expected to treat an
// Error as a bug in their configuration or in the library itself.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mb::support {

/// Exception type thrown on precondition/invariant violation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws Error with the given message when `cond` is false.
///
/// Used for preconditions on public API entry points. `where` should name
/// the function or subsystem for diagnosability.
void check(bool cond, std::string_view where, std::string_view message);

/// Unconditionally reports a broken invariant.
[[noreturn]] void fail(std::string_view where, std::string_view message);

/// A field that a declarative model (arch::Platform, net::TreeParams,
/// net::LinkSpec) refuses: its path in the model ("core.tlb_entries",
/// "uplink.latency_s") and what is wrong with it. A model lists its
/// violations; validation throws the first and lint reports every one.
struct Violation {
  std::string field;
  std::string message;
};

/// Throws Error "where: field: message" for the first of `violations`;
/// returns when there is none.
void check_none(const std::vector<Violation>& violations,
                std::string_view where);

}  // namespace mb::support
