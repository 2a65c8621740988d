// Interned labels.
//
// SPMD programs and their traces repeat the same few labels ("compute",
// "alltoallv", "halo") on every rank, millions of times at scale. A Label
// is one pointer to the single copy of its text, so ops and trace records
// carry a label in 8 bytes and compare labels in one instruction.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace mb::support {

/// An interned label: a pointer to the one copy of its text in a
/// process-wide, append-only string set. Labels live until the process
/// exits. Code creates them (op factories, app builders, the generator,
/// fault marks, tests), and so do the trace readers, which intern what a
/// file names under a per-file bound on distinct labels and label length
/// (trace::kMaxTraceLabels, trace::kMaxTraceLabelBytes). Interning locks
/// and is safe from any thread; reading a label does not lock. Two labels
/// are equal when they point at the same entry. Nothing may depend on the
/// address itself or on interning order. The empty label is the default
/// and is never interned.
class Label {
 public:
  Label() = default;
  // Implicit both ways, so ops take string literals and read as strings.
  Label(std::string_view text);                                      // NOLINT
  Label(const char* text) : Label(std::string_view(text)) {}         // NOLINT
  Label(const std::string& text) : Label(std::string_view(text)) {}  // NOLINT
  operator const std::string&() const { return *text_; }             // NOLINT
  operator std::string_view() const { return *text_; }               // NOLINT

  const std::string& str() const { return *text_; }
  bool empty() const { return text_->empty(); }

  friend bool operator==(const Label& a, const Label& b) {
    return a.text_ == b.text_;
  }
  friend bool operator==(const Label& a, std::string_view b) {
    return *a.text_ == b;
  }
  friend bool operator==(const Label& a, const char* b) {
    return *a.text_ == b;
  }
  friend bool operator==(const Label& a, const std::string& b) {
    return *a.text_ == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const Label& label);

 private:
  static const std::string kEmpty;
  const std::string* text_ = &kEmpty;
};

}  // namespace mb::support

/// Hashes a label's identity, for maps keyed by label. Iterating such a
/// map visits labels in an address order; keep ids in a separate list.
template <>
struct std::hash<mb::support::Label> {
  std::size_t operator()(const mb::support::Label& label) const {
    return std::hash<const std::string*>{}(&label.str());
  }
};
