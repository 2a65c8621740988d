#include "support/label.h"

#include <mutex>
#include <ostream>
#include <shared_mutex>
#include <unordered_set>

namespace mb::support {

constinit const std::string Label::kEmpty{};

namespace {

/// The process-wide label set. Its nodes never move or die, and the set
/// itself is never destroyed, so a Label stays valid through static
/// destructors too.
class Interner {
 public:
  const std::string* intern(std::string_view text) {
    {
      const std::shared_lock lock(mutex_);
      const auto it = set_.find(text);
      if (it != set_.end()) return &*it;
    }
    const std::unique_lock lock(mutex_);
    return &*set_.emplace(text).first;
  }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  std::shared_mutex mutex_;
  std::unordered_set<std::string, Hash, std::equal_to<>> set_;
};

Interner& interner() {
  static Interner* const set = new Interner;
  return *set;
}

}  // namespace

Label::Label(std::string_view text)
    : text_(text.empty() ? &kEmpty : interner().intern(text)) {}

std::ostream& operator<<(std::ostream& os, const Label& label) {
  return os << label.str();
}

}  // namespace mb::support
