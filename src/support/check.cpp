#include "support/check.h"

namespace mb::support {

void check(bool cond, std::string_view where, std::string_view message) {
  if (!cond) fail(where, message);
}

void fail(std::string_view where, std::string_view message) {
  std::string what;
  what.reserve(where.size() + message.size() + 2);
  what.append(where);
  what.append(": ");
  what.append(message);
  throw Error(what);
}

void check_none(const std::vector<Violation>& violations,
                std::string_view where) {
  if (!violations.empty())
    fail(where, violations.front().field + ": " + violations.front().message);
}

}  // namespace mb::support
