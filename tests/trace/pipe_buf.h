// A stream buffer that cannot seek, for testing how the trace readers
// treat pipes.
#pragma once

#include <streambuf>
#include <string>
#include <utility>

namespace mb::trace {

/// Serves a string through its get area only: like a pipe, it cannot
/// seek, so tellg() on a stream over it fails.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 private:
  std::string text_;
};

}  // namespace mb::trace
