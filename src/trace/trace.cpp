#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "stats/descriptive.h"
#include "support/check.h"

namespace mb::trace {

std::string_view event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kCompute: return "compute";
    case EventKind::kSend: return "send";
    case EventKind::kRecv: return "recv";
    case EventKind::kCollective: return "collective";
    case EventKind::kWait: return "wait";
    case EventKind::kFault: return "fault";
  }
  return "?";
}

std::string_view interval_error(double t0, double t1) {
  // 2^63 us: past it std::llround(t * 1e6) has no long long result.
  constexpr double kLimitUs = 0x1p63;
  if (!std::isfinite(t0) || !std::isfinite(t1))
    return "timestamp is not finite";
  if (t0 < 0.0 || t1 < 0.0) return "timestamp is negative";
  if (!(t0 * 1e6 < kLimitUs) || !(t1 * 1e6 < kLimitUs))
    return "timestamp is not below 2^63 microseconds";
  if (t1 < t0) return "event ends before it starts";
  return {};
}

void Trace::add(Record r) {
  const std::string_view why = interval_error(r.t0, r.t1);
  if (!why.empty()) support::fail("Trace::add", std::string(why));
  records_.push_back(r);
}

void Trace::set_provenance(std::string tool_version, std::uint64_t seed) {
  has_provenance_ = true;
  tool_version_ = std::move(tool_version);
  seed_ = seed;
}

std::vector<Record> Trace::filter(EventKind kind,
                                  std::string_view label) const {
  std::vector<Record> out;
  for (const auto& r : records_)
    if (r.kind == kind && (label.empty() || r.label == label))
      out.push_back(r);
  return out;
}

std::uint32_t Trace::ranks() const {
  std::uint32_t top = 0;
  for (const auto& r : records_) top = std::max(top, r.rank + 1);
  return top;
}

double Trace::end_time() const {
  double end = 0.0;
  for (const auto& r : records_) end = std::max(end, r.t1);
  return end;
}

EventKind parse_event_kind(std::string_view name) {
  if (name == "compute") return EventKind::kCompute;
  if (name == "send") return EventKind::kSend;
  if (name == "recv") return EventKind::kRecv;
  if (name == "collective") return EventKind::kCollective;
  if (name == "wait") return EventKind::kWait;
  if (name == "fault") return EventKind::kFault;
  support::fail("parse_event_kind",
                "unknown event kind '" + std::string(name) + "'");
}

void Trace::write_paraver(std::ostream& os) const {
  // One record per line: a label with a line break would split its record
  // into two unparseable lines, so refuse before writing anything.
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.label.str().find_first_of("\r\n") != std::string::npos)
      support::fail("Trace::write_paraver",
                    "record " + std::to_string(i) + " (rank " +
                        std::to_string(r.rank) +
                        "): label contains a line break, which a Paraver "
                        "dump cannot carry");
  }
  os << "#Paraver-like state records (rank:kind:label:t0_us:t1_us:bytes)\n";
  if (has_provenance_)
    os << "#provenance tool_version=" << tool_version_ << " seed=" << seed_
       << '\n';
  // Rounding (not truncation) keeps the format a fixpoint: parsing a dump
  // and re-writing it reproduces the dump byte for byte. Truncating would
  // drift one microsecond down whenever us/1e6*1e6 lands just below an
  // integer.
  for (const auto& r : records_) {
    os << r.rank << ':' << event_kind_name(r.kind) << ':' << r.label << ':'
       << static_cast<std::uint64_t>(std::llround(r.t0 * 1e6)) << ':'
       << static_cast<std::uint64_t>(std::llround(r.t1 * 1e6)) << ':'
       << r.bytes << '\n';
  }
}

void FileLabels::fail(std::uint64_t index, const std::string& why) const {
  support::fail(std::string(reader_), std::string(unit_) + " " +
                                          std::to_string(index) + ": " + why);
}

void FileLabels::check_length(std::size_t bytes, std::uint64_t index) const {
  if (bytes > kMaxTraceLabelBytes)
    fail(index, "label of " + std::to_string(bytes) +
                    " bytes is longer than " +
                    std::to_string(kMaxTraceLabelBytes));
}

support::Label FileLabels::intern(std::string_view text,
                                  std::uint64_t index) {
  const auto it = seen_.find(text);
  if (it != seen_.end()) return it->second;
  check_length(text.size(), index);
  if (seen_.size() >= kMaxTraceLabels)
    fail(index, "more than " + std::to_string(kMaxTraceLabels) +
                    " distinct labels in one file");
  const support::Label label(text);
  seen_.emplace(label.str(), label);
  return label;
}

namespace {

// The parser's checks run per character and per line, so a message is
// built only after a check has failed.
[[noreturn]] void fail_at_line(std::size_t line_no, std::string_view why) {
  support::fail("parse_paraver",
                "line " + std::to_string(line_no) + ": " + std::string(why));
}

std::uint64_t parse_u64_field(std::string_view field, std::size_t line_no) {
  if (field.empty()) fail_at_line(line_no, "empty numeric field");
  std::uint64_t value = 0;
  for (const char c : field) {
    if (c < '0' || c > '9')
      fail_at_line(line_no,
                   "non-numeric field '" + std::string(field) + "'");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      fail_at_line(line_no, "numeric field '" + std::string(field) +
                                "' overflows 64 bits");
    value = value * 10 + digit;
  }
  return value;
}

/// Lines of a seekable stream from the read position on that are neither
/// empty nor comments: the records a parse can add. 0 when the stream
/// cannot seek; the position is restored.
std::size_t record_lines(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  std::size_t lines = 0;
  char prev = '\n';
  char buf[1 << 16];
  while (is.read(buf, sizeof buf) || is.gcount() > 0) {
    const char* const end = buf + is.gcount();
    const char* at = buf;
    if (prev == '\n' && *at != '\n' && *at != '#') ++lines;
    prev = end[-1];
    while ((at = static_cast<const char*>(std::memchr(
                at, '\n', static_cast<std::size_t>(end - at)))) &&
           ++at < end)
      lines += *at != '\n' && *at != '#';
  }
  is.clear();
  is.seekg(here);
  return lines;
}

}  // namespace

Trace parse_paraver(std::istream& is) {
  Trace trace;
  trace.reserve(record_lines(is));
  FileLabels labels("parse_paraver", "line");
  std::string line;
  std::size_t line_no = 0;
  constexpr std::string_view kProvenancePrefix = "#provenance tool_version=";
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      // Restore provenance from the stamp write_paraver() emits, so the
      // parse → re-export round trip stays a byte-for-byte fixpoint.
      const std::string_view comment = line;
      if (comment.substr(0, kProvenancePrefix.size()) == kProvenancePrefix) {
        const std::string_view rest = comment.substr(kProvenancePrefix.size());
        const std::size_t seed_at = rest.rfind(" seed=");
        if (seed_at != std::string_view::npos) {
          trace.set_provenance(
              std::string(rest.substr(0, seed_at)),
              parse_u64_field(rest.substr(seed_at + 6), line_no));
        }
      }
      continue;
    }
    const std::string_view view = line;

    // Anchor the split from both ends: the first two fields (rank, kind)
    // and the last three (t0, t1, bytes) cannot contain ':', so a label
    // containing ':' still parses.
    const std::size_t c1 = view.find(':');
    if (c1 == std::string_view::npos)
      fail_at_line(line_no, "missing ':' separators");
    const std::size_t c2 = view.find(':', c1 + 1);
    if (c2 == std::string_view::npos) fail_at_line(line_no, "too few fields");
    const std::size_t c5 = view.rfind(':');
    const std::size_t c4 = c5 > 0 ? view.rfind(':', c5 - 1)
                                  : std::string_view::npos;
    const std::size_t c3 = c4 != std::string_view::npos && c4 > 0
                               ? view.rfind(':', c4 - 1)
                               : std::string_view::npos;
    if (c3 == std::string_view::npos || c3 < c2)
      fail_at_line(line_no, "too few fields");

    Record r;
    const std::uint64_t rank = parse_u64_field(view.substr(0, c1), line_no);
    if (rank >= kMaxTraceRanks)
      fail_at_line(line_no, "rank " + std::to_string(rank) +
                                " is not below 2^24");
    r.rank = static_cast<std::uint32_t>(rank);
    r.kind = parse_event_kind(view.substr(c1 + 1, c2 - c1 - 1));
    r.label = labels.intern(view.substr(c2 + 1, c3 - c2 - 1), line_no);
    r.t0 = static_cast<double>(
               parse_u64_field(view.substr(c3 + 1, c4 - c3 - 1), line_no)) /
           1e6;
    r.t1 = static_cast<double>(
               parse_u64_field(view.substr(c4 + 1, c5 - c4 - 1), line_no)) /
           1e6;
    r.bytes = parse_u64_field(view.substr(c5 + 1), line_no);
    const std::string_view why = interval_error(r.t0, r.t1);
    if (!why.empty()) fail_at_line(line_no, why);
    trace.add(r);
  }
  return trace;
}

Trace parse_paraver(std::string_view text) {
  std::istringstream is{std::string(text)};
  return parse_paraver(is);
}

std::map<std::string, CollectiveReport, std::less<>> classify_collectives(
    const Trace& trace, double delay_factor) {
  support::check(delay_factor > 1.0, "classify_collectives",
                 "delay_factor must exceed 1");
  // Each label's records per rank, in trace order: the i-th of a rank
  // belongs to instance i.
  const std::vector<Record>& records = trace.records();
  std::map<std::string_view, std::map<std::uint32_t, std::vector<std::size_t>>>
      groups;
  for (std::size_t k = 0; k < records.size(); ++k)
    if (records[k].kind == EventKind::kCollective)
      groups[records[k].label][records[k].rank].push_back(k);

  std::map<std::string, CollectiveReport, std::less<>> reports;
  for (const auto& [label, per_rank] : groups) {
    CollectiveReport& report = reports[std::string(label)];
    std::size_t instances = 0;
    for (const auto& [rank, recs] : per_rank)
      instances = std::max(instances, recs.size());
    report.instances.resize(instances);
    std::vector<double> durations;
    durations.reserve(instances);
    for (std::size_t i = 0; i < instances; ++i) {
      CollectiveInstance& inst = report.instances[i];
      inst.index = i;
      inst.start = 1e300;
      for (const auto& [rank, recs] : per_rank) {
        if (i >= recs.size()) continue;
        const Record& r = records[recs[i]];
        inst.start = std::min(inst.start, r.t0);
        inst.duration = std::max(inst.duration, r.duration());
        inst.members.push_back(recs[i]);
      }
      durations.push_back(inst.duration);
    }

    report.median_duration = stats::median(durations);
    const double threshold = delay_factor * report.median_duration;
    for (auto& inst : report.instances) {
      inst.delayed = inst.duration > threshold;
      if (!inst.delayed) continue;
      ++report.delayed_count;
      // Count ranks whose own interval exceeded the threshold in this
      // instance (partial delays: only some ranks suffer).
      for (const std::size_t k : inst.members)
        if (records[k].duration() > threshold) ++inst.slow_ranks;
      if (inst.slow_ranks > 0 && inst.slow_ranks < per_rank.size())
        report.has_partial_delays = true;
    }
  }
  return reports;
}

CollectiveReport analyze_collectives(const Trace& trace,
                                     std::string_view label,
                                     double delay_factor) {
  auto reports = classify_collectives(trace, delay_factor);
  const auto it = reports.find(label);
  return it == reports.end() ? CollectiveReport{} : std::move(it->second);
}

}  // namespace mb::trace
