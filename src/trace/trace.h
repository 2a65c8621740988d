// Execution tracing and analysis (paper Sec. IV, Fig. 4).
//
// The paper instruments BigDFT with an automatic tracing library and
// inspects the run in Paraver, finding that all_to_all_v collectives are
// "sometimes delayed" on Tibidabo. This module records the same kind of
// per-rank interval events from the MPI runtime, exports a Paraver-like
// text format, and classifies collective instances as normal vs delayed.
//
// classify_collectives() is the one place that decides which records
// form a collective instance and which instances are delayed; the
// timeline analysis, the Chrome export and the Gantt view all read its
// index instead of regrouping the trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "support/label.h"

namespace mb::trace {

enum class EventKind : std::uint8_t {
  kCompute,
  kSend,
  kRecv,
  kCollective,
  kWait,
  kFault,  ///< injected fault marker (crash, slowdown, link event)
};

std::string_view event_kind_name(EventKind k);

/// Inverse of event_kind_name(); throws support::Error on unknown names.
EventKind parse_event_kind(std::string_view name);

/// One interval of one rank: a 40-byte value. Every record of a label
/// shares its interned text, so sink rings and traces hold no strings.
struct Record {
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t bytes = 0;  ///< payload for communication events
  support::Label label;     ///< e.g. "alltoallv", "compute", "halo"
  std::uint32_t rank = 0;
  EventKind kind = EventKind::kCompute;

  Record() = default;
  /// The field order of traces written by hand: {rank, t0, t1, kind,
  /// label, bytes}.
  Record(std::uint32_t rank, double t0, double t1, EventKind kind,
         support::Label label, std::uint64_t bytes)
      : t0(t0), t1(t1), bytes(bytes), label(label), rank(rank), kind(kind) {}

  double duration() const { return t1 - t0; }
};
static_assert(sizeof(Record) == 40 && std::is_trivially_copyable_v<Record>,
              "traces and sink rings hold millions of records");

/// Why [t0, t1] cannot be a record's interval, or an empty view when it
/// can. Both ends must be finite and non-negative, t1 must not precede
/// t0, and each end's microsecond count must fit std::llround's result,
/// which the Paraver writer rounds with (below 2^63 us, ~292k years).
std::string_view interval_error(double t0, double t1);

class Trace {
 public:
  /// Appends a record; throws support::Error when interval_error()
  /// rejects its times.
  void add(Record r);
  /// Sizes the record vector for `records` in all, so adds up to that
  /// count never reallocate.
  void reserve(std::size_t records) { records_.reserve(records); }

  const std::vector<Record>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// All records with the given kind and label (label empty = any).
  std::vector<Record> filter(EventKind kind,
                             std::string_view label = {}) const;

  /// Highest rank id seen + 1.
  std::uint32_t ranks() const;

  /// End of the last event (the run's makespan).
  double end_time() const;

  /// Writes a Paraver-like state record list:
  ///   <rank>:<kind>:<label>:<t0_us>:<t1_us>:<bytes>
  /// Times are rounded to integer microseconds — the format's resolution —
  /// so that parse_paraver() round-trips: a re-exported parse is
  /// byte-identical to the original dump. Provenance, when set, is
  /// emitted as a `#provenance` comment line that parse_paraver()
  /// restores (older dumps without the line stay fixpoints too).
  void write_paraver(std::ostream& os) const;

  /// Stamps the producing tool version and effective seed; exporters
  /// (Paraver, Chrome, mb-trace) carry it so an artifact always names
  /// the run that produced it.
  void set_provenance(std::string tool_version, std::uint64_t seed);
  bool has_provenance() const { return has_provenance_; }
  const std::string& tool_version() const { return tool_version_; }
  std::uint64_t seed() const { return seed_; }

 private:
  std::vector<Record> records_;
  bool has_provenance_ = false;
  std::string tool_version_;
  std::uint64_t seed_ = 0;
};

/// Rank ids the trace readers accept are below this bound, so a hostile
/// file cannot make per-rank tables wrap or exhaust memory.
inline constexpr std::uint32_t kMaxTraceRanks = 1u << 24;

/// Labels one trace file may name. The readers intern each label they
/// read, and interned labels live until the process exits, so one file
/// adds at most kMaxTraceLabels distinct labels of at most
/// kMaxTraceLabelBytes bytes each to the process (64 MiB).
inline constexpr std::size_t kMaxTraceLabels = 1u << 16;
inline constexpr std::size_t kMaxTraceLabelBytes = 1u << 10;

/// Interns the labels of one input file under the per-file bounds. Both
/// trace readers use it, so both enforce the same limits; a label seen
/// before in the file costs one hash lookup and no lock.
class FileLabels {
 public:
  /// Errors read "<reader>: <unit> <index>: ...", for example
  /// "parse_paraver: line 7: ...". Both names must outlive the object.
  FileLabels(std::string_view reader, std::string_view unit)
      : reader_(reader), unit_(unit) {}

  /// Throws support::Error at `index` when a label of `bytes` bytes is
  /// longer than kMaxTraceLabelBytes; a reader calls it before it
  /// allocates the text.
  void check_length(std::size_t bytes, std::uint64_t index) const;

  /// `text` as a label. Throws support::Error at `index` when the text
  /// is too long or would be the file's (kMaxTraceLabels + 1)-th
  /// distinct label.
  support::Label intern(std::string_view text, std::uint64_t index);

 private:
  [[noreturn]] void fail(std::uint64_t index, const std::string& why) const;

  std::string_view reader_;
  std::string_view unit_;
  /// Keyed by the interned text, which never moves.
  std::unordered_map<std::string_view, support::Label> seen_;
};

/// Parses a dump produced by Trace::write_paraver(). Lines starting with
/// '#' and blank lines are ignored. Labels may themselves contain ':'
/// (the rank/kind prefix and the three numeric suffix fields anchor the
/// split). Throws support::Error naming the line on a malformed record,
/// a numeric field that overflows 64 bits, a rank of kMaxTraceRanks or
/// more, a time interval_error() rejects, or a label beyond the
/// FileLabels bounds. A seekable stream is read twice: a first pass
/// counts its record lines, so the trace is sized once.
Trace parse_paraver(std::istream& is);
Trace parse_paraver(std::string_view text);

/// Per-instance analysis of one collective operation across ranks:
/// an *instance* is the i-th record with that exact label on each rank;
/// its duration is the slowest rank's interval (collectives complete
/// together).
struct CollectiveInstance {
  std::size_t index = 0;
  double start = 0.0;
  double duration = 0.0;  ///< max over ranks
  bool delayed = false;
  std::uint32_t slow_ranks = 0;  ///< ranks whose own interval was delayed
  /// The instance's records: indices into Trace::records(), ascending
  /// rank order.
  std::vector<std::size_t> members;
};

struct CollectiveReport {
  std::vector<CollectiveInstance> instances;
  double median_duration = 0.0;
  std::size_t delayed_count = 0;
  /// True when some delayed instances slow only part of the ranks — the
  /// paper observes both whole-run delays and partial ones.
  bool has_partial_delays = false;
};

/// The Fig. 4 instance index: groups every collective record once, by
/// exact label (the empty label is a label too) and by occurrence order
/// per rank, and flags instances whose duration exceeds `delay_factor` x
/// the label's median. One report per label, labels ascending. Throws
/// support::Error unless delay_factor > 1.
std::map<std::string, CollectiveReport, std::less<>> classify_collectives(
    const Trace& trace, double delay_factor = 2.0);

/// classify_collectives()'s report for one label (empty when the trace
/// has no collective with that label).
CollectiveReport analyze_collectives(const Trace& trace,
                                     std::string_view label,
                                     double delay_factor = 2.0);

}  // namespace mb::trace
