#include "trace/gantt.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "support/check.h"

namespace mb::trace {

std::string render_gantt(const Trace& trace, const GanttOptions& options) {
  support::check(options.width >= 10, "render_gantt",
                 "need at least 10 columns");
  if (trace.records().empty()) return "(empty trace)\n";

  const double t0 = options.t0;
  const double t1 = options.t1 > 0.0 ? options.t1 : trace.end_time();
  support::check(t1 > t0, "render_gantt", "window must be non-empty");
  const double bucket = (t1 - t0) / static_cast<double>(options.width);

  const std::uint32_t ranks = std::min(trace.ranks(), options.max_ranks);

  // 'A' marks every record of an instance the Fig. 4 classifier calls
  // delayed, at the factor `mbctl fig4` prints above the view, so a late
  // rank whose own record is short is marked too.
  std::vector<bool> delayed(trace.size(), false);
  for (const auto& [label, report] : classify_collectives(trace, 2.0))
    for (const CollectiveInstance& inst : report.instances)
      if (inst.delayed)
        for (const std::size_t k : inst.members) delayed[k] = true;

  // Priority of glyphs when several events share a bucket.
  auto priority = [](char c) {
    switch (c) {
      case 'F': return 6;
      case 'A': return 5;
      case 'a': return 4;
      case 's': return 3;
      case 'r': return 3;
      case '#': return 2;
      default: return 0;
    }
  };

  std::vector<std::string> rows(ranks, std::string(options.width, '.'));
  std::size_t clipped = 0;  // events of shown ranks entirely outside [t0,t1]
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const Record& rec = trace.records()[k];
    if (rec.rank >= ranks) continue;
    if (rec.t1 <= t0 || rec.t0 >= t1) {
      ++clipped;
      continue;
    }
    char glyph = '.';
    switch (rec.kind) {
      case EventKind::kCompute: glyph = '#'; break;
      case EventKind::kSend: glyph = 's'; break;
      case EventKind::kRecv: glyph = 'r'; break;
      case EventKind::kWait: glyph = '.'; break;
      case EventKind::kFault: glyph = 'F'; break;
      case EventKind::kCollective: glyph = delayed[k] ? 'A' : 'a'; break;
    }
    const auto first = static_cast<std::int64_t>((rec.t0 - t0) / bucket);
    const auto last = static_cast<std::int64_t>((rec.t1 - t0) / bucket);
    for (std::int64_t b = std::max<std::int64_t>(first, 0);
         b <= last && b < static_cast<std::int64_t>(options.width); ++b) {
      auto& cell = rows[rec.rank][static_cast<std::size_t>(b)];
      if (priority(glyph) > priority(cell)) cell = glyph;
    }
  }

  std::ostringstream out;
  out << "time " << t0 << "s .. " << t1 << "s  ('#' compute, 'a' "
      << "collective, 'A' delayed collective, 's'/'r' p2p, 'F' fault)\n";
  for (std::uint32_t r = 0; r < ranks; ++r) {
    out << (r < 10 ? " " : "") << r << " |" << rows[r] << "|\n";
  }
  // Truncation is never silent: anything the view dropped is footnoted.
  if (trace.ranks() > ranks)
    out << "… " << trace.ranks() - ranks << " ranks not shown\n";
  if (clipped > 0) out << "… " << clipped << " events outside window\n";
  return out.str();
}

}  // namespace mb::trace
