// The document registry: the name and version of every versioned artifact.
//
// Every JSON document this toolkit writes opens with the same two marker
// fields, {"schema": <name>, "schema_version": <version>, ...}, and every
// reader checks both before it touches anything else. This header is the
// one place those pairs are declared: writers open a document with
// begin_document(), readers validate it with check_document(), and
// tools/check_docs.py parses the list below to require a section and a
// registry row with the same version in docs/schemas.md for each entry.
// The binary mb-trace carries its version in its file header instead.
#pragma once

#include <string_view>

#include "support/json.h"

namespace mb::support {

struct Schema {
  std::string_view name;
  int version = 0;
};

// One entry per line, in docs/schemas.md order (check_docs.py parses them).
inline constexpr Schema kBenchReportSchema{"mb-bench-report", 1};
inline constexpr Schema kProfileSchema{"mb-profile", 1};
inline constexpr Schema kDiagnosticsSchema{"mb-diagnostics", 1};
inline constexpr Schema kStaticAnalysisSchema{"mb-static-analysis", 1};
inline constexpr Schema kFaultPlanSchema{"mb-fault-plan", 1};
inline constexpr Schema kCacheEntrySchema{"mb-cache-entry", 1};
inline constexpr Schema kTraceSchema{"mb-trace", 1};
inline constexpr Schema kTimeSeriesSchema{"mb-timeseries", 1};
inline constexpr Schema kAnalysisSchema{"mb-analysis", 1};
inline constexpr Schema kReproSchema{"mb-repro", 1};
inline constexpr Schema kAdviceSchema{"mb-advice", 1};

/// Opens the document's top-level object and writes its two marker
/// fields; the writer adds the rest and closes the object.
void begin_document(JsonWriter& w, const Schema& schema);

/// Whether the marker fields carry `schema`'s name and version. Throws,
/// like JsonValue::at, when `doc` is not an object or a marker is missing
/// or of the wrong type.
bool has_schema(const JsonValue& doc, const Schema& schema);

/// Throws Error, prefixed with `reader`, unless `doc` is an object whose
/// marker fields carry `schema`'s name and version.
void check_document(const JsonValue& doc, const Schema& schema,
                    std::string_view reader);

}  // namespace mb::support
