// The unified bench-report schema (compsyn-bench-v2, DESIGN.md §12.4) and
// its normalizer. A v2 report is the classic RunReport document with a
// leading "schema" tag:
//
//   { "schema": "compsyn-bench-v2", "name": ..., "meta": ..., "wall_seconds":
//     ..., "spans": [...], "counters": {...}, "distributions": [...],
//     ["histograms": [...], "phases": [...], "hot_cones": [...],
//      "peak_rss_bytes": N,]  "tables": {...}, ...sections }
//
// The bracketed members are the extended-telemetry sections and appear only
// when the producing run passed a telemetry flag. An untagged report (what
// --report writes) is accepted everywhere a v2 report is and is normalized
// by prepending the tag; unknown schema strings are rejected.
//
// This is a pure function layer: always compiled, never gated by
// COMPSYN_TRACE.
#pragma once

#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace compsyn {

inline constexpr std::string_view kBenchSchemaV2 = "compsyn-bench-v2";

/// Normalizes a parsed bench report to v2: tags an untagged report, passes a
/// v2 document through untouched, rejects anything else (wrong schema string,
/// non-object, missing the name/spans/counters core). Returns false and
/// fills *error on rejection.
bool bench_normalize_v2(Json doc, Json* out, std::string* error = nullptr);

}  // namespace compsyn
