#pragma once
// Span fold: turns drained per-thread trace events into inclusive and
// self time per span family.
//
// A span's inclusive time is end - begin.  Its self time is the inclusive
// time minus the inclusive time of its direct children on the SAME thread
// lane; work a span hands to other threads (ctx.chunk on pool workers)
// is not subtracted, so a parent that waits for its workers keeps the
// wait as self time.  Lazy-named spans carry a dynamic suffix after the
// first space ("designer.attempt 3", "ctx.chunk 0..1"); they fold into
// their family, the part before the space.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "omn/util/trace.hpp"

namespace omn::bench {

struct SpanTotals {
  std::uint64_t count = 0;      ///< closed spans of this family
  double inclusive_ms = 0.0;    ///< sum of end - begin
  double self_ms = 0.0;         ///< sum of inclusive minus same-lane children
};

struct Fold {
  std::map<std::string, SpanTotals> spans;         ///< by family name
  std::map<std::string, std::uint64_t> instants;   ///< point events by family

  /// Totals of one family; all zero when it never occurred.
  SpanTotals span(const std::string& family) const;
};

/// The family a (possibly lazy-named) span or instant belongs to.
std::string span_family(const std::string& name);

/// Folds every lane.  Throws std::runtime_error on an end without a
/// matching open span of the same name, or a span left open at the end of
/// its lane — a drained run whose spans do not nest is not measurable.
Fold fold_spans(const std::vector<util::ThreadTrace>& lanes);

}  // namespace omn::bench
