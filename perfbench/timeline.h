// Splits one traced operation's wall time across the program's layers.
//
// Every span is tagged with the layer whose work it brackets (its name's
// module prefix; the Monte Carlo / factoring spans belong to `core`).
// Envelope spans -- the benchmark's own roots and the entry-point spans
// that only bracket a request (api.query, api.rank, ...) -- carry no tag:
// their self time is time no layer owns. A span's self time is its
// interval minus the union of its children's intervals; spans that run
// in parallel count as the union of their intervals, so a layer's time
// never exceeds the wall time it overlaps.

#ifndef PERFBENCH_TIMELINE_H_
#define PERFBENCH_TIMELINE_H_

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Sub-layer tag of a span ("serve.canonicalize", "core.mc", "shard",
/// ...), or "" for an envelope span.
std::string TagOf(const biorank::obs::Span& span);

struct Attribution {
  std::map<std::string, double> tag_s;  ///< union of self time per tag
  double attributed_s = 0.0;            ///< union over every tag
};

/// Attributes the spans of one trace (as obs::Trace::Spans() returns
/// them: closed, parents before children).
Attribution Attribute(const std::vector<biorank::obs::Span>& spans);

/// Running sums of Attribution over many operations.
struct AttributionTotals {
  std::map<std::string, double> tag_s;
  double attributed_s = 0.0;
  double wall_s = 0.0;  ///< the operations' wall time, measured by the caller

  void Add(const Attribution& one, double wall_s);
  double Tag(const std::string& tag) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMELINE_H_
