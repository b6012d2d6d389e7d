#include "fold.hpp"

#include <stdexcept>

namespace omn::bench {

SpanTotals Fold::span(const std::string& family) const {
  const auto it = spans.find(family);
  return it == spans.end() ? SpanTotals{} : it->second;
}

std::string span_family(const std::string& name) {
  return name.substr(0, name.find(' '));
}

Fold fold_spans(const std::vector<util::ThreadTrace>& lanes) {
  struct Open {
    const std::string* name;
    std::uint64_t begin_us;
    std::uint64_t children_us;
  };
  Fold fold;
  for (const util::ThreadTrace& lane : lanes) {
    std::vector<Open> stack;
    for (const util::TraceEvent& event : lane.events) {
      switch (event.kind) {
        case util::TraceEvent::Kind::kBegin:
          stack.push_back({&event.name, event.micros, 0});
          break;
        case util::TraceEvent::Kind::kEnd: {
          if (stack.empty() || *stack.back().name != event.name) {
            throw std::runtime_error("span fold: unmatched end of '" +
                                     event.name + "' on lane " +
                                     std::to_string(lane.tid));
          }
          const Open open = stack.back();
          stack.pop_back();
          const std::uint64_t inclusive = event.micros - open.begin_us;
          SpanTotals& totals = fold.spans[span_family(event.name)];
          ++totals.count;
          totals.inclusive_ms += 1e-3 * static_cast<double>(inclusive);
          totals.self_ms +=
              1e-3 * static_cast<double>(inclusive - open.children_us);
          if (!stack.empty()) stack.back().children_us += inclusive;
          break;
        }
        case util::TraceEvent::Kind::kInstant:
          ++fold.instants[span_family(event.name)];
          break;
        case util::TraceEvent::Kind::kCounter:
          break;
      }
    }
    if (!stack.empty()) {
      throw std::runtime_error("span fold: '" + *stack.back().name +
                               "' still open at the end of lane " +
                               std::to_string(lane.tid));
    }
  }
  return fold;
}

}  // namespace omn::bench
