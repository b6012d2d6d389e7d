// Unit test of the benchmark's span fold on synthetic lanes: self =
// inclusive - same-lane children, nesting, several lanes, lazy names,
// and rejection of spans that do not nest.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "fold.hpp"

namespace {

using omn::util::ThreadTrace;
using omn::util::TraceEvent;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

TraceEvent begin(const std::string& name, std::uint64_t us) {
  return {TraceEvent::Kind::kBegin, name, 0, us, 0.0};
}
TraceEvent end(const std::string& name, std::uint64_t us) {
  return {TraceEvent::Kind::kEnd, name, 0, us, 0.0};
}
TraceEvent instant(const std::string& name, std::uint64_t us) {
  return {TraceEvent::Kind::kInstant, name, 0, us, 0.0};
}

void nested_spans_subtract_direct_children_only() {
  // op [0, 10000): lp.solve [1000, 8000) holds phase1 [1000, 3000) and
  // phase2 [3000, 7500).
  ThreadTrace lane{0,
                   {begin("bench.op", 0), begin("lp.solve", 1000),
                    begin("simplex.phase1", 1000), end("simplex.phase1", 3000),
                    begin("simplex.phase2", 3000), end("simplex.phase2", 7500),
                    end("lp.solve", 8000), end("bench.op", 10000)}};
  const omn::bench::Fold fold = omn::bench::fold_spans({lane});
  check(near(fold.span("bench.op").inclusive_ms, 10.0), "op inclusive");
  check(near(fold.span("bench.op").self_ms, 3.0), "op self = 10 - 7");
  check(near(fold.span("lp.solve").inclusive_ms, 7.0), "solve inclusive");
  check(near(fold.span("lp.solve").self_ms, 0.5), "solve self = 7 - 2 - 4.5");
  check(near(fold.span("simplex.phase1").self_ms, 2.0), "phase1 leaf self");
  check(near(fold.span("simplex.phase2").self_ms, 4.5), "phase2 leaf self");
  check(fold.span("lp.solve").count == 1, "one solve");
  check(fold.span("absent").count == 0, "absent family is zero");
}

void lanes_fold_independently() {
  // The caller's rounding span waits while lane 1 runs a chunk: the chunk
  // is on another lane, so it is not subtracted from the caller.
  ThreadTrace caller{0,
                     {begin("designer.rounding", 0),
                      begin("ctx.chunk 0..1", 0), end("ctx.chunk 0..1", 400),
                      end("designer.rounding", 1000)}};
  ThreadTrace worker{1,
                     {begin("ctx.chunk 1..2", 100),
                      begin("designer.attempt 1", 100),
                      end("designer.attempt 1", 900),
                      end("ctx.chunk 1..2", 950)}};
  const omn::bench::Fold fold = omn::bench::fold_spans({caller, worker});
  check(near(fold.span("designer.rounding").self_ms, 0.6),
        "rounding self keeps the cross-lane wait");
  check(fold.span("ctx.chunk").count == 2, "chunks of both lanes fold");
  check(near(fold.span("ctx.chunk").inclusive_ms, 0.4 + 0.85),
        "chunk inclusive sums lanes");
  check(near(fold.span("ctx.chunk").self_ms, 0.4 + 0.05),
        "worker chunk self excludes its attempt");
  check(near(fold.span("designer.attempt").self_ms, 0.8), "attempt self");
}

void lazy_names_fold_into_their_family() {
  ThreadTrace lane{3,
                   {begin("serve.redesign edge-fail", 0),
                    end("serve.redesign edge-fail", 2000),
                    begin("serve.redesign node-add", 2000),
                    instant("cache.miss", 2100),
                    end("serve.redesign node-add", 5000),
                    instant("cache.miss", 5100)}};
  const omn::bench::Fold fold = omn::bench::fold_spans({lane});
  check(fold.span("serve.redesign").count == 2, "two redesigns");
  check(near(fold.span("serve.redesign").self_ms, 5.0), "redesign self");
  check(fold.instants.at("cache.miss") == 2, "instants counted");
  check(omn::bench::span_family("designer.attempt 7") == "designer.attempt",
        "family strips the dynamic suffix");
  check(omn::bench::span_family("lp.solve") == "lp.solve",
        "static name is its own family");
}

void spans_that_do_not_nest_are_rejected() {
  bool threw = false;
  try {
    omn::bench::fold_spans(
        {ThreadTrace{0, {begin("a", 0), begin("b", 1), end("a", 2)}}});
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "crossed spans throw");
  threw = false;
  try {
    omn::bench::fold_spans({ThreadTrace{0, {begin("a", 0)}}});
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "unclosed span throws");
}

}  // namespace

int main() {
  nested_spans_subtract_direct_children_only();
  lanes_fold_independently();
  lazy_names_fold_into_their_family();
  spans_that_do_not_nest_are_rejected();
  if (g_failures != 0) return 1;
  std::printf("test_fold: all checks passed\n");
  return 0;
}
