// Checks the self-time arithmetic on hand-built span trees. Exits non-zero
// on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using blocbench::Span;
  using blocbench::Trace;

  // round [0,100): two disjoint children [10,30) and [50,60); the first has
  // a grandchild [15,20).
  {
    Trace t(true);
    const auto root = t.Add("round", 0, 100, -1, 7);
    const auto a = t.Add("bloc.fused_map", 10, 30, root, 7);
    t.Add("bloc.score", 50, 60, root, 7);
    t.Add("bloc.anchor_map", 15, 20, a, 7);
    const std::vector<std::int64_t> self = blocbench::SelfTimes(t.spans());
    Expect(self[0] == 70, "root self = 100 - (20 + 10)");
    Expect(self[1] == 15, "child self = 20 - 5");
    Expect(self[2] == 10, "leaf self = duration");
    Expect(self[3] == 5, "grandchild self = duration");
  }
  // Overlapping children count once; a child sticking out of its parent is
  // clipped to the parent's interval.
  {
    Trace t(true);
    const auto root = t.Add("round", 0, 100, -1, 1);
    t.Add("net.send", 10, 40, root, 1);
    t.Add("serve.in_service", 30, 120, root, 1);
    const std::vector<std::int64_t> self = blocbench::SelfTimes(t.spans());
    Expect(self[0] == 10, "root self = 100 - |[10,100)|");
  }
  // Nested children inside one another, and touching intervals.
  {
    Trace t(true);
    const auto root = t.Add("round", 0, 50, -1, 2);
    t.Add("a.x", 0, 10, root, 2);
    t.Add("a.y", 10, 20, root, 2);
    t.Add("a.z", 12, 18, root, 2);
    const std::vector<std::int64_t> self = blocbench::SelfTimes(t.spans());
    Expect(self[0] == 30, "root self = 50 - 20");
  }
  // A disabled trace records nothing.
  {
    Trace t(false);
    Expect(t.Add("round", 0, 1, -1, 0) == -1, "disabled Add returns -1");
    Expect(t.spans().empty(), "disabled trace stays empty");
  }
  Expect(blocbench::LayerOf("bloc.fused_map") == "bloc", "layer prefix");
  Expect(blocbench::LayerOf("round") == "round", "layer of a bare name");
  Expect(blocbench::Percentile({1, 2, 3, 4, 5}, 50) == 3.0, "median");
  Expect(blocbench::Percentile({0, 10}, 90) == 9.0, "interpolated p90");
  Expect(std::string_view(blocbench::SupportedPercentile(1000)) == "p99",
         "1000 samples support p99");
  Expect(std::string_view(blocbench::SupportedPercentile(999)) == "p90",
         "999 samples support p90");
  if (failures == 0) std::printf("trace_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
