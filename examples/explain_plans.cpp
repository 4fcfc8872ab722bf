// EXPLAIN tool: type a JSONiq query, see the naive logical plan, the
// rewrite rules that fire, the optimized plan, and the physical plan.
//
//   $ ./explain_plans '<query>'
//   $ ./explain_plans            # runs a built-in demo query
//
// Queries may reference collection("/sensors") — a small generated
// sensor dataset is pre-registered.

#include <cstdio>

#include "core/engine.h"
#include "data/sensor_generator.h"

namespace {

/// Prints every DATASCAN's field-probe prefilter (DESIGN.md §9): the
/// top-level keys it probes and the ASSIGN/SELECT run it evaluates over
/// them, where $colI reads keys[I] and later columns are the run's
/// ASSIGNs.
void PrintPrefilters(const jpar::PNode* node, int* printed) {
  if (node == nullptr) return;
  if (node->kind == jpar::PNode::Kind::kPipeline && node->input == nullptr &&
      node->scan.prefilter != nullptr) {
    const jpar::ScanPrefilter& pf = *node->scan.prefilter;
    std::printf("%s\n  probe keys:", node->scan.ToString().c_str());
    for (const std::string& key : pf.keys) std::printf(" \"%s\"", key.c_str());
    std::printf("\n");
    for (const jpar::UnaryOpDesc& op : pf.ops) {
      std::printf("  %s\n", op.ToString().c_str());
    }
    ++*printed;
  }
  PrintPrefilters(node->input.get(), printed);
  PrintPrefilters(node->left.get(), printed);
  PrintPrefilters(node->right.get(), printed);
}

}  // namespace

int main(int argc, char** argv) {
  const char* query = argc > 1 ? argv[1] : R"(
      for $r in collection("/sensors")("root")()("results")()
      where $r("dataType") eq "TMIN"
      group by $date := $r("date")
      return count($r("station")))";

  jpar::Engine engine;
  jpar::SensorDataSpec spec;
  spec.num_files = 2;
  spec.records_per_file = 4;
  engine.catalog()->RegisterCollection("/sensors",
                                       jpar::GenerateSensorCollection(spec));

  auto compiled = engine.Compile(query);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  std::printf("query:\n%s\n", query);
  std::printf("\n=== original (naive) logical plan ===\n%s",
              compiled->original_plan.c_str());
  std::printf("\n=== rules fired (%zu) ===\n",
              compiled->fired_rules.size());
  for (const std::string& rule : compiled->fired_rules) {
    std::printf("  %s\n", rule.c_str());
  }
  std::printf("\n=== optimized logical plan ===\n%s",
              compiled->optimized_plan.c_str());
  std::printf("\n=== physical plan ===\n%s",
              compiled->physical.ToString().c_str());
  std::printf("\n=== scan prefilters ===\n");
  int prefilters = 0;
  PrintPrefilters(compiled->physical.root.get(), &prefilters);
  if (prefilters == 0) std::printf("(none)\n");

  auto result = engine.Execute(*compiled);
  if (!result.ok()) {
    std::fprintf(stderr, "execution error: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("\n=== result (%llu rows) ===\n",
              static_cast<unsigned long long>(result->items.size()));
  size_t shown = 0;
  for (const jpar::Item& item : result->items) {
    if (shown++ >= 10) {
      std::printf("  ...\n");
      break;
    }
    std::printf("  %s\n", item.ToJsonString().c_str());
  }
  return 0;
}
