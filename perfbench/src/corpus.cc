#include <iostream>

#include "workloads.h"

namespace perfbench {

const PaperQuery kPaperQueries[4] = {
    {"q0_ms", R"(
  for $r in collection("/sensors")("root")()("results")()
  let $datetime := dateTime(data($r("date")))
  where year-from-dateTime($datetime) ge 2003
    and month-from-dateTime($datetime) eq 12
    and day-from-dateTime($datetime) eq 25
  return $r)"},
    {"q0b_ms", R"(
  for $r in collection("/sensors")("root")()("results")()("date")
  let $datetime := dateTime(data($r))
  where year-from-dateTime($datetime) ge 2003
    and month-from-dateTime($datetime) eq 12
    and day-from-dateTime($datetime) eq 25
  return $r)"},
    {"q1_ms", R"(
  for $r in collection("/sensors")("root")()("results")()
  where $r("dataType") eq "TMIN"
  group by $date := $r("date")
  return count($r("station")))"},
    {"q2_ms", R"(
  avg(
    for $r_min in collection("/sensors")("root")()("results")()
    for $r_max in collection("/sensors")("root")()("results")()
    where $r_min("station") eq $r_max("station")
      and $r_min("date") eq $r_max("date")
      and $r_min("dataType") eq "TMIN"
      and $r_max("dataType") eq "TMAX"
    return $r_max("value") - $r_min("value")
  ) div 10)"},
};

jpar::SensorDataSpec SizeSpec(jpar::SensorDataSpec base,
                              uint64_t target_bytes) {
  const size_t first = jpar::GenerateSensorFile(base, 0).size();
  base.num_files =
      static_cast<int>((target_bytes + first - 1) / (first > 0 ? first : 1));
  if (base.num_files < 1) base.num_files = 1;
  return base;
}

Corpus GenerateCorpus(const jpar::SensorDataSpec& spec) {
  Corpus c;
  c.spec = spec;
  c.texts.reserve(static_cast<size_t>(c.spec.num_files));
  for (int f = 0; f < c.spec.num_files; ++f) {
    c.texts.push_back(std::make_shared<const std::string>(
        jpar::GenerateSensorFile(c.spec, f)));
    c.bytes += c.texts.back()->size();
  }
  return c;
}

jpar::Collection InMemoryCollection(const Corpus& corpus) {
  jpar::Collection coll;
  for (const auto& t : corpus.texts) {
    coll.files.push_back(jpar::JsonFile::FromText(t));
  }
  return coll;
}

std::vector<std::string> WriteCorpus(const Corpus& corpus,
                                     const std::string& dir) {
  std::vector<std::string> paths;
  for (size_t f = 0; f < corpus.texts.size(); ++f) {
    std::string name = std::to_string(f);
    name.insert(0, name.size() < 5 ? 5 - name.size() : 0, '0');
    paths.push_back(dir + "/sensors-" + name + ".json");
    WriteFileAtomic(paths.back(), *corpus.texts[f]);
  }
  return paths;
}

std::unique_ptr<jpar::Engine> ReferenceEngine(const Corpus& corpus) {
  jpar::EngineOptions opts;
  opts.exec.partitions = 1;
  opts.exec.use_threads = false;
  opts.exec.expr_mode = jpar::ExprMode::kTree;
  opts.exec.storage_mode = jpar::StorageMode::kOff;
  opts.exec.stats_mode = jpar::StatsMode::kOff;
  auto ref = std::make_unique<jpar::Engine>(opts);
  ref->catalog()->RegisterCollection("/sensors", InMemoryCollection(corpus));
  return ref;
}

std::string ReferenceAnswer(const jpar::Engine& ref, const char* query) {
  auto out = ref.Run(query);
  if (!out.ok()) Die("reference query failed: " + out.status().ToString());
  return CanonicalAnswer(out->items);
}

void Corrupt(std::string* answer) { answer->append("corrupted\n"); }

void CheckAnswer(const jpar::Status& status,
                 const std::vector<jpar::Item>* items,
                 const std::string& expected, const std::string& what,
                 Tally* tally) {
  ++tally->attempted;
  if (!status.ok()) {
    ++tally->failed;
    std::cerr << "perfbench: " << what << " failed: " << status.ToString()
              << std::endl;
    return;
  }
  if (CanonicalAnswer(*items) != expected) {
    ++tally->mismatched;
    std::cerr << "perfbench: " << what << " answer differs from the reference"
              << std::endl;
  }
}

}  // namespace perfbench
