// Micro-benchmarks (google-benchmark) for the building blocks: XML parsing,
// index construction, B+-tree operations, edit distance, Porter stemming,
// the SLCA algorithms, the getOptimalRQ dynamic program, search-for-node
// inference, and the full refinement pipeline. After the run the metrics
// registry is written to BENCH_micro.json so the perf trajectory across PRs
// is machine-readable.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>

#include "common/metrics.h"
#include "core/optimal_rq.h"
#include "core/rule_generator.h"
#include "core/xrefine.h"
#include "index/index_builder.h"
#include "slca/slca.h"
#include "storage/kvstore.h"
#include "text/edit_distance.h"
#include "text/porter_stemmer.h"
#include "workload/dblp_generator.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xrefine {
namespace {

const xml::Document& SharedDoc() {
  static const xml::Document* doc = [] {
    workload::DblpOptions options;
    options.num_authors = 400;
    return new xml::Document(workload::GenerateDblp(options));
  }();
  return *doc;
}

const index::IndexedCorpus& SharedCorpus() {
  static const index::IndexedCorpus* corpus =
      index::BuildIndex(SharedDoc()).release();
  return *corpus;
}

void BM_XmlParse(benchmark::State& state) {
  static const std::string* xml_text =
      new std::string(xml::WriteXml(SharedDoc()));
  for (auto _ : state) {
    auto doc = xml::ParseXml(*xml_text);
    benchmark::DoNotOptimize(doc.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml_text->size()));
}
BENCHMARK(BM_XmlParse);

void BM_IndexBuild(benchmark::State& state) {
  const auto& doc = SharedDoc();
  for (auto _ : state) {
    auto corpus = index::BuildIndex(doc);
    benchmark::DoNotOptimize(corpus->index().keyword_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.NodeCount()));
}
BENCHMARK(BM_IndexBuild);

void BM_BTreePut(benchmark::State& state) {
  auto store = storage::KVStore::Open("");
  int i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(i++);
    benchmark::DoNotOptimize(store.value()->Put(key, "value").ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BTreePut);

void BM_BTreeGet(benchmark::State& state) {
  auto store = storage::KVStore::Open("");
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    // A failed setup Put would silently turn this into a bench of misses.
    if (!store.value()->Put("key" + std::to_string(i), "value").ok()) {
      state.SkipWithError("setup Put failed");
      return;
    }
  }
  int i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(i++ % kN);
    auto v = store.value()->Get(key);
    benchmark::DoNotOptimize(v.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BTreeGet);

void BM_EditDistanceBanded(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::EditDistanceAtMost("optimization", "optimisation", 2));
  }
}
BENCHMARK(BM_EditDistanceBanded);

void BM_PorterStem(benchmark::State& state) {
  const char* words[] = {"relational", "matching", "databases",
                         "optimization", "queries"};
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::PorterStem(words[i++ % 5]));
  }
}
BENCHMARK(BM_PorterStem);

void BM_Slca(benchmark::State& state) {
  const auto& corpus = SharedCorpus();
  auto algorithm = static_cast<slca::SlcaAlgorithm>(state.range(0));
  std::vector<std::string> q = {"database", "query", "system"};
  for (auto _ : state) {
    auto results =
        slca::ComputeSlcaForQuery(q, corpus, corpus.types(), algorithm);
    benchmark::DoNotOptimize(results.value().size());
  }
}
BENCHMARK(BM_Slca)
    ->Arg(static_cast<int>(slca::SlcaAlgorithm::kStack))
    ->Arg(static_cast<int>(slca::SlcaAlgorithm::kScanEager))
    ->Arg(static_cast<int>(slca::SlcaAlgorithm::kIndexedLookup));

void BM_GetOptimalRq(benchmark::State& state) {
  const auto& corpus = SharedCorpus();
  auto lexicon = text::Lexicon::BuiltIn();
  core::RuleGenerator generator(&corpus, &lexicon);
  core::Query q = {"databse", "query", "processing"};
  core::RuleSet rules = generator.GenerateFor(q);
  core::KeywordSet t = {"database", "query", "processing", "system"};
  for (auto _ : state) {
    auto rq = core::GetOptimalRq(q, t, rules);
    benchmark::DoNotOptimize(rq.has_value());
  }
}
BENCHMARK(BM_GetOptimalRq);

void BM_SearchForNode(benchmark::State& state) {
  const auto& corpus = SharedCorpus();
  std::vector<std::string> q = {"database", "query", "2003"};
  for (auto _ : state) {
    auto candidates =
        slca::InferSearchForNodes(q, corpus.stats(), corpus.types());
    benchmark::DoNotOptimize(candidates.size());
  }
}
BENCHMARK(BM_SearchForNode);

void BM_RuleGeneration(benchmark::State& state) {
  const auto& corpus = SharedCorpus();
  auto lexicon = text::Lexicon::BuiltIn();
  core::RuleGenerator generator(&corpus, &lexicon);
  core::Query q = {"databse", "keywrd", "serch"};
  for (auto _ : state) {
    auto rules = generator.GenerateFor(q);
    benchmark::DoNotOptimize(rules.size());
  }
}
BENCHMARK(BM_RuleGeneration);

void BM_RefineQuery(benchmark::State& state) {
  const auto& corpus = SharedCorpus();
  static const text::Lexicon* lexicon =
      new text::Lexicon(text::Lexicon::BuiltIn());
  core::XRefineOptions options;
  options.algorithm = static_cast<core::RefineAlgorithm>(state.range(0));
  core::XRefine engine(&corpus, lexicon, options);
  core::Query q = {"databse", "query", "processing"};
  for (auto _ : state) {
    auto outcome = engine.Run(q);
    benchmark::DoNotOptimize(outcome.refined.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RefineQuery)
    ->Arg(static_cast<int>(core::RefineAlgorithm::kStackRefine))
    ->Arg(static_cast<int>(core::RefineAlgorithm::kPartition))
    ->Arg(static_cast<int>(core::RefineAlgorithm::kShortListEager));

}  // namespace
}  // namespace xrefine

// BENCHMARK_MAIN() plus a metrics dump: every counter/histogram the
// benchmarks drove (pager, btree, slca, query.* stages) lands in
// BENCH_micro.json.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::ofstream out("BENCH_micro.json");
  out << xrefine::metrics::Registry::Global().DumpJson();
  std::cerr << "metrics written to BENCH_micro.json\n";
  return 0;
}
