// Figure 4 reproduction: per-query Top-1 refinement time (hot cache) for
// stack-refine vs SLE vs Partition, compared with plain SLCA evaluation of
// the original query (stack-slca / scan-slca). Sample queries cover every
// refinement operation (Tables III-VI) plus four mixed-refinement queries
// (Q_X1..Q_X4).
//
// Expected shape (paper Section VIII-A): Partition <= SLE <= stack-refine
// on most queries; Partition within a small factor of scan-slca; queries
// whose keywords are missing make the plain SLCA baselines trivially fast.
#include <cinttypes>

#include "bench/bench_util.h"
#include "slca/slca.h"
#include "workload/corruption.h"

namespace xrefine::bench {
namespace {

struct SampleQuery {
  std::string label;
  workload::CorruptedQuery cq;
};

std::vector<SampleQuery> BuildSampleQueries(const Env& env) {
  std::vector<SampleQuery> samples;
  struct KindSpec {
    workload::CorruptionKind kind;
    const char* prefix;
    size_t count;
  };
  const KindSpec kSpecs[] = {
      {workload::CorruptionKind::kOverRestrict, "QD", 3},   // Table III
      {workload::CorruptionKind::kSpuriousSplit, "QM", 3},  // Table IV
      {workload::CorruptionKind::kSpuriousMerge, "QS", 3},  // Table V
      {workload::CorruptionKind::kTypo, "QT", 2},           // Table VI
      {workload::CorruptionKind::kSynonymMismatch, "QT", 1},
  };
  workload::Corruptor corruptor(&env.corpus->index(), &env.lexicon);
  workload::QueryGeneratorOptions qopt;
  qopt.target_tag = "inproceedings";
  qopt.seed = 2024;
  workload::QueryGenerator qgen(env.doc.get(), env.corpus.get(), &corruptor,
                                qopt);
  for (const auto& spec : kSpecs) {
    size_t made = 0;
    for (int attempt = 0; attempt < 50 && made < spec.count; ++attempt) {
      auto cq = qgen.Generate(spec.kind);
      if (!cq.has_value()) break;
      ++made;
      samples.push_back(SampleQuery{
          std::string(spec.prefix) + std::to_string(made), *cq});
    }
  }
  // Mixed refinements (Q_X1..Q_X4): corrupt twice.
  Random rng(77);
  size_t mixed = 0;
  for (int attempt = 0; attempt < 100 && mixed < 4; ++attempt) {
    core::Query intended = qgen.SampleIntended();
    if (intended.size() < 3) continue;
    workload::CorruptedQuery first;
    if (!corruptor.CorruptAny(intended, &rng, &first)) continue;
    workload::CorruptedQuery second;
    if (!corruptor.CorruptAny(first.corrupted, &rng, &second)) continue;
    second.intended = intended;
    second.description = first.description + "; " + second.description;
    ++mixed;
    samples.push_back(
        SampleQuery{"QX" + std::to_string(mixed), second});
  }
  return samples;
}

double TimeSlcaBaseline(const Env& env, const core::Query& q,
                        slca::SlcaAlgorithm algorithm) {
  return TimeMs([&] {
    auto results = slca::ComputeSlcaForQuery(q, *env.corpus,
                                             env.corpus->types(), algorithm);
    (void)results;
  });
}

void Main() {
  PrintHeader("Figure 4: Top-1 refinement time per sample query (ms)");
  Env env = MakeDblpEnv(1500);
  std::printf("corpus: %zu nodes, %zu keywords\n", env.doc->NodeCount(),
              env.corpus->index().keyword_count());

  auto samples = BuildSampleQueries(env);

  std::printf("%-5s %-34s %10s %10s %12s %10s %10s  %s\n", "id", "query",
              "stack-slca", "scan-slca", "stack-refine", "sle", "partition",
              "top-1 RQ (results)");
  for (const auto& sample : samples) {
    const core::Query& q = sample.cq.corrupted;

    double stack_slca =
        TimeSlcaBaseline(env, q, slca::SlcaAlgorithm::kStack);
    double scan_slca =
        TimeSlcaBaseline(env, q, slca::SlcaAlgorithm::kScanEager);

    double times[3];
    std::string top_rq = "-";
    size_t top_results = 0;
    const core::RefineAlgorithm algorithms[] = {
        core::RefineAlgorithm::kStackRefine,
        core::RefineAlgorithm::kShortListEager,
        core::RefineAlgorithm::kPartition};
    for (int a = 0; a < 3; ++a) {
      core::XRefineOptions options;
      options.algorithm = algorithms[a];
      options.top_k = 1;
      env.Run(q, options);  // warm the cache
      core::RefineOutcome outcome;
      times[a] = TimeMs([&] { outcome = env.Run(q, options); });
      if (algorithms[a] == core::RefineAlgorithm::kPartition &&
          !outcome.refined.empty()) {
        top_rq = core::QueryToString(outcome.refined[0].rq.keywords);
        top_results = outcome.refined[0].results.size();
      }
    }
    std::printf("%-5s %-34s %10.3f %10.3f %12.3f %10.3f %10.3f  %s (%zu)\n",
                sample.label.c_str(),
                core::QueryToString(q).substr(0, 34).c_str(), stack_slca,
                scan_slca, times[0], times[1], times[2], top_rq.c_str(),
                top_results);
  }

  // Aggregate shape check the paper reports.
  std::printf(
      "\nnote: expect partition <= sle <= stack-refine on most rows, and\n"
      "partition within a small factor of scan-slca.\n");
}

}  // namespace
}  // namespace xrefine::bench

int main() {
  xrefine::bench::Main();
  return 0;
}
