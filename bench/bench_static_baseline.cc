// Baseline comparison reproducing the paper's core argument against the
// "clean the query first, search later" pipeline (related work, keyword
// query cleaning): a static refiner picks candidate rewrites by
// dissimilarity alone, without consulting the data, so its suggestions may
// have no meaningful result — whereas every XRefine output is verified
// (Lemma 2). This bench quantifies how often the static top-k suggestions
// come back empty, and what the verification costs.
#include "bench/bench_util.h"
#include "core/static_refiner.h"
#include "slca/slca.h"

namespace xrefine::bench {
namespace {

void Main() {
  PrintHeader("Static-cleaning baseline vs XRefine (verified refinement)");
  Env env = MakeDblpEnv(1200);
  auto pool = MakePool(env, 80, "inproceedings", 321);
  std::printf("corpus: %zu nodes; %zu corrupted queries\n",
              env.doc->NodeCount(), pool.size());

  core::RuleGenerator generator(env.corpus.get(), &env.lexicon);
  // The cleaner gets a perfect dictionary: the corpus vocabulary itself.
  auto vocab_list = env.corpus->index().Vocabulary();
  core::KeywordSet dictionary(vocab_list.begin(), vocab_list.end());

  size_t static_top1_empty = 0;
  size_t static_any_empty = 0;
  size_t static_considered = 0;
  size_t xrefine_nonempty = 0;
  size_t xrefine_considered = 0;
  double static_ms = 0;
  double xrefine_ms = 0;

  core::XRefineOptions options;
  options.top_k = 3;

  for (const auto& cq : pool) {
    const core::Query& q = cq.corrupted;
    core::RuleSet rules = generator.GenerateFor(q);

    Timer t;
    auto static_rqs = core::StaticRefine(q, rules, dictionary, 3);
    static_ms += t.ElapsedMillis();
    if (!static_rqs.empty()) {
      ++static_considered;
      // Verify each static suggestion against the data (the work the
      // static pipeline skips).
      auto input = env.Run(q, options);  // for search_for; cheap reuse below
      core::XRefine engine(env.corpus.get(), &env.lexicon, options);
      auto prepared = engine.Prepare(q);
      bool top1_empty = false;
      bool any_empty = false;
      for (size_t i = 0; i < static_rqs.size(); ++i) {
        auto results = slca::ComputeSlcaForQuery(
                           static_rqs[i].keywords, *env.corpus,
                           env.corpus->types(),
                           slca::SlcaAlgorithm::kScanEager)
                           .value();
        results = slca::FilterMeaningful(std::move(results),
                                         prepared.search_for,
                                         env.corpus->types());
        if (results.empty()) {
          any_empty = true;
          if (i == 0) top1_empty = true;
        }
      }
      if (top1_empty) ++static_top1_empty;
      if (any_empty) ++static_any_empty;
    }

    t.Reset();
    auto outcome = env.Run(q, options);
    xrefine_ms += t.ElapsedMillis();
    if (!outcome.refined.empty()) {
      ++xrefine_considered;
      bool all_nonempty = true;
      for (const auto& r : outcome.refined) {
        if (r.results.empty()) all_nonempty = false;
      }
      if (all_nonempty) ++xrefine_nonempty;
    }
  }

  std::printf("\n%-46s %10s\n", "metric", "value");
  std::printf("%-46s %9.1f%%\n",
              "static top-1 suggestions with ZERO results",
              100.0 * static_cast<double>(static_top1_empty) /
                  static_cast<double>(static_considered));
  std::printf("%-46s %9.1f%%\n",
              "static top-3 lists containing an empty one",
              100.0 * static_cast<double>(static_any_empty) /
                  static_cast<double>(static_considered));
  std::printf("%-46s %9.1f%%\n",
              "xrefine outputs fully backed by results",
              100.0 * static_cast<double>(xrefine_nonempty) /
                  static_cast<double>(xrefine_considered));
  std::printf("%-46s %9.3f\n", "static refine ms/query (no verification)",
              static_ms / static_cast<double>(pool.size()));
  std::printf("%-46s %9.3f\n", "xrefine ms/query (verified, with results)",
              xrefine_ms / static_cast<double>(pool.size()));
  std::printf(
      "\nnote: reproduces the paper's critique of static cleaning — its\n"
      "candidates are not guaranteed to have (meaningful) matches, while\n"
      "every XRefine refinement ships with its verified result set.\n");
}

}  // namespace
}  // namespace xrefine::bench

int main() {
  xrefine::bench::Main();
  return 0;
}
