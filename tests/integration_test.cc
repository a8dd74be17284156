// End-to-end integration: generate corpus -> build index -> persist to the
// B+-tree store -> reload -> refine corrupted queries -> judge the outcome.
// Exercises every subsystem together the way the examples and benches do.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/result_ranking.h"
#include "core/xrefine.h"
#include "eval/oracle_judge.h"
#include "index/index_builder.h"
#include "index/index_store.h"
#include "slca/slca.h"
#include "storage/kvstore.h"
#include "text/lexicon.h"
#include "workload/baseball_generator.h"
#include "workload/dblp_generator.h"
#include "workload/query_generator.h"

namespace xrefine {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::DblpOptions gen;
    gen.num_authors = 80;
    doc_ = workload::GenerateDblp(gen);
    corpus_ = index::BuildIndex(doc_);
    lexicon_ = text::Lexicon::BuiltIn();
  }

  xml::Document doc_;
  std::unique_ptr<index::IndexedCorpus> corpus_;
  text::Lexicon lexicon_;
};

TEST_F(IntegrationTest, PersistedCorpusAnswersIdenticallyToInMemory) {
  auto store = storage::KVStore::Open("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(index::SaveCorpus(*corpus_, store->get()).ok());
  auto loaded = index::LoadCorpus(**store);
  ASSERT_TRUE(loaded.ok());

  core::XRefineOptions options;
  core::XRefine mem_engine(corpus_.get(), &lexicon_, options);
  core::XRefine disk_engine(loaded->get(), &lexicon_, options);

  for (const core::Query& q :
       {core::Query{"databse", "query"}, core::Query{"xml", "keyword"},
        core::Query{"machinelearning"}}) {
    auto mem = mem_engine.Run(q);
    auto disk = disk_engine.Run(q);
    EXPECT_EQ(mem.needs_refinement, disk.needs_refinement);
    ASSERT_EQ(mem.refined.size(), disk.refined.size());
    for (size_t i = 0; i < mem.refined.size(); ++i) {
      EXPECT_EQ(core::QueryKey(mem.refined[i].rq.keywords),
                core::QueryKey(disk.refined[i].rq.keywords));
      EXPECT_EQ(mem.refined[i].results.size(),
                disk.refined[i].results.size());
      EXPECT_NEAR(mem.refined[i].rank, disk.refined[i].rank, 1e-9);
    }
  }
}

TEST_F(IntegrationTest, RefinedResultsMatchDirectSlcaOfTheRq) {
  core::XRefine engine(corpus_.get(), &lexicon_, {});
  auto outcome = engine.Run({"databse", "query"});
  ASSERT_FALSE(outcome.refined.empty());
  for (const auto& ranked : outcome.refined) {
    // Recompute SLCA directly for the refined keyword set and check that
    // every returned result is among the meaningful SLCAs.
    auto direct = slca::ComputeSlcaForQuery(
                      ranked.rq.keywords, *corpus_, corpus_->types(),
                      slca::SlcaAlgorithm::kScanEager)
                      .value();
    auto input = engine.Prepare({"databse", "query"});
    auto meaningful = slca::FilterMeaningful(std::move(direct),
                                             input.search_for,
                                             corpus_->types());
    std::set<std::string> allowed;
    for (const auto& r : meaningful) allowed.insert(r.dewey.ToString());
    for (const auto& r : ranked.results) {
      EXPECT_TRUE(allowed.count(r.dewey.ToString()) > 0)
          << core::QueryToString(ranked.rq.keywords) << " @ "
          << r.dewey.ToString();
    }
  }
}

TEST_F(IntegrationTest, OracleJudgesTopRefinementHighly) {
  workload::Corruptor corruptor(&corpus_->index(), &lexicon_);
  workload::QueryGeneratorOptions qg;
  qg.target_tag = "inproceedings";
  workload::QueryGenerator qgen(&doc_, corpus_.get(), &corruptor, qg);

  core::XRefineOptions options;
  options.top_k = 4;
  core::XRefine engine(corpus_.get(), &lexicon_, options);

  auto pool = qgen.GeneratePool(30);
  ASSERT_GE(pool.size(), 20u);
  int total = 0;
  int recovered = 0;
  for (const auto& cq : pool) {
    auto outcome = engine.Run(cq.corrupted);
    if (outcome.refined.empty()) continue;
    ++total;
    auto gains = eval::JudgeRanking(cq, outcome.refined);
    if (!gains.empty() && gains[0] >= 2) ++recovered;
  }
  ASSERT_GT(total, 10);
  // The top-ranked refinement should usually recover the intent.
  EXPECT_GT(static_cast<double>(recovered) / static_cast<double>(total), 0.5);
}

TEST_F(IntegrationTest, BaseballCorpusWorksEndToEnd) {
  auto doc = workload::GenerateBaseball({});
  auto corpus = index::BuildIndex(doc);
  core::XRefine engine(corpus.get(), &lexicon_, {});
  auto outcome = engine.RunText("pitchr atlanta");
  EXPECT_TRUE(outcome.needs_refinement);
  ASSERT_FALSE(outcome.refined.empty());
  bool fixed = false;
  for (const auto& ranked : outcome.refined) {
    for (const auto& k : ranked.rq.keywords) {
      if (k == "pitcher") fixed = true;
    }
  }
  EXPECT_TRUE(fixed);
}

TEST_F(IntegrationTest, LargeQueryIsHandled) {
  core::XRefine engine(corpus_.get(), &lexicon_, {});
  core::Query q = {"database", "query",  "processing", "efficient",
                   "system",   "stream", "evaluation", "optimization"};
  auto outcome = engine.Run(q);
  // No crash and candidates (if any) carry results.
  for (const auto& ranked : outcome.refined) {
    EXPECT_FALSE(ranked.results.empty());
  }
}

TEST_F(IntegrationTest, SingleKeywordQueries) {
  core::XRefine engine(corpus_.get(), &lexicon_, {});
  auto clean = engine.Run({"database"});
  EXPECT_FALSE(clean.needs_refinement);
  auto typo = engine.Run({"databsae"});
  EXPECT_TRUE(typo.needs_refinement);
  ASSERT_FALSE(typo.refined.empty());
  EXPECT_EQ(typo.refined[0].rq.keywords, (core::Query{"database"}));
}

TEST_F(IntegrationTest, AblationKnobsPreserveResults) {
  // Disabling the Partition pruning and the SLE early stop must not change
  // the answers, only the work done.
  core::Query q = {"databse", "query"};

  core::XRefineOptions base;
  base.algorithm = core::RefineAlgorithm::kPartition;
  core::XRefineOptions no_prune = base;
  no_prune.prune_partitions = false;
  auto a = core::XRefine(corpus_.get(), &lexicon_, base).Run(q);
  auto b = core::XRefine(corpus_.get(), &lexicon_, no_prune).Run(q);
  ASSERT_EQ(a.refined.size(), b.refined.size());
  for (size_t i = 0; i < a.refined.size(); ++i) {
    EXPECT_EQ(core::QueryKey(a.refined[i].rq.keywords),
              core::QueryKey(b.refined[i].rq.keywords));
  }

  core::XRefineOptions sle;
  sle.algorithm = core::RefineAlgorithm::kShortListEager;
  core::XRefineOptions sle_no_stop = sle;
  sle_no_stop.sle_early_stop = false;
  auto c = core::XRefine(corpus_.get(), &lexicon_, sle).Run(q);
  auto d = core::XRefine(corpus_.get(), &lexicon_, sle_no_stop).Run(q);
  ASSERT_EQ(c.refined.size(), d.refined.size());
  for (size_t i = 0; i < c.refined.size(); ++i) {
    EXPECT_EQ(core::QueryKey(c.refined[i].rq.keywords),
              core::QueryKey(d.refined[i].rq.keywords));
  }
}

TEST_F(IntegrationTest, RankResultsReordersByTfIdf) {
  core::XRefineOptions plain;
  core::XRefineOptions ranked = plain;
  ranked.rank_results = true;
  core::Query q = {"databse", "query"};
  auto a = core::XRefine(corpus_.get(), &lexicon_, plain).Run(q);
  auto b = core::XRefine(corpus_.get(), &lexicon_, ranked).Run(q);
  ASSERT_EQ(a.refined.size(), b.refined.size());
  for (size_t i = 0; i < a.refined.size(); ++i) {
    // Same result SET, possibly different order.
    auto key = [](const std::vector<slca::SlcaResult>& rs) {
      std::vector<std::string> v;
      for (const auto& r : rs) v.push_back(r.dewey.ToString());
      std::sort(v.begin(), v.end());
      return v;
    };
    EXPECT_EQ(key(a.refined[i].results), key(b.refined[i].results));
    // TF*IDF scores are non-increasing down the ranked list.
    const auto& keywords = b.refined[i].rq.keywords;
    for (size_t j = 0; j + 1 < b.refined[i].results.size(); ++j) {
      EXPECT_GE(
          core::ScoreResult(*corpus_, keywords, b.refined[i].results[j]),
          core::ScoreResult(*corpus_, keywords, b.refined[i].results[j + 1]));
    }
  }
}

}  // namespace
}  // namespace xrefine
