// Property tests for the paper's formal claims:
//   Lemma 1    subset queries inherit meaningful SLCAs from supersets
//   Lemma 2    getOptimalRQ returns an RQ within T with minimal dSim
//              (checked against an exhaustive, beam-free enumeration)
//   Formula 1  search-for confidence is monotone in the evidence
#include <algorithm>
#include <limits>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/optimal_rq.h"
#include "slca/search_for_node.h"
#include "slca/slca.h"
#include "tests/test_helpers.h"
#include "text/tokenizer.h"
#include "workload/dblp_generator.h"

namespace xrefine {
namespace {

// Exhaustive reference for getOptimalRQ: recursively tries option 1 (keep),
// option 2 (delete), and every applicable rule at each position — exactly
// Formula 11 without the beam. Returns the minimum dissimilarity over
// non-empty refined queries, or +inf.
double ExhaustiveMinDsim(const core::Query& q, size_t i,
                         const core::KeywordSet& t,
                         const core::RuleSet& rules, double acc,
                         bool any_kept) {
  if (i == q.size()) {
    return any_kept ? acc : std::numeric_limits<double>::infinity();
  }
  double best = std::numeric_limits<double>::infinity();
  const std::string& ki = q[i];
  if (t.count(ki) > 0) {
    best = std::min(best,
                    ExhaustiveMinDsim(q, i + 1, t, rules, acc, true));
  }
  best = std::min(best, ExhaustiveMinDsim(q, i + 1, t, rules,
                                          acc + rules.deletion_cost(),
                                          any_kept));
  for (const auto& rule : rules.rules()) {
    size_t len = rule.lhs.size();
    if (i + len > q.size()) continue;
    bool match = true;
    for (size_t j = 0; j < len; ++j) {
      if (q[i + j] != rule.lhs[j]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    bool rhs_ok = true;
    for (const auto& w : rule.rhs) {
      if (t.count(w) == 0) {
        rhs_ok = false;
        break;
      }
    }
    if (!rhs_ok) continue;
    best = std::min(best, ExhaustiveMinDsim(q, i + len, t, rules,
                                            acc + rule.ds, true));
  }
  return best;
}

class OptimalRqPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimalRqPropertyTest, DpMatchesExhaustiveEnumeration) {
  Random rng(GetParam());
  const std::vector<std::string> words = {"a", "b", "c", "d", "e",
                                          "f", "g", "h"};
  for (int round = 0; round < 200; ++round) {
    // Random query of length 1..5 over the small alphabet.
    core::Query q;
    size_t qlen = static_cast<size_t>(rng.Uniform(1, 5));
    for (size_t i = 0; i < qlen; ++i) {
      q.push_back(words[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(words.size()) - 1))]);
    }
    // Random witnessed set.
    core::KeywordSet t;
    for (const auto& w : words) {
      if (rng.OneIn(0.5)) t.insert(w);
    }
    // Random rule set: up to 4 rules with random contiguous LHS from q.
    core::RuleSet rules;
    rules.set_deletion_cost(2.0);
    size_t n_rules = static_cast<size_t>(rng.Uniform(0, 4));
    for (size_t r = 0; r < n_rules; ++r) {
      size_t start = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(q.size()) - 1));
      size_t len = static_cast<size_t>(rng.Uniform(
          1, std::min<int64_t>(2, static_cast<int64_t>(q.size() - start))));
      std::vector<std::string> lhs(q.begin() + static_cast<ptrdiff_t>(start),
                                   q.begin() +
                                       static_cast<ptrdiff_t>(start + len));
      std::vector<std::string> rhs;
      size_t rhs_len = static_cast<size_t>(rng.Uniform(1, 2));
      for (size_t j = 0; j < rhs_len; ++j) {
        rhs.push_back(words[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(words.size()) - 1))]);
      }
      double ds = static_cast<double>(rng.Uniform(1, 2));
      rules.Add(core::RefinementRule{std::move(lhs), std::move(rhs),
                                     core::RefineOp::kSubstitution, ds});
    }

    double expected = ExhaustiveMinDsim(q, 0, t, rules, 0.0, false);
    auto rq = core::GetOptimalRq(q, t, rules);
    if (std::isinf(expected)) {
      EXPECT_FALSE(rq.has_value()) << core::QueryToString(q);
    } else {
      ASSERT_TRUE(rq.has_value()) << core::QueryToString(q);
      EXPECT_DOUBLE_EQ(rq->dissimilarity, expected)
          << core::QueryToString(q);
      // Lemma 2 part 1: RQ is a subset of T.
      for (const auto& k : rq->keywords) {
        EXPECT_TRUE(t.count(k) > 0) << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalRqPropertyTest,
                         ::testing::Values(42, 43, 44, 45));

// Lemma 1: if a superset keyword set has a meaningful SLCA, so does every
// subset (with the same search-for candidates L).
class Lemma1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma1Test, SubsetsInheritMeaningfulResults) {
  workload::DblpOptions gen;
  gen.num_authors = 60;
  gen.seed = GetParam();
  auto doc = workload::GenerateDblp(gen);
  auto corpus = index::BuildIndex(doc);
  Random rng(GetParam() * 7 + 1);

  // Sample supersets from real subtrees so they have results.
  std::vector<xml::NodeId> targets;
  for (xml::NodeId id = 0; id < doc.NodeCount(); ++id) {
    if (doc.tag(id) == "inproceedings") targets.push_back(id);
  }
  ASSERT_FALSE(targets.empty());

  int checked = 0;
  for (int round = 0; round < 30; ++round) {
    xml::NodeId target = targets[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(targets.size()) - 1))];
    auto terms = text::Tokenize(doc.SubtreeText(target));
    std::unordered_set<std::string> distinct_set(terms.begin(), terms.end());
    std::vector<std::string> distinct(distinct_set.begin(),
                                      distinct_set.end());
    std::sort(distinct.begin(), distinct.end());
    if (distinct.size() < 3) continue;
    std::shuffle(distinct.begin(), distinct.end(), rng.engine());
    core::Query superset(distinct.begin(), distinct.begin() + 3);
    core::Query subset(superset.begin(), superset.begin() + 2);

    auto candidates = slca::InferSearchForNodes(superset, corpus->stats(),
                                                corpus->types());
    auto meaningful_of = [&](const core::Query& q) {
      auto results = slca::ComputeSlcaForQuery(
                         q, *corpus, corpus->types(),
                         slca::SlcaAlgorithm::kScanEager)
                         .value();
      return slca::FilterMeaningful(std::move(results), candidates,
                                    corpus->types());
    };
    if (!meaningful_of(superset).empty()) {
      EXPECT_FALSE(meaningful_of(subset).empty())
          << core::QueryToString(superset) << " -> "
          << core::QueryToString(subset);
      ++checked;
    }
  }
  EXPECT_GT(checked, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Test, ::testing::Values(60, 61, 62));

// Formula 1: adding evidence (a keyword contained by more T-typed nodes)
// can only increase a type's confidence.
TEST(Formula1Test, ConfidenceMonotoneInEvidence) {
  auto corpus = testutil::MakeFigure1Corpus();
  const auto& stats = corpus.index->stats();
  const auto& types = corpus.index->types();
  auto confidence_of = [&](const std::vector<std::string>& q,
                           const std::string& path) {
    auto ranked = slca::RankSearchForNodes(q, stats, types);
    xml::TypeId id = types.Lookup(path);
    for (const auto& tc : ranked) {
      if (tc.type == id) return tc.confidence;
    }
    return 0.0;
  };
  double one = confidence_of({"xml"}, "bib/author");
  double two = confidence_of({"xml", "search"}, "bib/author");
  EXPECT_GT(two, one);
  EXPECT_GT(one, 0.0);
}

}  // namespace
}  // namespace xrefine
