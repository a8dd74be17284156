// Tests for the getOptimalRQ dynamic program (paper Section V), including a
// reproduction of the paper's Example 3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/optimal_rq.h"

namespace xrefine::core {
namespace {

RefinementRule Rule(std::vector<std::string> lhs,
                    std::vector<std::string> rhs, RefineOp op, double ds) {
  return RefinementRule{std::move(lhs), std::move(rhs), op, ds};
}

Query Sorted(Query q) {
  std::sort(q.begin(), q.end());
  return q;
}

TEST(OptimalRqTest, KeywordsInTAreKeptFree) {
  RuleSet rules;
  KeywordSet t = {"a", "b"};
  auto rq = GetOptimalRq({"a", "b"}, t, rules);
  ASSERT_TRUE(rq.has_value());
  EXPECT_DOUBLE_EQ(rq->dissimilarity, 0.0);
  EXPECT_EQ(Sorted(rq->keywords), (Query{"a", "b"}));
}

TEST(OptimalRqTest, MissingKeywordIsDeletedAtDeletionCost) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  KeywordSet t = {"a"};
  auto rq = GetOptimalRq({"a", "missing"}, t, rules);
  ASSERT_TRUE(rq.has_value());
  EXPECT_DOUBLE_EQ(rq->dissimilarity, 2.0);
  EXPECT_EQ(rq->keywords, (Query{"a"}));
  ASSERT_EQ(rq->applied_ops.size(), 1u);
  EXPECT_NE(rq->applied_ops[0].find("delete"), std::string::npos);
}

TEST(OptimalRqTest, SubstitutionBeatsDeletionWhenCheaper) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  rules.Add(Rule({"databse"}, {"database"}, RefineOp::kSubstitution, 1.0));
  KeywordSet t = {"database"};
  auto rq = GetOptimalRq({"databse"}, t, rules);
  ASSERT_TRUE(rq.has_value());
  EXPECT_DOUBLE_EQ(rq->dissimilarity, 1.0);
  EXPECT_EQ(rq->keywords, (Query{"database"}));
}

TEST(OptimalRqTest, RuleWithRhsOutsideTDoesNotApply) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  rules.Add(Rule({"x"}, {"y"}, RefineOp::kSubstitution, 1.0));
  KeywordSet t = {"z"};  // y is not witnessed
  auto rq = GetOptimalRq({"x"}, t, rules);
  // Only option is deletion -> empty RQ -> no result.
  EXPECT_FALSE(rq.has_value());
}

TEST(OptimalRqTest, MergeRuleConsumesMultiplepositions) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  rules.Add(Rule({"on", "line"}, {"online"}, RefineOp::kMerging, 1.0));
  rules.Add(Rule({"data", "base"}, {"database"}, RefineOp::kMerging, 1.0));
  KeywordSet t = {"online", "database"};
  auto rq = GetOptimalRq({"on", "line", "data", "base"}, t, rules);
  ASSERT_TRUE(rq.has_value());
  EXPECT_DOUBLE_EQ(rq->dissimilarity, 2.0);
  EXPECT_EQ(Sorted(rq->keywords), (Query{"database", "online"}));
}

TEST(OptimalRqTest, MergeRuleRequiresAdjacency) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  rules.Add(Rule({"on", "line"}, {"online"}, RefineOp::kMerging, 1.0));
  KeywordSet t = {"online", "x"};
  // "on" and "line" are separated: the merge cannot fire.
  auto rq = GetOptimalRq({"on", "x", "line"}, t, rules);
  ASSERT_TRUE(rq.has_value());
  // Best: delete "on", keep "x", delete "line" -> cost 4.
  EXPECT_DOUBLE_EQ(rq->dissimilarity, 4.0);
  EXPECT_EQ(rq->keywords, (Query{"x"}));
}

// The paper's Example 3: Q = {WWW, article, machine, learning},
// T = {machine, inproceedings, learning, world, wide, web}, rules
//   r3: article -> inproceedings (ds 1)
//   r4: learn, ing -> learning    (not applicable here)
//   r6: WWW -> world wide web     (ds 1)
// Optimal RQ = {world, wide, web, inproceedings, machine, learning} with a
// total dissimilarity of 3 (two substitutions at ds 1 each... the paper's
// numbers differ because its r3 example carries different costs; we encode
// ds(r3)=1, ds(r6)=1 and expect 2).
TEST(OptimalRqTest, PaperExample3Shape) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  rules.Add(
      Rule({"article"}, {"inproceedings"}, RefineOp::kSubstitution, 1.0));
  rules.Add(Rule({"www"}, {"world", "wide", "web"}, RefineOp::kSubstitution,
                 1.0));
  KeywordSet t = {"machine", "inproceedings", "learning",
                  "world",   "wide",          "web"};
  auto rq = GetOptimalRq({"www", "article", "machine", "learning"}, t, rules);
  ASSERT_TRUE(rq.has_value());
  EXPECT_DOUBLE_EQ(rq->dissimilarity, 2.0);
  EXPECT_EQ(Sorted(rq->keywords),
            (Query{"inproceedings", "learning", "machine", "web", "wide",
                   "world"}));
}

TEST(OptimalRqTest, PicksCheapestAmongCompetingRules) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  rules.Add(Rule({"mecin"}, {"machine"}, RefineOp::kSubstitution, 3.0));
  rules.Add(Rule({"mecin"}, {"main"}, RefineOp::kSubstitution, 2.0));
  KeywordSet t = {"machine", "main"};
  auto rq = GetOptimalRq({"mecin"}, t, rules);
  ASSERT_TRUE(rq.has_value());
  EXPECT_EQ(rq->keywords, (Query{"main"}));
  EXPECT_DOUBLE_EQ(rq->dissimilarity, 2.0);
}

TEST(OptimalRqTest, EmptyQueryYieldsNothing) {
  RuleSet rules;
  EXPECT_FALSE(GetOptimalRq({}, {"a"}, rules).has_value());
  EXPECT_TRUE(GetTopOptimalRqs({}, {"a"}, rules, 3).empty());
}

TEST(OptimalRqTest, AllKeywordsUnwitnessedYieldsNothing) {
  RuleSet rules;
  auto rq = GetOptimalRq({"x", "y"}, {}, rules);
  EXPECT_FALSE(rq.has_value());
}

TEST(OptimalRqTest, OrderInsensitiveDissimilarity) {
  // getOptimalRQ is insensitive to keyword order (paper's remark) for
  // single-keyword rules.
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  rules.Add(Rule({"a"}, {"a2"}, RefineOp::kSubstitution, 1.0));
  KeywordSet t = {"a2", "b"};
  auto rq1 = GetOptimalRq({"a", "b"}, t, rules);
  auto rq2 = GetOptimalRq({"b", "a"}, t, rules);
  ASSERT_TRUE(rq1.has_value());
  ASSERT_TRUE(rq2.has_value());
  EXPECT_DOUBLE_EQ(rq1->dissimilarity, rq2->dissimilarity);
  EXPECT_EQ(Sorted(rq1->keywords), Sorted(rq2->keywords));
}

TEST(TopOptimalRqTest, ReturnsDistinctCandidatesAscendingByDsim) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  rules.Add(Rule({"pub"}, {"article"}, RefineOp::kSubstitution, 1.0));
  rules.Add(Rule({"pub"}, {"inproceedings"}, RefineOp::kSubstitution, 1.5));
  KeywordSet t = {"article", "inproceedings", "xml"};
  auto top = GetTopOptimalRqs({"xml", "pub"}, t, rules, 4);
  ASSERT_GE(top.size(), 3u);
  for (size_t i = 0; i + 1 < top.size(); ++i) {
    EXPECT_LE(top[i].dissimilarity, top[i + 1].dissimilarity);
  }
  EXPECT_EQ(Sorted(top[0].keywords), (Query{"article", "xml"}));
  EXPECT_EQ(Sorted(top[1].keywords), (Query{"inproceedings", "xml"}));
  // Deduplicated by keyword set.
  for (size_t i = 0; i < top.size(); ++i) {
    for (size_t j = i + 1; j < top.size(); ++j) {
      EXPECT_NE(QueryKey(top[i].keywords), QueryKey(top[j].keywords));
    }
  }
}

TEST(TopOptimalRqTest, DeletionsOfPresentTermsEnrichBeam) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  KeywordSet t = {"a", "b"};
  auto top = GetTopOptimalRqs({"a", "b"}, t, rules, 4);
  // {a,b}, {a}, {b} should all appear.
  ASSERT_GE(top.size(), 3u);
  EXPECT_EQ(Sorted(top[0].keywords), (Query{"a", "b"}));
}

TEST(TopOptimalRqTest, DisableDeletionExploration) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  OptimalRqOptions options;
  options.explore_deletions_of_present_terms = false;
  KeywordSet t = {"a", "b"};
  auto top = GetTopOptimalRqs({"a", "b"}, t, rules, 4, options);
  ASSERT_EQ(top.size(), 1u);  // only the exact query survives
  EXPECT_EQ(Sorted(top[0].keywords), (Query{"a", "b"}));
}

TEST(TopOptimalRqTest, RespectsK) {
  RuleSet rules;
  rules.set_deletion_cost(2.0);
  KeywordSet t = {"a", "b", "c"};
  auto top = GetTopOptimalRqs({"a", "b", "c"}, t, rules, 2);
  EXPECT_EQ(top.size(), 2u);
}

// --- the string DP as the reference --------------------------------------
//
// GetTopOptimalRqs before its rewrite onto back-pointers over word ids: each
// beam state carries its keywords and applied_ops strings, and the beam is
// deduplicated by QueryKey. The rewrite must return exactly what this does:
// the same keywords in the same order, bit-identical dissimilarities and
// the same applied_ops.

struct RefCandidate {
  double dsim = 0.0;
  Query keywords;
  std::vector<std::string> ops;
};

void RefAppendKeywordUnique(Query* keywords, const std::string& k) {
  if (std::find(keywords->begin(), keywords->end(), k) == keywords->end()) {
    keywords->push_back(k);
  }
}

void RefPruneBeam(std::vector<RefCandidate>* cands, size_t beam) {
  std::sort(cands->begin(), cands->end(),
            [](const RefCandidate& a, const RefCandidate& b) {
              if (a.dsim != b.dsim) return a.dsim < b.dsim;
              return a.keywords.size() > b.keywords.size();
            });
  std::unordered_map<std::string, bool> seen;
  std::vector<RefCandidate> kept;
  kept.reserve(std::min(cands->size(), beam));
  for (auto& c : *cands) {
    if (kept.size() >= beam) break;
    std::string key = QueryKey(c.keywords);
    if (seen.emplace(std::move(key), true).second) {
      kept.push_back(std::move(c));
    }
  }
  *cands = std::move(kept);
}

std::vector<RefinedQuery> ReferenceTopOptimalRqs(
    const Query& q, const KeywordSet& t, const RuleSet& rules, size_t k,
    OptimalRqOptions options) {
  std::vector<RefinedQuery> out;
  if (q.empty() || k == 0) return out;
  options.beam_width = std::max(options.beam_width, 2 * k);
  const size_t n = q.size();
  std::vector<std::vector<RefCandidate>> states(n + 1);
  states[0].push_back(RefCandidate{});
  for (size_t i = 1; i <= n; ++i) {
    const std::string& ki = q[i - 1];
    std::vector<RefCandidate> next;
    bool in_t = t.count(ki) > 0;
    if (in_t) {
      for (const RefCandidate& c : states[i - 1]) {
        RefCandidate e = c;
        RefAppendKeywordUnique(&e.keywords, ki);
        next.push_back(std::move(e));
      }
    }
    if (!in_t || options.explore_deletions_of_present_terms) {
      for (const RefCandidate& c : states[i - 1]) {
        RefCandidate e = c;
        e.dsim += rules.deletion_cost();
        e.ops.push_back("delete \"" + ki + "\"");
        next.push_back(std::move(e));
      }
    }
    if (const auto* rule_ids = rules.RulesEndingWith(ki)) {
      for (size_t rid : *rule_ids) {
        const RefinementRule& r = rules.rule(rid);
        size_t len = r.lhs.size();
        if (len > i) continue;
        bool match = true;
        for (size_t j = 0; j < len; ++j) {
          if (q[i - len + j] != r.lhs[j]) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        bool rhs_in_t = true;
        for (const std::string& w : r.rhs) {
          if (t.count(w) == 0) {
            rhs_in_t = false;
            break;
          }
        }
        if (!rhs_in_t) continue;
        for (const RefCandidate& c : states[i - len]) {
          RefCandidate e = c;
          e.dsim += r.ds;
          for (const std::string& w : r.rhs) {
            RefAppendKeywordUnique(&e.keywords, w);
          }
          e.ops.push_back(r.DebugString());
          next.push_back(std::move(e));
        }
      }
    }
    RefPruneBeam(&next, options.beam_width);
    states[i] = std::move(next);
  }
  for (const RefCandidate& c : states[n]) {
    if (c.keywords.empty()) continue;
    if (out.size() >= k) break;
    out.push_back(RefinedQuery{c.keywords, c.dsim, c.ops});
  }
  return out;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// A word of the random vocabulary.
std::string Word(Random& rng, int64_t vocabulary) {
  return "w" + std::to_string(rng.Uniform(0, vocabulary - 1));
}

// Distinct words of T the DP can put into one keyword set: Q's witnessed
// terms and the RHS words of witnessed rules whose LHS occurs in Q.
size_t WitnessedWords(const Query& q, const KeywordSet& t,
                      const RuleSet& rules) {
  KeywordSet words;
  for (const std::string& k : q) {
    if (t.count(k) > 0) words.insert(k);
  }
  for (const RefinementRule& r : rules.rules()) {
    if (std::search(q.begin(), q.end(), r.lhs.begin(), r.lhs.end()) ==
        q.end()) {
      continue;
    }
    if (std::all_of(r.rhs.begin(), r.rhs.end(),
                    [&](const std::string& w) { return t.count(w) > 0; })) {
      words.insert(r.rhs.begin(), r.rhs.end());
    }
  }
  return words.size();
}

// Seeded random cases against the reference: Q of 1-8 terms from a small
// vocabulary (so terms repeat), random T, rules with 1-3-word LHS (mostly
// runs of Q, so they fire) and 1-3-word RHS (repeats allowed, also within
// one rule), dissimilarities from a small set (so ties abound, and sums
// like 0.1 + 0.2 test bit-identity), beam 1-16, k 1-8. Every fourth case
// draws a wide rule set over a large vocabulary so the witnessed words
// outgrow one 64-bit mask word.
TEST(TopOptimalRqReferenceTest, MatchesStringDpOnRandomCases) {
  constexpr int kCases = 2400;
  const double ds_values[] = {0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0};
  const double deletion_costs[] = {1.0, 2.0, 2.0, 2.5};
  Random rng(20091);
  int wide_cases = 0;
  int nonempty_cases = 0;
  for (int c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const bool wide = c % 4 == 3;
    const int64_t q_vocabulary = rng.Uniform(2, 10);
    const int64_t vocabulary = wide ? 400 : rng.Uniform(4, 40);

    Query q(static_cast<size_t>(rng.Uniform(1, 8)));
    for (std::string& term : q) term = Word(rng, q_vocabulary);

    KeywordSet t;
    const double t_share = wide ? 0.9 : rng.NextDouble();
    for (int64_t w = 0; w < std::max(vocabulary, q_vocabulary); ++w) {
      if (rng.OneIn(t_share)) t.insert("w" + std::to_string(w));
    }

    RuleSet rules;
    rules.set_deletion_cost(
        deletion_costs[rng.Uniform(0, std::size(deletion_costs) - 1)]);
    const int64_t rule_count = wide ? rng.Uniform(60, 120) : rng.Uniform(0, 12);
    for (int64_t r = 0; r < rule_count; ++r) {
      RefinementRule rule;
      const size_t lhs_len = static_cast<size_t>(rng.Uniform(1, 3));
      if (rng.OneIn(0.8) && lhs_len <= q.size()) {
        const size_t at =
            static_cast<size_t>(rng.Uniform(0, q.size() - lhs_len));
        rule.lhs.assign(q.begin() + at, q.begin() + at + lhs_len);
      } else {
        for (size_t j = 0; j < lhs_len; ++j) {
          rule.lhs.push_back(Word(rng, q_vocabulary));
        }
      }
      const size_t rhs_len = static_cast<size_t>(rng.Uniform(1, 3));
      for (size_t j = 0; j < rhs_len; ++j) {
        rule.rhs.push_back(rng.OneIn(0.15) ? q[rng.Uniform(0, q.size() - 1)]
                                           : Word(rng, vocabulary));
      }
      rule.op = static_cast<RefineOp>(rng.Uniform(1, 3));
      rule.ds = ds_values[rng.Uniform(0, std::size(ds_values) - 1)];
      rules.Add(std::move(rule));
    }

    OptimalRqOptions options;
    options.beam_width = static_cast<size_t>(rng.Uniform(1, 16));
    options.explore_deletions_of_present_terms = rng.OneIn(0.8);
    const size_t k = static_cast<size_t>(rng.Uniform(1, 8));
    if (WitnessedWords(q, t, rules) > 64) ++wide_cases;

    const std::vector<RefinedQuery> expected =
        ReferenceTopOptimalRqs(q, t, rules, k, options);
    const std::vector<RefinedQuery> got =
        GetTopOptimalRqs(q, t, rules, k, options);
    if (!expected.empty()) ++nonempty_cases;
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].keywords, expected[i].keywords) << "rank " << i;
      EXPECT_TRUE(SameBits(got[i].dissimilarity, expected[i].dissimilarity))
          << "rank " << i << ": " << got[i].dissimilarity << " vs "
          << expected[i].dissimilarity;
      EXPECT_EQ(got[i].applied_ops, expected[i].applied_ops) << "rank " << i;
    }
    const std::optional<RefinedQuery> best = GetOptimalRq(q, t, rules, options);
    const std::vector<RefinedQuery> best_expected =
        ReferenceTopOptimalRqs(q, t, rules, 1, options);
    ASSERT_EQ(best.has_value(), !best_expected.empty());
    if (best.has_value()) {
      EXPECT_EQ(best->keywords, best_expected[0].keywords);
      EXPECT_TRUE(
          SameBits(best->dissimilarity, best_expected[0].dissimilarity));
      EXPECT_EQ(best->applied_ops, best_expected[0].applied_ops);
    }
  }
  // The generator must reach multi-word masks and mostly non-empty answers.
  EXPECT_GE(wide_cases, kCases / 8);
  EXPECT_GE(nonempty_cases, kCases / 2);
}

}  // namespace
}  // namespace xrefine::core
