// Tests for the ranking model (Section IV) and the RQSortedList.
#include <cmath>

#include <gtest/gtest.h>

#include "core/ranking.h"
#include "core/rq_sorted_list.h"
#include "tests/test_helpers.h"

namespace xrefine::core {
namespace {

using testutil::MakeFigure1Corpus;

class RankingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeFigure1Corpus();
    author_ = corpus_.index->types().Lookup("bib/author");
    inproc_ = corpus_.index->types().Lookup(
        "bib/author/publications/inproceedings");
    ASSERT_NE(author_, xml::kInvalidTypeId);
  }

  std::vector<slca::TypeConfidence> L() const { return {{author_, 1.0}}; }

  testutil::Corpus corpus_;
  xml::TypeId author_ = xml::kInvalidTypeId;
  xml::TypeId inproc_ = xml::kInvalidTypeId;
};

TEST_F(RankingTest, ImpMatchesFormula2) {
  RankingModel model(corpus_.index.get());
  const auto& stats = corpus_.index->stats();
  double expected =
      (static_cast<double>(stats.tf("xml", author_)) +
       static_cast<double>(stats.tf("search", author_))) /
      static_cast<double>(stats.distinct_keywords(author_));
  EXPECT_DOUBLE_EQ(model.Imp({"xml", "search"}, author_), expected);
}

TEST_F(RankingTest, ImpZeroWhenTypeHasNoKeywords) {
  RankingModel model(corpus_.index.get());
  // A type id that exists but with G=0 can't occur here; use an untouched
  // fake id via a type with no text: none exists, so check the unknown
  // keyword case instead.
  EXPECT_DOUBLE_EQ(model.Imp({"zzz"}, author_), 0.0);
}

TEST_F(RankingTest, ImpKiMatchesFormula3) {
  RankingModel model(corpus_.index.get());
  const auto& stats = corpus_.index->stats();
  double expected = std::log(
      static_cast<double>(stats.node_count(author_)) /
      (1.0 + static_cast<double>(stats.df("skyline", author_))));
  EXPECT_DOUBLE_EQ(model.ImpKi("skyline", author_),
                   std::max(0.0, expected));
}

TEST_F(RankingTest, ImpKiFlooredAtZero) {
  RankingModel model(corpus_.index.get());
  // "name" occurs in every author subtree: N/(1+df) = 2/3 < 1 -> floor 0.
  EXPECT_DOUBLE_EQ(model.ImpKi("name", author_), 0.0);
}

TEST_F(RankingTest, DecayPenalisesDissimilarity) {
  RankingModel model(corpus_.index.get());
  RefinedQuery near{{"xml", "database"}, 1.0, {}};
  RefinedQuery far{{"xml", "database"}, 3.0, {}};
  Query q = {"xml", "databse"};
  double s_near = model.Similarity(near, q, L());
  double s_far = model.Similarity(far, q, L());
  EXPECT_GT(s_near, s_far);
  EXPECT_NEAR(s_far / s_near, std::pow(0.8, 2.0), 1e-9);
}

TEST_F(RankingTest, Guideline4ToggleRemovesDecay) {
  RankingOptions options;
  options.use_guideline4 = false;
  RankingModel model(corpus_.index.get(), options);
  RefinedQuery near{{"xml", "database"}, 1.0, {}};
  RefinedQuery far{{"xml", "database"}, 5.0, {}};
  Query q = {"xml", "databse"};
  EXPECT_DOUBLE_EQ(model.Similarity(near, q, L()),
                   model.Similarity(far, q, L()));
}

TEST_F(RankingTest, Guideline1ToggleDropsTermFrequencies) {
  RankingOptions options;
  options.use_guideline1 = false;
  RankingModel model(corpus_.index.get(), options);
  // Without Imp, two RQs with the same delta and dsim tie even when their
  // term frequencies differ.
  RefinedQuery rare{{"skyline"}, 1.0, {}};
  RefinedQuery frequent{{"xml"}, 1.0, {}};
  Query q = {"zzz"};
  EXPECT_DOUBLE_EQ(model.Similarity(rare, q, L()),
                   model.Similarity(frequent, q, L()));
}

TEST_F(RankingTest, SimilarityUsesConfidenceWeights) {
  RankingModel model(corpus_.index.get());
  RefinedQuery rq{{"xml", "database"}, 1.0, {}};
  Query q = {"xml", "databse"};
  std::vector<slca::TypeConfidence> l1 = {{author_, 1.0}};
  std::vector<slca::TypeConfidence> l2 = {{author_, 2.0}};
  EXPECT_NEAR(model.Similarity(rq, q, l2),
              2.0 * model.Similarity(rq, q, l1), 1e-9);
}

TEST_F(RankingTest, Guideline3ToggleIgnoresConfidences) {
  RankingOptions options;
  options.use_guideline3 = false;
  RankingModel model(corpus_.index.get(), options);
  RefinedQuery rq{{"xml", "database"}, 1.0, {}};
  Query q = {"xml", "databse"};
  std::vector<slca::TypeConfidence> l1 = {{author_, 1.0}};
  std::vector<slca::TypeConfidence> l2 = {{author_, 5.0}};
  EXPECT_DOUBLE_EQ(model.Similarity(rq, q, l1),
                   model.Similarity(rq, q, l2));
}

TEST_F(RankingTest, DependenceRewardsCooccurringKeywords) {
  RankingModel model(corpus_.index.get());
  // skyline+stream share a subtree; skyline+2003 never do.
  RefinedQuery together{{"skyline", "stream"}, 0.0, {}};
  RefinedQuery apart{{"skyline", "2003"}, 0.0, {}};
  EXPECT_GT(model.Dependence(together, L()), model.Dependence(apart, L()));
  EXPECT_DOUBLE_EQ(model.Dependence(apart, L()), 0.0);
}

TEST_F(RankingTest, DependenceZeroForSingleKeyword) {
  RankingModel model(corpus_.index.get());
  RefinedQuery single{{"xml"}, 0.0, {}};
  EXPECT_DOUBLE_EQ(model.Dependence(single, L()), 0.0);
}

TEST_F(RankingTest, ScoreCombinesWithAlphaBeta) {
  RankingOptions options;
  options.alpha = 2.0;
  options.beta = 0.5;
  RankingModel model(corpus_.index.get(), options);
  RefinedQuery rq{{"skyline", "stream"}, 1.0, {}};
  Query q = {"skyline", "streem"};
  RankedRq scored = model.Score(rq, q, L());
  EXPECT_NEAR(scored.rank,
              2.0 * scored.similarity + 0.5 * scored.dependence, 1e-12);
  EXPECT_DOUBLE_EQ(scored.similarity, model.Similarity(rq, q, L()));
  EXPECT_DOUBLE_EQ(scored.dependence, model.Dependence(rq, L()));
}

TEST_F(RankingTest, BetaZeroDisablesDependence) {
  RankingOptions options;
  options.beta = 0.0;
  RankingModel model(corpus_.index.get(), options);
  RefinedQuery rq{{"skyline", "stream"}, 0.0, {}};
  RankedRq scored = model.Score(rq, {"skyline", "stream"}, L());
  EXPECT_DOUBLE_EQ(scored.rank, scored.similarity);
}

// --- RqSortedList --------------------------------------------------------------

// Test keywords are single letters; a letter's keyword id is its alphabet
// position, over a 26-keyword universe.
KeywordBits Key(const Query& q) {
  KeywordBits key(26);
  for (const std::string& k : q) key.Set(static_cast<size_t>(k[0] - 'a'));
  return key;
}

// The entry of q's keyword set: the existing one, or a new one (nullptr when
// rejected) — the lookup-then-insert Partition and SLE make per candidate.
RqSortedList::Entry* Insert(RqSortedList& list, Query q, double dsim) {
  KeywordBits key = Key(q);
  if (RqSortedList::Entry* found = list.Find(key)) return found;
  return list.Insert(RefinedQuery{std::move(q), dsim, {}}, key);
}

TEST(RqSortedListTest, KeepsAscendingOrderAndCapacity) {
  RqSortedList list(3);
  EXPECT_TRUE(list.CanAccept(100.0));  // not yet full
  Insert(list, {"c"}, 3.0);
  Insert(list, {"a"}, 1.0);
  Insert(list, {"b"}, 2.0);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list.entries()[0].rq.dissimilarity, 1.0);
  EXPECT_DOUBLE_EQ(list.entries()[2].rq.dissimilarity, 3.0);
  EXPECT_DOUBLE_EQ(list.AdmissionThreshold(), 3.0);

  // A better candidate evicts the worst.
  Insert(list, {"d"}, 0.5);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list.Find(Key({"c"})), nullptr);
  EXPECT_NE(list.Find(Key({"d"})), nullptr);

  // A worse candidate is rejected.
  EXPECT_EQ(Insert(list, {"e"}, 9.0), nullptr);
  EXPECT_EQ(list.Find(Key({"e"})), nullptr);
}

TEST(RqSortedListTest, DuplicateKeywordSetsAreMerged) {
  RqSortedList list(4);
  Insert(list, {"x", "y"}, 1.0);
  auto* again = Insert(list, {"y", "x"}, 1.0);  // same set
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(list.size(), 1u);
}

TEST(RqSortedListTest, ResultsAccumulateOnTheReturnedEntry) {
  RqSortedList list(2);
  Insert(list, {"x"}, 1.0);
  slca::SlcaResult r1{xml::Dewey({0, 1}), 0};
  slca::SlcaResult r2{xml::Dewey({0, 2}), 0};
  Insert(list, {"x"}, 1.0)->results.push_back(r1);
  Insert(list, {"x"}, 1.0)->results.push_back(r2);
  ASSERT_EQ(list.entries()[0].results.size(), 2u);
  // An RQ the full list rejects has no entry to append to.
  Insert(list, {"y"}, 2.0);
  EXPECT_EQ(Insert(list, {"u"}, 3.0), nullptr);
  EXPECT_EQ(list.entries()[0].results.size(), 2u);
  EXPECT_TRUE(list.entries()[1].results.empty());
}

TEST(RqSortedListTest, ZeroCapacityAdmitsNothing) {
  RqSortedList list(0);
  EXPECT_TRUE(list.full());
  EXPECT_FALSE(list.CanAccept(0.0));
  EXPECT_EQ(Insert(list, {"a"}, 0.0), nullptr);
  EXPECT_EQ(list.size(), 0u);
}

TEST(RqSortedListTest, KeysSpanSeveralWords) {
  // Ids 3 and 67 land in different 64-bit words of a 70-keyword universe;
  // sets that differ only in the second word are distinct keys.
  KeywordBits a(70);
  a.Set(3);
  a.Set(67);
  KeywordBits b(70);
  b.Set(3);
  b.Set(66);
  EXPECT_TRUE(a.Test(67));
  EXPECT_FALSE(a.Test(66));
  RqSortedList list(4);
  list.Insert(RefinedQuery{{"k3", "k67"}, 1.0, {}}, a);
  EXPECT_NE(list.Find(a), nullptr);
  EXPECT_EQ(list.Find(b), nullptr);
  list.Insert(RefinedQuery{{"k3", "k66"}, 1.0, {}}, b);
  EXPECT_EQ(list.size(), 2u);
}

}  // namespace
}  // namespace xrefine::core
