// Tests for the SLCA algorithms: hand-checked cases on the Figure 1
// document, differential testing of all three algorithms against a
// brute-force reference on random documents, and search-for-node /
// Meaningful-SLCA behaviour.
#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "slca/slca.h"
#include "tests/test_helpers.h"
#include "text/tokenizer.h"

namespace xrefine::slca {
namespace {

using testutil::DeweyStrings;
using testutil::MakeFigure1Corpus;

// Brute-force SLCA: compute each node's witnessed-keyword set bottom-up,
// then keep nodes whose set is full while no child subtree's set is full.
std::vector<std::string> BruteForceSlca(const xml::Document& doc,
                                        const std::vector<std::string>& q) {
  size_t n = doc.NodeCount();
  std::vector<uint64_t> mask(n, 0);
  // Direct containment.
  for (xml::NodeId id = 0; id < n; ++id) {
    std::vector<std::string> terms = text::Tokenize(doc.tag(id));
    for (const auto& t : text::Tokenize(doc.node(id).text)) {
      terms.push_back(t);
    }
    for (size_t k = 0; k < q.size(); ++k) {
      if (std::find(terms.begin(), terms.end(), q[k]) != terms.end()) {
        mask[id] |= uint64_t{1} << k;
      }
    }
  }
  // Bottom-up accumulation; ids are not ordered, so iterate via explicit
  // post-order.
  std::vector<uint64_t> subtree = mask;
  std::vector<xml::NodeId> postorder;
  {
    std::vector<xml::NodeId> stack = {doc.root()};
    while (!stack.empty()) {
      xml::NodeId id = stack.back();
      stack.pop_back();
      postorder.push_back(id);
      for (xml::NodeId c : doc.children(id)) stack.push_back(c);
    }
    std::reverse(postorder.begin(), postorder.end());  // children first
  }
  for (xml::NodeId id : postorder) {
    for (xml::NodeId c : doc.children(id)) subtree[id] |= subtree[c];
  }
  uint64_t full = (uint64_t{1} << q.size()) - 1;
  std::vector<std::string> out;
  for (xml::NodeId id = 0; id < n; ++id) {
    if (subtree[id] != full) continue;
    bool child_full = false;
    for (xml::NodeId c : doc.children(id)) {
      if (subtree[c] == full) child_full = true;
    }
    if (!child_full) out.push_back(doc.dewey(id).ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RunAlgorithm(const testutil::Corpus& corpus,
                                      const std::vector<std::string>& q,
                                      SlcaAlgorithm algorithm) {
  auto results =
      ComputeSlcaForQuery(q, *corpus.index, corpus.index->types(), algorithm)
          .value();
  auto strings = DeweyStrings(results);
  std::sort(strings.begin(), strings.end());
  return strings;
}

constexpr SlcaAlgorithm kAllAlgorithms[] = {
    SlcaAlgorithm::kStack, SlcaAlgorithm::kScanEager,
    SlcaAlgorithm::kIndexedLookup};

TEST(SlcaTest, SingleKeywordReturnsSmallestContainingNodes) {
  auto corpus = MakeFigure1Corpus();
  for (auto algorithm : kAllAlgorithms) {
    auto got = RunAlgorithm(corpus, {"xml"}, algorithm);
    EXPECT_EQ(got, (std::vector<std::string>{"0.0.1.0.0", "0.0.1.1.0"}));
  }
}

TEST(SlcaTest, TwoKeywordsSameTitle) {
  auto corpus = MakeFigure1Corpus();
  for (auto algorithm : kAllAlgorithms) {
    // skyline & stream only co-occur in Mary's first title.
    auto got = RunAlgorithm(corpus, {"skyline", "stream"}, algorithm);
    EXPECT_EQ(got, (std::vector<std::string>{"0.1.1.0.0"})) << "algo";
  }
}

TEST(SlcaTest, KeywordsAcrossSiblingsLcaIsParent) {
  auto corpus = MakeFigure1Corpus();
  for (auto algorithm : kAllAlgorithms) {
    // xml (title) + 2003 (year) meet at John's inproceedings.
    auto got = RunAlgorithm(corpus, {"xml", "2003"}, algorithm);
    EXPECT_EQ(got, (std::vector<std::string>{"0.0.1.0"}));
  }
}

TEST(SlcaTest, KeywordsAcrossAuthorsMeetAtRoot) {
  auto corpus = MakeFigure1Corpus();
  for (auto algorithm : kAllAlgorithms) {
    // skyline (Mary) + 2003 (John) meet only at bib.
    auto got = RunAlgorithm(corpus, {"skyline", "2003"}, algorithm);
    EXPECT_EQ(got, (std::vector<std::string>{"0"}));
  }
}

TEST(SlcaTest, MissingKeywordYieldsEmpty) {
  auto corpus = MakeFigure1Corpus();
  for (auto algorithm : kAllAlgorithms) {
    EXPECT_TRUE(RunAlgorithm(corpus, {"xml", "nonexistent"}, algorithm)
                    .empty());
  }
}

TEST(SlcaTest, TagAndValueMixedQuery) {
  auto corpus = MakeFigure1Corpus();
  for (auto algorithm : kAllAlgorithms) {
    // hobby tag + name term.
    auto got = RunAlgorithm(corpus, {"hobby", "mary"}, algorithm);
    EXPECT_EQ(got, (std::vector<std::string>{"0.1"}));
  }
}

TEST(SlcaTest, ResultTypesAreCorrect) {
  auto corpus = MakeFigure1Corpus();
  auto results =
      ComputeSlcaForQuery({"xml", "2003"}, *corpus.index,
                          corpus.index->types(), SlcaAlgorithm::kStack)
          .value();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(corpus.index->types().path(results[0].type),
            "bib/author/publications/inproceedings");
}

TEST(SlcaTest, DuplicateQueryKeywordIsHarmless) {
  auto corpus = MakeFigure1Corpus();
  for (auto algorithm : kAllAlgorithms) {
    auto once = RunAlgorithm(corpus, {"xml"}, algorithm);
    auto twice = RunAlgorithm(corpus, {"xml", "xml"}, algorithm);
    EXPECT_EQ(once, twice);
  }
}

// Differential property test: random documents, random queries, all three
// algorithms must match the brute-force reference exactly.
class SlcaDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlcaDifferentialTest, AllAlgorithmsMatchBruteForce) {
  Random rng(GetParam());
  SlcaScratch scratch;
  const std::vector<std::string> alphabet = {"aa", "bb", "cc", "dd", "ee",
                                             "ff", "gg"};
  for (int round = 0; round < 20; ++round) {
    // Random tree: up to 60 nodes, fanout <= 4, random 1-2 terms per node.
    auto doc = std::make_unique<xml::Document>();
    xml::NodeId root = doc->CreateRoot("r");
    std::vector<xml::NodeId> nodes = {root};
    size_t target = static_cast<size_t>(rng.Uniform(5, 60));
    while (nodes.size() < target) {
      xml::NodeId parent = nodes[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(nodes.size()) - 1))];
      if (doc->children(parent).size() >= 4) continue;
      xml::NodeId child = doc->AddChild(
          parent, "t" + std::to_string(rng.Uniform(0, 3)));
      size_t terms = static_cast<size_t>(rng.Uniform(0, 2));
      for (size_t t = 0; t < terms; ++t) {
        doc->AppendText(child,
                        alphabet[static_cast<size_t>(rng.Uniform(
                            0, static_cast<int64_t>(alphabet.size()) - 1))]);
      }
      nodes.push_back(child);
    }
    auto corpus = index::BuildIndex(*doc);

    for (size_t qlen = 1; qlen <= 3; ++qlen) {
      std::vector<std::string> q;
      std::unordered_set<std::string> used;
      while (q.size() < qlen) {
        const std::string& term = alphabet[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(alphabet.size()) - 1))];
        if (used.insert(term).second) q.push_back(term);
      }
      auto expected = BruteForceSlca(*doc, q);
      for (auto algorithm : kAllAlgorithms) {
        std::vector<PostingSpan> lists;
        bool missing = false;
        for (const auto& k : q) {
          const index::FlatPostingList* list = corpus->index().Find(k);
          if (list == nullptr) {
            missing = true;
            break;
          }
          lists.emplace_back(*list);
        }
        std::vector<std::string> got;
        if (!missing) {
          auto results = ComputeSlca(lists, corpus->types(), algorithm);
          got = DeweyStrings(results);
          std::sort(got.begin(), got.end());
          // Filtering on the kernel's views, through a scratch every round
          // reuses, keeps exactly what filtering the results afterwards
          // keeps, in the same order and with the same types.
          const std::vector<TypeConfidence> candidates =
              InferSearchForNodes(q, corpus->stats(), corpus->types());
          std::vector<SlcaResult> filtered;
          ComputeSlca(lists, corpus->types(), algorithm, &candidates,
                      &scratch, &filtered);
          std::vector<SlcaResult> expected_filtered =
              FilterMeaningful(results, candidates, corpus->types());
          EXPECT_EQ(DeweyStrings(filtered), DeweyStrings(expected_filtered));
          ASSERT_EQ(filtered.size(), expected_filtered.size());
          for (size_t r = 0; r < filtered.size(); ++r) {
            EXPECT_EQ(filtered[r].type, expected_filtered[r].type);
          }
        }
        EXPECT_EQ(got, expected)
            << "round " << round << " qlen " << qlen << " algo "
            << static_cast<int>(algorithm);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlcaDifferentialTest,
                         ::testing::Values(7, 17, 27, 37, 47));

// --- search-for-node inference -------------------------------------------------

TEST(SearchForNodeTest, PrefersFrequentDeepEnoughTypes) {
  auto corpus = MakeFigure1Corpus();
  auto ranked = RankSearchForNodes({"xml", "database"},
                                   corpus.index->stats(),
                                   corpus.index->types());
  ASSERT_FALSE(ranked.empty());
  // Root excluded by default.
  for (const auto& tc : ranked) {
    EXPECT_NE(corpus.index->types().path(tc.type), "bib");
  }
  // Confidences descend.
  for (size_t i = 0; i + 1 < ranked.size(); ++i) {
    EXPECT_GE(ranked[i].confidence, ranked[i + 1].confidence);
  }
}

TEST(SearchForNodeTest, RootCanBeIncludedWhenAllowed) {
  auto corpus = MakeFigure1Corpus();
  SearchForNodeOptions options;
  options.exclude_root_type = false;
  auto ranked = RankSearchForNodes({"xml"}, corpus.index->stats(),
                                   corpus.index->types(), options);
  bool has_root = false;
  for (const auto& tc : ranked) {
    if (corpus.index->types().path(tc.type) == "bib") has_root = true;
  }
  EXPECT_TRUE(has_root);
}

TEST(SearchForNodeTest, UnknownKeywordsYieldNoCandidates) {
  auto corpus = MakeFigure1Corpus();
  EXPECT_TRUE(InferSearchForNodes({"zzz", "qqq"}, corpus.index->stats(),
                                  corpus.index->types())
                  .empty());
}

TEST(SearchForNodeTest, CandidateListRespectsRatioAndCap) {
  auto corpus = MakeFigure1Corpus();
  SearchForNodeOptions options;
  options.comparable_ratio = 1.0;  // only ties with the best
  options.max_candidates = 1;
  auto candidates = InferSearchForNodes({"xml", "search"},
                                        corpus.index->stats(),
                                        corpus.index->types(), options);
  EXPECT_EQ(candidates.size(), 1u);
}

TEST(SearchForNodeTest, ReductionFactorPenalisesDepth) {
  auto corpus = MakeFigure1Corpus();
  SearchForNodeOptions shallow;
  shallow.reduction_factor = 0.1;  // harsh depth penalty
  auto ranked = RankSearchForNodes({"xml", "2003"}, corpus.index->stats(),
                                   corpus.index->types(), shallow);
  ASSERT_FALSE(ranked.empty());
  // With a harsh penalty the shallowest scored type must win.
  uint32_t best_depth = corpus.index->types().depth(ranked.front().type);
  for (const auto& tc : ranked) {
    EXPECT_GE(corpus.index->types().depth(tc.type), best_depth);
  }
}

TEST(MeaningfulSlcaTest, FiltersByAncestorType) {
  auto corpus = MakeFigure1Corpus();
  const auto& types = corpus.index->types();
  xml::TypeId author = types.Lookup("bib/author");
  xml::TypeId title =
      types.Lookup("bib/author/publications/inproceedings/title");
  xml::TypeId root = types.Lookup("bib");

  std::vector<TypeConfidence> L = {{author, 1.0}};
  SlcaResult title_result{xml::Dewey({0, 0, 1, 0, 0}), title};
  SlcaResult root_result{xml::Dewey({0}), root};
  EXPECT_TRUE(IsMeaningfulSlca(title_result, L, types));
  EXPECT_FALSE(IsMeaningfulSlca(root_result, L, types));

  auto filtered = FilterMeaningful({title_result, root_result}, L, types);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].dewey.ToString(), "0.0.1.0.0");
}

TEST(MeaningfulSlcaTest, EmptyCandidateListRejectsEverything) {
  auto corpus = MakeFigure1Corpus();
  SlcaResult r{xml::Dewey({0, 0}), corpus.index->types().Lookup("bib/author")};
  EXPECT_FALSE(IsMeaningfulSlca(r, {}, corpus.index->types()));
}

}  // namespace
}  // namespace xrefine::slca
