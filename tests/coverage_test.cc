// Broad-coverage unit tests for pieces exercised mostly indirectly
// elsewhere: the SLCA neighbour searches, posting spans, refine-input
// preparation, the engine surface, and the built-in lexicon contents.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/xrefine.h"
#include "slca/slca_common.h"
#include "tests/test_helpers.h"
#include "text/lexicon.h"

namespace xrefine {
namespace {

using core::Query;
using slca::PostingSpan;
using testutil::MakeFigure1Corpus;

index::FlatPostingList MakeList(const std::vector<std::string>& deweys) {
  index::FlatPostingList list;
  for (const auto& d : deweys) {
    auto parsed = xml::Dewey::Parse(d);
    EXPECT_TRUE(parsed.ok());
    list.Append(parsed.value(), 0);
  }
  return list;
}

TEST(SlcaCommonTest, LeftMatchFindsRightmostNotAfter) {
  auto list = MakeList({"0.0", "0.2", "0.4"});
  PostingSpan span(list);
  auto at = [&](const char* d) {
    xml::Dewey v = xml::Dewey::Parse(d).value();
    return slca::LeftMatch(span, xml::DeweyRef(v));
  };
  EXPECT_EQ(at("0.0"), 0);   // exact hit
  EXPECT_EQ(at("0.1"), 0);   // between
  EXPECT_EQ(at("0.3.5"), 1);
  EXPECT_EQ(at("0.9"), 2);
  EXPECT_EQ(at("0"), -1);    // everything is after (0 is ancestor of 0.0)
}

TEST(SlcaCommonTest, RightMatchFindsLeftmostNotBefore) {
  auto list = MakeList({"0.0", "0.2", "0.4"});
  PostingSpan span(list);
  auto at = [&](const char* d) {
    xml::Dewey v = xml::Dewey::Parse(d).value();
    return slca::RightMatch(span, xml::DeweyRef(v));
  };
  EXPECT_EQ(at("0.0"), 0);
  EXPECT_EQ(at("0.1"), 1);
  EXPECT_EQ(at("0.4"), 2);
  EXPECT_EQ(at("0.5"), 3);  // past the end
}

TEST(SlcaCommonTest, GallopingBoundsMatchBinarySearch) {
  auto list = MakeList({"0.0", "0.2", "0.2", "0.4", "0.4.1", "0.7"});
  PostingSpan span(list);
  const char* probes[] = {"0", "0.0", "0.1", "0.2", "0.3", "0.4",
                          "0.4.1", "0.5", "0.7", "0.9"};
  for (const char* p : probes) {
    xml::Dewey v = xml::Dewey::Parse(p).value();
    xml::DeweyRef ref(v);
    size_t lb = 0;
    while (lb < span.size && span.label(lb) < ref) ++lb;
    size_t ub = lb;
    while (ub < span.size && span.label(ub) <= ref) ++ub;
    // Any valid hint position at or below the true bound must work.
    for (size_t from = 0; from <= lb; ++from) {
      EXPECT_EQ(slca::GallopLowerBound(span, from, ref), lb) << p;
    }
    for (size_t from = lb; from <= ub; ++from) {
      EXPECT_EQ(slca::GallopUpperBound(span, from, ref), ub) << p;
    }
  }
}

TEST(SlcaCommonTest, GallopSubtreeEndMatchesLinearScan) {
  // Subtrees ending at the last ordinal a component can hold: a bound
  // built as "last component + 1" would wrap to 0 there.
  auto list = MakeList({"0.1", "0.1.3", "0.2", "0.2.0", "0.2.4.1",
                        "0.4294967295", "0.4294967295.0", "1", "1.0"});
  PostingSpan span(list);
  const char* roots[] = {"0", "0.1", "0.2", "0.2.4", "0.3", "0.4294967295",
                         "1", "2"};
  for (const char* r : roots) {
    xml::Dewey root = xml::Dewey::Parse(r).value();
    xml::DeweyRef ref(root);
    size_t lb = 0;
    while (lb < span.size && span.label(lb) < ref) ++lb;
    size_t end = lb;
    while (end < span.size &&
           xml::CommonPrefixDepth(ref, span.label(end)) == ref.len) {
      ++end;
    }
    // Every start at or past the subtree's first posting satisfies the
    // precondition label(from) >= root.
    for (size_t from = lb; from <= span.size; ++from) {
      EXPECT_EQ(slca::GallopSubtreeEnd(span, from, ref), std::max(from, end))
          << r << " from " << from;
    }
  }
}

TEST(SlcaCommonTest, KeepSmallestDropsAncestorsAndDuplicates) {
  auto d = [](const char* s) { return xml::Dewey::Parse(s).value(); };
  std::vector<slca::SlcaResult> in = {
      {d("0.1"), 0}, {d("0.1.2"), 0}, {d("0.1.2"), 0}, {d("0.3"), 0},
      {d("0"), 0},
  };
  auto out = slca::KeepSmallest(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].dewey.ToString(), "0.1.2");
  EXPECT_EQ(out[1].dewey.ToString(), "0.3");
}

TEST(SlcaCommonTest, EmptySpanBehaviour) {
  PostingSpan span;
  EXPECT_TRUE(span.empty());
  xml::Dewey root({0});
  EXPECT_EQ(slca::LeftMatch(span, xml::DeweyRef(root)), -1);
  EXPECT_EQ(slca::RightMatch(span, xml::DeweyRef(root)), 0);
  EXPECT_EQ(slca::GallopLowerBound(span, 0, xml::DeweyRef(root)), 0u);
  EXPECT_TRUE(slca::KeepSmallest({}).empty());
}

// --- refine-input preparation ---------------------------------------------------

class PrepareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeFigure1Corpus();
    lexicon_ = text::Lexicon::BuiltIn();
    engine_ = std::make_unique<core::XRefine>(corpus_.index.get(),
                                              &lexicon_, core::XRefineOptions{});
  }

  testutil::Corpus corpus_;
  text::Lexicon lexicon_;
  std::unique_ptr<core::XRefine> engine_;
};

TEST_F(PrepareTest, KsContainsQueryAndRuleKeywords) {
  auto input = engine_->Prepare({"database", "publication"});
  // Query keyword present in the corpus is in KS...
  EXPECT_TRUE(input.universe.count("database") > 0);
  // ...the out-of-corpus keyword is not (it has no inverted list)...
  EXPECT_EQ(input.universe.count("publication"), 0u);
  // ...and synonym-rule RHS keywords are.
  EXPECT_TRUE(input.universe.count("article") > 0);
  EXPECT_TRUE(input.universe.count("inproceedings") > 0);
  // keywords and lists stay parallel.
  ASSERT_EQ(input.keywords.size(), input.lists.size());
  for (size_t i = 0; i < input.keywords.size(); ++i) {
    EXPECT_FALSE(input.lists[i].empty()) << input.keywords[i];
  }
}

TEST_F(PrepareTest, SearchForInferredFromQuery) {
  auto input = engine_->Prepare({"xml", "database"});
  ASSERT_FALSE(input.search_for.empty());
  // Candidates carry positive confidence, descending.
  for (size_t i = 0; i + 1 < input.search_for.size(); ++i) {
    EXPECT_GE(input.search_for[i].confidence,
              input.search_for[i + 1].confidence);
  }
  EXPECT_GT(input.search_for.back().confidence, 0.0);
}

TEST_F(PrepareTest, DuplicateQueryTermsCollapseInKs) {
  auto input = engine_->Prepare({"xml", "xml"});
  size_t xml_count = 0;
  for (const auto& k : input.keywords) {
    if (k == "xml") ++xml_count;
  }
  EXPECT_EQ(xml_count, 1u);
}

TEST_F(PrepareTest, RunTextTokenizes) {
  auto a = engine_->RunText("XML, Twig; PATTERN!");
  auto b = engine_->Run({"xml", "twig", "pattern"});
  ASSERT_EQ(a.refined.size(), b.refined.size());
  for (size_t i = 0; i < a.refined.size(); ++i) {
    EXPECT_EQ(core::QueryKey(a.refined[i].rq.keywords),
              core::QueryKey(b.refined[i].rq.keywords));
  }
}

TEST_F(PrepareTest, EmptyQueryIsHarmless) {
  auto outcome = engine_->Run({});
  EXPECT_TRUE(outcome.refined.empty());
  auto outcome2 = engine_->RunText("   ,,, ");
  EXPECT_TRUE(outcome2.refined.empty());
}

TEST_F(PrepareTest, AlgorithmNamesAreStable) {
  EXPECT_EQ(core::RefineAlgorithmName(core::RefineAlgorithm::kStackRefine),
            "stack-refine");
  EXPECT_EQ(core::RefineAlgorithmName(core::RefineAlgorithm::kPartition),
            "partition");
  EXPECT_EQ(core::RefineAlgorithmName(core::RefineAlgorithm::kShortListEager),
            "sle");
}

// --- built-in lexicon -----------------------------------------------------------

TEST(BuiltInLexiconTest, HasPaperRuleTableEntries) {
  auto lex = text::Lexicon::BuiltIn();
  // Table II flavour: r3 (article ~ inproceedings) and r6 (WWW expansion).
  bool r3 = false;
  for (const auto& s : lex.SynonymsOf("article")) {
    if (s.word == "inproceedings") r3 = true;
  }
  EXPECT_TRUE(r3);
  const auto* www = lex.ExpansionOf("www");
  ASSERT_NE(www, nullptr);
  EXPECT_EQ(*www, (std::vector<std::string>{"world", "wide", "web"}));
  EXPECT_GE(lex.synonym_group_count(), 10u);
  EXPECT_GE(lex.acronym_count(), 5u);
}

TEST(BuiltInLexiconTest, SynonymRelationIsSymmetric) {
  auto lex = text::Lexicon::BuiltIn();
  for (const char* word : {"database", "publication", "search", "query"}) {
    for (const auto& syn : lex.SynonymsOf(word)) {
      bool back = false;
      for (const auto& rev : lex.SynonymsOf(syn.word)) {
        if (rev.word == word) back = true;
      }
      EXPECT_TRUE(back) << word << " -> " << syn.word;
    }
  }
}

// --- posting span over real lists ------------------------------------------------

TEST(PostingSpanTest, ViewsMatchUnderlyingList) {
  auto corpus = MakeFigure1Corpus();
  const index::FlatPostingList* list = corpus.index->index().Find("xml");
  ASSERT_NE(list, nullptr);
  PostingSpan span(*list);
  ASSERT_EQ(span.size, list->size());
  for (size_t i = 0; i < span.size; ++i) {
    EXPECT_EQ(span.label(i).ToDewey(), list->DeweyAt(i));
    EXPECT_EQ(span.type(i), list->type(i));
  }
  PostingSpan sub = span.Sub(1, span.size - 1);
  EXPECT_EQ(sub.size, span.size - 1);
  EXPECT_EQ(sub.label(0).ToDewey(), list->DeweyAt(1));
  EXPECT_EQ(sub.type(0), list->type(1));
}

}  // namespace
}  // namespace xrefine

// --- parser depth guard & statistics invariants ---------------------------------

#include "workload/dblp_generator.h"
#include "xml/xml_parser.h"

namespace xrefine {
namespace {

TEST(ParserDepthGuardTest, RejectsPathologicalNesting) {
  // 1000 nested elements exceed the default max_depth of 512.
  std::string open;
  std::string close;
  for (int i = 0; i < 1000; ++i) {
    open += "<a>";
    close += "</a>";
  }
  auto doc = xml::ParseXml(open + close);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("max_depth"), std::string::npos);

  // A relaxed limit accepts the same document.
  xml::ParseOptions relaxed;
  relaxed.max_depth = 2000;
  EXPECT_TRUE(xml::ParseXml(open + close, relaxed).ok());

  // Depth just under the default limit parses fine.
  std::string ok_doc;
  for (int i = 0; i < 500; ++i) ok_doc += "<b>";
  for (int i = 0; i < 500; ++i) ok_doc += "</b>";
  EXPECT_TRUE(xml::ParseXml(ok_doc).ok());
}

TEST(StatisticsInvariantsTest, HoldOnGeneratedCorpus) {
  workload::DblpOptions gen;
  gen.num_authors = 50;
  auto doc = workload::GenerateDblp(gen);
  auto corpus = index::BuildIndex(doc);
  const auto& stats = corpus->stats();

  std::unordered_map<xml::TypeId, uint32_t> recomputed_g;
  for (const auto& [keyword, per_type] : stats.per_keyword()) {
    for (const auto& [type, kt] : per_type) {
      // A keyword cannot be contained by more T-subtrees than exist.
      EXPECT_LE(kt.df, stats.node_count(type))
          << keyword << " @ " << corpus->types().path(type);
      // Each containing subtree holds at least one occurrence.
      EXPECT_GE(kt.tf, kt.df);
      if (kt.df > 0) ++recomputed_g[type];
    }
  }
  // G_T equals the number of keywords with positive df at T.
  for (const auto& [type, g] : recomputed_g) {
    EXPECT_EQ(stats.distinct_keywords(type), g)
        << corpus->types().path(type);
  }
  // Root subtree stats cover the whole corpus.
  xml::TypeId root_type = corpus->types().Lookup("bib");
  ASSERT_NE(root_type, xml::kInvalidTypeId);
  EXPECT_EQ(stats.distinct_keywords(root_type),
            corpus->index().keyword_count());
  for (const auto& [keyword, list] : corpus->index().lists()) {
    EXPECT_EQ(stats.df(keyword, root_type), 1u) << keyword;
  }
}

}  // namespace
}  // namespace xrefine
