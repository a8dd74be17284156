// Shared fixtures: the paper's Figure 1 document and helpers.
#ifndef XREFINE_TESTS_TEST_HELPERS_H_
#define XREFINE_TESTS_TEST_HELPERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/index_builder.h"
#include "index/index_store.h"
#include "index/posting_blocks.h"
#include "storage/kvstore.h"
#include "storage/serde.h"
#include "xml/document.h"
#include "xml/xml_parser.h"

namespace xrefine::testutil {

// The running example of the paper (Figure 1), abridged: two authors, the
// first with an inproceedings and an article, the second with publications
// and a hobby.
inline constexpr const char* kFigure1Xml = R"(
<bib>
  <author>
    <name>John Martin</name>
    <publications>
      <inproceedings>
        <title>efficient XML keyword search on online database</title>
        <year>2003</year>
        <booktitle>sigmod</booktitle>
      </inproceedings>
      <article>
        <title>XML twig pattern matching</title>
        <year>2005</year>
        <journal>vldb</journal>
      </article>
    </publications>
  </author>
  <author>
    <name>Mary Smith</name>
    <publications>
      <inproceedings>
        <title>skyline computation over data stream</title>
        <year>2006</year>
        <booktitle>icde</booktitle>
      </inproceedings>
      <article>
        <title>machine learning for world wide web search</title>
        <year>2004</year>
        <journal>kdd</journal>
      </article>
    </publications>
    <hobby>tennis</hobby>
  </author>
</bib>
)";

inline xml::Document ParseFigure1() {
  auto doc = xml::ParseXml(kFigure1Xml);
  if (!doc.ok()) std::abort();
  return std::move(doc).value();
}

/// A document plus its index, tied together for lifetime safety.
struct Corpus {
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<index::IndexedCorpus> index;
};

inline Corpus MakeCorpus(const std::string& xml_text) {
  Corpus c;
  auto doc = xml::ParseXml(xml_text);
  if (!doc.ok()) std::abort();
  c.doc = std::make_unique<xml::Document>(std::move(doc).value());
  c.index = index::BuildIndex(*c.doc);
  return c;
}

inline Corpus MakeFigure1Corpus() { return MakeCorpus(kFigure1Xml); }

/// Stores the query path must refuse or survive, each one record away from
/// the corpus "<x><y><z>x y</z></y></x>" (types x, x/y, x/y/z; vocabulary
/// x, y, z, so "x" and "y" are its first two keywords).
enum class BadStore {
  /// x and y each hold one posting labelled 0.4294967295.0: valid, but a
  /// partition bound built by incrementing the last depth-2 component
  /// wraps to 0.
  kUint32MaxLabel,
  /// x's posting has type id 3, one past the store's three types.
  kPostingTypeOutOfRange,
  /// x's frequency row (the `f\0x` record) names type id 3.
  kFreqRowTypeOutOfRange,
  /// x's posting has the empty (depth-0) label.
  kEmptyLabel,
};

/// Saves the corpus above into `store` and overwrites the record `kind`
/// names.
inline Status WriteBadStore(BadStore kind, storage::KVStore* store) {
  Corpus corpus = MakeCorpus("<x><y><z>x y</z></y></x>");
  XREFINE_RETURN_IF_ERROR(index::SaveCorpus(*corpus.index, store));
  const auto list = [](std::vector<uint32_t> label, xml::TypeId type) {
    index::FlatPostingList postings;
    postings.Append(xml::Dewey(std::move(label)), type);
    return index::EncodePostings(postings);
  };
  switch (kind) {
    case BadStore::kUint32MaxLabel:
      XREFINE_RETURN_IF_ERROR(store->Put(index::InvertedListKey("x"),
                                         list({0, UINT32_MAX, 0}, 2)));
      return store->Put(index::InvertedListKey("y"),
                        list({0, UINT32_MAX, 0}, 2));
    case BadStore::kPostingTypeOutOfRange:
      return store->Put(index::InvertedListKey("x"), list({0, 0, 0}, 3));
    case BadStore::kFreqRowTypeOutOfRange: {
      std::string row;  // one entry: type 3, df 1, tf 1
      storage::PutVarint32(&row, 1);
      storage::PutVarint32(&row, 3);
      storage::PutVarint32(&row, 1);
      storage::PutVarint64(&row, 1);
      return store->Put(index::FreqRowKey("x"), row);
    }
    case BadStore::kEmptyLabel:
      return store->Put(index::InvertedListKey("x"), list({}, 0));
  }
  return Status::OK();
}

/// All Dewey labels of `results`, as strings, for compact assertions.
template <typename Results>
std::vector<std::string> DeweyStrings(const Results& results) {
  std::vector<std::string> out;
  for (const auto& r : results) out.push_back(r.dewey.ToString());
  return out;
}

}  // namespace xrefine::testutil

#endif  // XREFINE_TESTS_TEST_HELPERS_H_
