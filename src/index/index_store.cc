#include "index/index_store.h"

#include <map>

#include "index/bloom.h"
#include "index/posting_blocks.h"
#include "storage/serde.h"

namespace xrefine::index {

namespace {

using storage::GetVarint32;
using storage::GetVarint64;
using storage::PutLengthPrefixed;
using storage::PutVarint32;
using storage::PutVarint64;

constexpr char kTypesKey[] = "m\0types";
constexpr char kTypeStatsKey[] = "m\0typestats";
constexpr char kBloomKey[] = "m\0bloom";

// Meta keys contain an embedded NUL, so their length must come from the
// array literal (everything but the trailing NUL) — never from strlen or a
// hand-counted constant, which would silently truncate the key at the "m".
template <size_t N>
std::string MetaKey(const char (&literal)[N]) {
  static_assert(N > 1, "meta key literal must be non-empty");
  return std::string(literal, N - 1);
}

std::string EncodeTypes(const xml::NodeTypeTable& types) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(types.size()));
  for (xml::TypeId id = 0; id < types.size(); ++id) {
    // parent+1 so the invalid sentinel encodes as 0.
    uint32_t parent = types.parent(id);
    PutVarint32(&out, parent == xml::kInvalidTypeId ? 0 : parent + 1);
    PutLengthPrefixed(&out, types.tag(id));
  }
  return out;
}

Status DecodeTypes(std::string_view data, xml::NodeTypeTable* types) {
  const char* p = data.data();
  const char* limit = data.data() + data.size();
  uint32_t count = 0;
  if (!GetVarint32(&p, limit, &count)) {
    return Status::Corruption("types: bad count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t parent_plus1 = 0;
    std::string_view tag;
    if (!GetVarint32(&p, limit, &parent_plus1) ||
        !storage::GetLengthPrefixed(&p, limit, &tag)) {
      return Status::Corruption("types: truncated entry");
    }
    xml::TypeId parent =
        parent_plus1 == 0 ? xml::kInvalidTypeId : parent_plus1 - 1;
    // Entries are written in interning order, so a valid parent always
    // precedes its children. Intern() indexes its entry table by `parent`
    // (DCHECK-guarded only), so an unchecked hostile id would be an
    // out-of-bounds read in release builds.
    if (parent != xml::kInvalidTypeId && parent >= i) {
      return Status::Corruption("types: entry " + std::to_string(i) +
                                " references parent " +
                                std::to_string(parent) +
                                " at or after itself");
    }
    xml::TypeId id = types->Intern(parent, tag);
    if (id != i) {
      return Status::Corruption("types: interning order mismatch");
    }
  }
  return Status::OK();
}

std::string EncodeTypeStats(const StatisticsTable& stats, size_t type_count) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(type_count));
  for (xml::TypeId id = 0; id < type_count; ++id) {
    PutVarint32(&out, stats.node_count(id));
    PutVarint32(&out, stats.distinct_keywords(id));
  }
  return out;
}

Status DecodeTypeStats(std::string_view data, StatisticsTable* stats) {
  const char* p = data.data();
  const char* limit = data.data() + data.size();
  uint32_t count = 0;
  if (!GetVarint32(&p, limit, &count)) {
    return Status::Corruption("typestats: bad count");
  }
  for (uint32_t id = 0; id < count; ++id) {
    uint32_t n = 0;
    uint32_t g = 0;
    if (!GetVarint32(&p, limit, &n) || !GetVarint32(&p, limit, &g)) {
      return Status::Corruption("typestats: truncated entry");
    }
    if (n > 0) stats->SetNodeCount(id, n);
    if (g > 0) stats->SetDistinctCount(id, g);
  }
  return Status::OK();
}

}  // namespace

std::string InvertedListKey(std::string_view keyword) {
  std::string key = "i";
  key.push_back('\0');
  key += keyword;
  return key;
}

std::string FreqRowKey(std::string_view keyword) {
  std::string key = "f";
  key.push_back('\0');
  key += keyword;
  return key;
}

std::string BloomMetaKey() { return MetaKey(kBloomKey); }

namespace {

std::string EncodeFreqRow(const StatisticsTable::PerTypeStats& row) {
  // Deterministic output: sort by type id.
  std::map<xml::TypeId, KeywordTypeStats> sorted(row.begin(), row.end());
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(sorted.size()));
  for (const auto& [type, stats] : sorted) {
    PutVarint32(&out, type);
    PutVarint32(&out, stats.df);
    PutVarint64(&out, stats.tf);
  }
  return out;
}

Status DecodeFreqRow(std::string_view data, const std::string& keyword,
                     size_t type_count, StatisticsTable* stats) {
  const char* p = data.data();
  const char* limit = data.data() + data.size();
  uint32_t count = 0;
  if (!GetVarint32(&p, limit, &count)) {
    return Status::Corruption("freq row: bad count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t type = 0;
    uint32_t df = 0;
    uint64_t tf = 0;
    if (!GetVarint32(&p, limit, &type) || !GetVarint32(&p, limit, &df) ||
        !GetVarint64(&p, limit, &tf)) {
      return Status::Corruption("freq row: truncated entry");
    }
    // Search-for inference indexes the type table by these ids.
    if (type >= type_count) {
      return Status::Corruption("freq row: type id " + std::to_string(type) +
                                " out of range (" + std::to_string(type_count) +
                                " types)");
    }
    if (df > 0) stats->AddDocumentFrequency(keyword, type, df);
    if (tf > 0) stats->AddTermFrequency(keyword, type, tf);
  }
  return Status::OK();
}

constexpr char kCooccurKey[] = "m\0cooccur";

std::string EncodeCooccurCache(const CooccurrenceTable& cooc) {
  auto pairs = cooc.ExportPairs();
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(pairs.size()));
  for (const auto& p : pairs) {
    PutLengthPrefixed(&out, p.k1);
    PutLengthPrefixed(&out, p.k2);
    PutVarint32(&out, p.type);
    PutVarint32(&out, p.count);
  }
  return out;
}

Status DecodeCooccurCache(std::string_view data, CooccurrenceTable* cooc) {
  const char* p = data.data();
  const char* limit = data.data() + data.size();
  uint32_t count = 0;
  if (!GetVarint32(&p, limit, &count)) {
    return Status::Corruption("cooccur: bad count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view k1;
    std::string_view k2;
    uint32_t type = 0;
    uint32_t pair_count = 0;
    if (!storage::GetLengthPrefixed(&p, limit, &k1) ||
        !storage::GetLengthPrefixed(&p, limit, &k2) ||
        !GetVarint32(&p, limit, &type) ||
        !GetVarint32(&p, limit, &pair_count)) {
      return Status::Corruption("cooccur: truncated entry");
    }
    cooc->ImportPair(CooccurrenceTable::ExportedPair{
        std::string(k1), std::string(k2), type, pair_count});
  }
  return Status::OK();
}

// Collects every key in the two-byte `prefix` keyspace whose keyword is
// rejected by `is_live`, then deletes them. Deletions happen after the scan
// completes: a cursor must not race the tree mutations it triggers.
template <typename IsLive>
Status DeleteStaleKeys(storage::KVStore* store, std::string_view prefix,
                       IsLive is_live) {
  std::vector<std::string> stale;
  auto cursor = store->NewCursor();
  for (cursor.Seek(prefix); cursor.Valid(); cursor.Next()) {
    std::string_view key = cursor.key();
    if (key.substr(0, 2) != prefix) break;
    if (!is_live(key.substr(2))) stale.emplace_back(key);
  }
  XREFINE_RETURN_IF_ERROR(cursor.status());
  for (const std::string& key : stale) {
    XREFINE_RETURN_IF_ERROR(store->Delete(key));
  }
  return Status::OK();
}

}  // namespace

Status SaveCorpus(const IndexedCorpus& corpus, storage::KVStore* store) {
  // Saving over a previously saved, larger corpus must not leave stale
  // inverted lists or frequent-table rows behind: a reload would resurrect
  // keywords the new corpus never contained.
  XREFINE_RETURN_IF_ERROR(DeleteStaleKeys(
      store, InvertedListKey(""), [&corpus](std::string_view keyword) {
        return corpus.index().Find(keyword) != nullptr;
      }));
  XREFINE_RETURN_IF_ERROR(DeleteStaleKeys(
      store, FreqRowKey(""), [&corpus](std::string_view keyword) {
        return corpus.stats().TypeStatsFor(keyword) != nullptr;
      }));
  XREFINE_RETURN_IF_ERROR(
      store->Put(MetaKey(kTypesKey), EncodeTypes(corpus.types())));
  XREFINE_RETURN_IF_ERROR(
      store->Put(MetaKey(kTypeStatsKey),
                 EncodeTypeStats(corpus.stats(), corpus.types().size())));
  for (const auto& [keyword, list] : corpus.index().lists()) {
    XREFINE_RETURN_IF_ERROR(
        store->Put(InvertedListKey(keyword), EncodePostings(list)));
  }
  for (const auto& [keyword, row] : corpus.stats().per_keyword()) {
    XREFINE_RETURN_IF_ERROR(
        store->Put(FreqRowKey(keyword), EncodeFreqRow(row)));
  }
  // Persist whatever co-occurrence entries have been computed so far; a
  // warmed cache survives restarts (the paper's co-occur frequency table).
  XREFINE_RETURN_IF_ERROR(store->Put(MetaKey(kCooccurKey),
                                     EncodeCooccurCache(corpus.cooccurrence())));
  // Vocabulary Bloom filter: lets a lazy-vocabulary source skip both the
  // open-time head scan and the B+-tree descent on every definite miss.
  BloomFilter bloom =
      BloomFilter::ForExpectedKeys(corpus.index().keyword_count());
  corpus.index().ForEachKeyword(
      [&bloom](std::string_view keyword) { bloom.Insert(keyword); });
  XREFINE_RETURN_IF_ERROR(store->Put(MetaKey(kBloomKey), bloom.Encode()));
  return store->Flush();
}

Status LoadCorpusMetadata(const storage::KVStore& store,
                          xml::NodeTypeTable* types, StatisticsTable* stats,
                          CooccurrenceTable* cooccurrence) {
  auto types_or = store.Get(MetaKey(kTypesKey));
  if (!types_or.ok()) return types_or.status();
  XREFINE_RETURN_IF_ERROR(DecodeTypes(types_or.value(), types));

  auto stats_or = store.Get(MetaKey(kTypeStatsKey));
  if (!stats_or.ok()) return stats_or.status();
  XREFINE_RETURN_IF_ERROR(DecodeTypeStats(stats_or.value(), stats));

  // The co-occurrence cache entry is optional (stores persisted before the
  // cache was warmed simply lack it), so NotFound is fine — but any other
  // failure (Corruption, IoError) must propagate rather than silently
  // yielding a corpus with a cold cache over a damaged store.
  auto cooccur_or = store.Get(MetaKey(kCooccurKey));
  if (cooccur_or.ok()) {
    XREFINE_RETURN_IF_ERROR(
        DecodeCooccurCache(cooccur_or.value(), cooccurrence));
  } else if (!cooccur_or.status().IsNotFound()) {
    return cooccur_or.status();
  }

  std::string freq_prefix = FreqRowKey("");
  auto fcursor = store.NewCursor();
  for (fcursor.Seek(freq_prefix); fcursor.Valid(); fcursor.Next()) {
    std::string_view key = fcursor.key();
    if (key.substr(0, 2) != std::string_view(freq_prefix)) break;
    std::string keyword(key.substr(2));
    std::string value = fcursor.value();
    XREFINE_RETURN_IF_ERROR(
        DecodeFreqRow(value, keyword, types->size(), stats));
  }
  return fcursor.status();
}

StatusOr<std::unique_ptr<IndexedCorpus>> LoadCorpus(
    const storage::KVStore& store) {
  auto corpus = std::make_unique<IndexedCorpus>();
  XREFINE_RETURN_IF_ERROR(
      LoadCorpusMetadata(store, &corpus->mutable_types(),
                         &corpus->mutable_stats(), &corpus->cooccurrence()));

  std::string inverted_prefix = InvertedListKey("");
  auto cursor = store.NewCursor();
  for (cursor.Seek(inverted_prefix); cursor.Valid(); cursor.Next()) {
    std::string_view key = cursor.key();
    if (key.substr(0, 2) != std::string_view(inverted_prefix)) break;
    std::string value = cursor.value();
    XREFINE_RETURN_IF_ERROR(DecodePostingsFlat(
        value, corpus->types().size(),
        corpus->mutable_index().MutableList(key.substr(2))));
  }
  // Valid() going false means either "past the last key" or "a page fetch
  // failed mid-scan"; only the cursor's sticky status tells them apart.
  // Without this check a mid-scan IO error would silently yield a
  // truncated corpus.
  XREFINE_RETURN_IF_ERROR(cursor.status());
  corpus->mutable_index().ShrinkToFit();
  return corpus;
}

}  // namespace xrefine::index
