// Tests for store-backed query serving (StoreBackedIndexSource) and the
// load-path hardening that came with it: decode clamps on corrupt records,
// sticky cursor errors instead of silent truncation, stale-key clearing on
// re-save, and the posting-list cache's concurrency contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/xrefine.h"
#include "index/index_store.h"
#include "index/posting_blocks.h"
#include "index/store_index_source.h"
#include "slca/slca.h"
#include "storage/kvstore.h"
#include "storage/pager.h"
#include "tests/test_helpers.h"
#include "text/lexicon.h"

namespace xrefine::index {
namespace {

using testutil::MakeCorpus;
using testutil::MakeFigure1Corpus;

// Saves the Figure 1 corpus into a fresh in-memory store.
std::unique_ptr<storage::KVStore> SavedStore(const IndexedCorpus& corpus) {
  auto store_or = storage::KVStore::Open("");
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  EXPECT_TRUE(SaveCorpus(corpus, store.get()).ok());
  return store;
}

// --- the store-backed source ------------------------------------------------

TEST(StoreSourceTest, OpenLoadsVocabularyWithoutLists) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(source_or.ok()) << source_or.status();
  auto& source = *source_or.value();

  EXPECT_EQ(source.keyword_count(), corpus.index->index().keyword_count());
  EXPECT_EQ(source.Vocabulary(), corpus.index->index().Vocabulary());
  EXPECT_TRUE(source.Contains("xml"));
  EXPECT_FALSE(source.Contains("nonexistent"));
  EXPECT_EQ(source.ListSize("xml"), corpus.index->index().ListSize("xml"));
  // Nothing has been fetched yet: opening reads only record heads.
  EXPECT_EQ(source.cached_lists(), 0u);
  EXPECT_EQ(source.cached_bytes(), 0u);
}

TEST(StoreSourceTest, FetchListMatchesInMemoryAndCaches) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(source_or.ok());
  auto& source = *source_or.value();

  auto& hits = *metrics::Registry::Global().counter("index.cache_hits");
  auto& misses = *metrics::Registry::Global().counter("index.cache_misses");
  uint64_t hits_before = hits.value();
  uint64_t misses_before = misses.value();

  auto handle_or = source.FetchList("xml");
  ASSERT_TRUE(handle_or.ok());
  PostingListHandle handle = std::move(handle_or).value();
  ASSERT_TRUE(handle);
  const FlatPostingList* expected = corpus.index->index().Find("xml");
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(*handle, *expected);
  EXPECT_EQ(source.cached_lists(), 1u);
  EXPECT_EQ(misses.value(), misses_before + 1);

  // Second fetch is a hit on the same decoded list.
  auto again_or = source.FetchList("xml");
  ASSERT_TRUE(again_or.ok());
  EXPECT_EQ(again_or.value().get(), handle.get());
  EXPECT_EQ(hits.value(), hits_before + 1);

  // Absent keyword: OK with a null handle, never an error.
  auto absent_or = source.FetchList("nonexistent");
  ASSERT_TRUE(absent_or.ok());
  EXPECT_FALSE(absent_or.value());
}

TEST(StoreSourceTest, CacheEvictsUnderBudgetButPinsSurvive) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  StoreIndexSourceOptions options;
  options.cache_capacity_bytes = 1;  // evict after every insert
  auto source_or = StoreBackedIndexSource::Open(store.get(), options);
  ASSERT_TRUE(source_or.ok());
  auto& source = *source_or.value();

  auto xml_or = source.FetchList("xml");
  ASSERT_TRUE(xml_or.ok());
  PostingListHandle pin = std::move(xml_or).value();
  // The newest entry is never evicted, so "xml" is resident...
  EXPECT_EQ(source.cached_lists(), 1u);
  // ...until the next insert displaces it.
  ASSERT_TRUE(source.FetchList("skyline").ok());
  EXPECT_EQ(source.cached_lists(), 1u);
  // The pinned list stays valid after its eviction.
  const FlatPostingList* expected = corpus.index->index().Find("xml");
  EXPECT_EQ(*pin, *expected);
}

// End-to-end equivalence: the engine must refine identically whether it
// serves from RAM or through the store.
TEST(StoreSourceTest, EngineAnswersMatchInMemoryCorpus) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(source_or.ok());
  auto lexicon = text::Lexicon::BuiltIn();

  core::XRefine memory_engine(corpus.index.get(), &lexicon);
  core::XRefine store_engine(source_or.value().get(), &lexicon);

  for (const core::Query& q :
       {core::Query{"databse", "xml"}, core::Query{"skyline", "stream"},
        core::Query{"machne", "learning"}}) {
    auto from_memory = memory_engine.Run(q);
    auto from_store = store_engine.Run(q);
    ASSERT_TRUE(from_store.status.ok());
    ASSERT_EQ(from_memory.refined.size(), from_store.refined.size());
    for (size_t i = 0; i < from_memory.refined.size(); ++i) {
      EXPECT_EQ(from_memory.refined[i].rq.keywords,
                from_store.refined[i].rq.keywords);
      EXPECT_EQ(testutil::DeweyStrings(from_memory.refined[i].results),
                testutil::DeweyStrings(from_store.refined[i].results));
    }
  }
}

TEST(StoreSourceTest, SlcaOverStoreMatchesInMemory) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(source_or.ok());

  std::vector<std::string> q = {"xml", "database"};
  auto in_memory_or = slca::ComputeSlcaForQuery(
      q, *corpus.index, corpus.index->types(),
      slca::SlcaAlgorithm::kScanEager);
  auto from_store_or = slca::ComputeSlcaForQuery(
      q, *source_or.value(), source_or.value()->types(),
      slca::SlcaAlgorithm::kScanEager);
  ASSERT_TRUE(in_memory_or.ok());
  ASSERT_TRUE(from_store_or.ok());
  EXPECT_EQ(testutil::DeweyStrings(in_memory_or.value()),
            testutil::DeweyStrings(from_store_or.value()));
}

// A read failure during a query surfaces as a Status on the outcome, not a
// crash, truncated answer, or silently empty result.
TEST(StoreSourceTest, ReadFailureDuringFetchSurfacesAsStatus) {
  std::string path = ::testing::TempDir() + "/store_source_readfail.db";
  std::remove(path.c_str());
  // Big enough that the store spans many more pages than the buffer pool;
  // otherwise every fetch is a pool hit and the injection never lands.
  std::string xml = "<bib>";
  for (int i = 0; i < 1500; ++i) {
    xml += "<item><title>entry" + std::to_string(i) + "</title></item>";
  }
  xml += "</bib>";
  auto corpus = MakeCorpus(xml);
  {
    auto store_or = storage::KVStore::Open(path);
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE(SaveCorpus(*corpus.index, store_or.value().get()).ok());
  }
  storage::PagerOptions pager_options;
  pager_options.max_cached_pages = 16;  // cold reads stay cold
  auto store_or = storage::KVStore::Open(path, pager_options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(source_or.ok());
  auto& source = *source_or.value();

  // The vocabulary scan at Open ended on the LAST inverted-list pages, so
  // the lexicographically first keyword's leaf has been evicted from the
  // small pool — fetching it must read the file, where the fault waits.
  const std::string coldest = source.Vocabulary().front();
  store->mutable_pager()->SimulateReadFailuresForTesting(0);  // fail all
  auto handle_or = source.FetchList(coldest);
  EXPECT_FALSE(handle_or.ok());
  store->mutable_pager()->SimulateReadFailuresForTesting(-1);  // heal
  auto healed_or = source.FetchList(coldest);
  ASSERT_TRUE(healed_or.ok());
  EXPECT_TRUE(healed_or.value());
  std::remove(path.c_str());
}

// --- satellite 1: decode clamps --------------------------------------------

TEST(StoreSourceTest, DecodeRejectsHostilePostingCount) {
  auto corpus = MakeFigure1Corpus();
  const FlatPostingList* list = corpus.index->index().Find("xml");
  ASSERT_NE(list, nullptr);
  std::string record = EncodePostings(*list);

  // Splice a huge count varint after the version byte: decode must reject
  // it against the remaining bytes instead of reserving gigabytes.
  std::string hostile;
  hostile.push_back(record[0]);
  for (uint32_t v = 0xffffffff; v >= 0x80; v >>= 7) {
    hostile.push_back(static_cast<char>(0x80 | (v & 0x7f)));
  }
  hostile.push_back(0x0f);
  hostile += record.substr(1);
  FlatPostingList decoded;
  auto st = DecodePostingsFlat(hostile, corpus.index->types().size(),
                                &decoded);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCorruption()) << st;
}

// Every decode is counted where the one decoder runs: a store-backed miss
// moves index.list_fetches by one and index.bytes_decoded by the record's
// size, and a cache hit moves neither.
TEST(StoreSourceTest, DecodeCountersTrackMissesNotHits) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(source_or.ok());
  auto& source = *source_or.value();
  auto record_or = store->Get(InvertedListKey("xml"));
  ASSERT_TRUE(record_or.ok());
  const uint64_t record_bytes = record_or.value().size();

  auto& fetches = *metrics::Registry::Global().counter("index.list_fetches");
  auto& bytes = *metrics::Registry::Global().counter("index.bytes_decoded");
  const uint64_t fetches_before = fetches.value();
  const uint64_t bytes_before = bytes.value();

  ASSERT_TRUE(source.FetchList("xml").ok());  // miss: decoded once
  EXPECT_EQ(fetches.value(), fetches_before + 1);
  EXPECT_EQ(bytes.value(), bytes_before + record_bytes);

  ASSERT_TRUE(source.FetchList("xml").ok());  // hit: no decode
  EXPECT_EQ(fetches.value(), fetches_before + 1);
  EXPECT_EQ(bytes.value(), bytes_before + record_bytes);
}

// --- satellite 3: re-save clears stale keys ---------------------------------

TEST(StoreSourceTest, SavingSmallerCorpusClearsStaleKeywords) {
  auto big = MakeFigure1Corpus();
  auto small = MakeCorpus("<bib><title>solo entry</title></bib>");
  ASSERT_TRUE(big.index->index().Contains("skyline"));
  ASSERT_FALSE(small.index->index().Contains("skyline"));

  auto store_or = storage::KVStore::Open("");
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  ASSERT_TRUE(SaveCorpus(*big.index, store.get()).ok());
  ASSERT_TRUE(SaveCorpus(*small.index, store.get()).ok());

  // A reload sees exactly the smaller corpus: no resurrected keywords.
  auto loaded_or = LoadCorpus(*store);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  auto& loaded = *loaded_or.value();
  EXPECT_EQ(loaded.index().keyword_count(),
            small.index->index().keyword_count());
  EXPECT_FALSE(loaded.index().Contains("skyline"));
  EXPECT_TRUE(loaded.index().Contains("solo"));

  // And the store itself holds no stale inverted-list or freq-row records.
  EXPECT_FALSE(store->Get(InvertedListKey("skyline")).ok());
  EXPECT_FALSE(store->Get(FreqRowKey("skyline")).ok());
}

// --- satellite 5: posting-list cache under concurrency ----------------------

// Hammers one store-backed source from many threads over overlapping and
// disjoint keywords with a tiny cache (constant eviction) and a tiny buffer
// pool (constant page re-reads). Functional assertions here; the real teeth
// come from TSan (tools/check_build_matrix.sh runs this config).
TEST(StoreSourceTest, ConcurrentFetchesAreCoherent) {
  std::string path = ::testing::TempDir() + "/store_source_concurrent.db";
  std::remove(path.c_str());
  auto corpus = MakeFigure1Corpus();
  {
    auto store_or = storage::KVStore::Open(path);
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE(SaveCorpus(*corpus.index, store_or.value().get()).ok());
  }
  storage::PagerOptions pager_options;
  pager_options.max_cached_pages = 16;
  auto store_or = storage::KVStore::Open(path, pager_options);
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  StoreIndexSourceOptions options;
  options.cache_capacity_bytes = 512;  // a handful of lists at most
  auto source_or = StoreBackedIndexSource::Open(store.get(), options);
  ASSERT_TRUE(source_or.ok());
  auto& source = *source_or.value();

  std::vector<std::string> vocab = source.Vocabulary();
  ASSERT_GE(vocab.size(), 8u);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        // Mix a per-thread slice (disjoint) with the shared hot word.
        const std::string& kw =
            (i % 3 == 0) ? vocab[static_cast<size_t>(t) % vocab.size()]
                         : "xml";
        auto handle_or = source.FetchList(kw);
        if (!handle_or.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        PostingListHandle handle = std::move(handle_or).value();
        const FlatPostingList* expected = corpus.index->index().Find(kw);
        if (!handle || expected == nullptr || *handle != *expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  std::remove(path.c_str());
}

// --- TinyLFU admission ------------------------------------------------------

// A corpus of many one-posting keywords with identical list shapes, so
// every cached list costs the same resident bytes and the cache arithmetic
// below is exact.
std::string UniformCorpusXml(int n) {
  std::string xml = "<bib>";
  for (int i = 0; i < n; ++i) {
    char word[8];
    std::snprintf(word, sizeof word, "w%03d", i);
    xml += std::string("<item>") + word + "</item>";
  }
  xml += "</bib>";
  return xml;
}

// One list's resident cost, measured on a throwaway default source.
size_t MeasureListBytes(const storage::KVStore* store) {
  auto probe_or = StoreBackedIndexSource::Open(store);
  EXPECT_TRUE(probe_or.ok());
  EXPECT_TRUE(probe_or.value()->FetchList("w000").ok());
  return probe_or.value()->cached_bytes();
}

// The headline admission property: a one-pass cold scan cannot flush the
// hot working set, because each cold candidate (sketch frequency 1) loses
// the admission duel against the hot victims it would displace. The same
// trace under plain LRU flushes every hot list.
TEST(StoreSourceTest, AdmissionKeepsHotSetThroughColdScan) {
  auto corpus = MakeCorpus(UniformCorpusXml(160));
  auto store = SavedStore(*corpus.index);
  size_t list_bytes = MeasureListBytes(store.get());
  ASSERT_GT(list_bytes, 0u);

  const std::vector<std::string> hot = {"w000", "w001", "w002", "w003"};
  StoreIndexSourceOptions options;
  options.cache_capacity_bytes = hot.size() * list_bytes;

  auto& rejected = *metrics::Registry::Global().counter("index.cache_reject");

  auto run_trace = [&](StoreBackedIndexSource& source) {
    for (int round = 0; round < 5; ++round) {
      for (const std::string& kw : hot) {
        ASSERT_TRUE(source.FetchList(kw).ok());
      }
    }
    for (int i = 10; i < 160; ++i) {
      char word[8];
      std::snprintf(word, sizeof word, "w%03d", i);
      auto handle_or = source.FetchList(word);
      ASSERT_TRUE(handle_or.ok());
      // Rejected or not, the caller is always served the real list.
      ASSERT_TRUE(handle_or.value());
      EXPECT_EQ(*handle_or.value(), *corpus.index->index().Find(word));
    }
  };

  {
    auto source_or = StoreBackedIndexSource::Open(store.get(), options);
    ASSERT_TRUE(source_or.ok());
    uint64_t rejected_before = rejected.value();
    run_trace(*source_or.value());
    for (const std::string& kw : hot) {
      EXPECT_TRUE(source_or.value()->IsCachedForTesting(kw)) << kw;
    }
    EXPECT_GT(rejected.value(), rejected_before);
  }

  {
    options.cache_admission = false;  // pre-admission behavior: plain LRU
    auto source_or = StoreBackedIndexSource::Open(store.get(), options);
    ASSERT_TRUE(source_or.ok());
    run_trace(*source_or.value());
    for (const std::string& kw : hot) {
      EXPECT_FALSE(source_or.value()->IsCachedForTesting(kw)) << kw;
    }
  }
}

// Admission is frequency-based, not a lockout: a key demanded often enough
// overtakes the residents' sketch counts and wins a slot from the coldest
// of them.
TEST(StoreSourceTest, RepeatedRequestsEventuallyAdmitOverColderVictims) {
  auto corpus = MakeCorpus(UniformCorpusXml(20));
  auto store = SavedStore(*corpus.index);
  size_t list_bytes = MeasureListBytes(store.get());
  ASSERT_GT(list_bytes, 0u);

  const std::vector<std::string> hot = {"w000", "w001", "w002", "w003"};
  StoreIndexSourceOptions options;
  options.cache_capacity_bytes = hot.size() * list_bytes;
  auto source_or = StoreBackedIndexSource::Open(store.get(), options);
  ASSERT_TRUE(source_or.ok());
  auto& source = *source_or.value();

  for (int round = 0; round < 3; ++round) {
    for (const std::string& kw : hot) ASSERT_TRUE(source.FetchList(kw).ok());
  }

  auto& admitted = *metrics::Registry::Global().counter("index.cache_admit");
  uint64_t admitted_before = admitted.value();
  bool cached = false;
  int fetches = 0;
  while (!cached && fetches < 10) {
    ASSERT_TRUE(source.FetchList("w010").ok());
    ++fetches;
    cached = source.IsCachedForTesting("w010");
  }
  EXPECT_TRUE(cached);
  // Its frequency had to climb past the residents' first: admission was
  // earned on a later request, not granted on the first miss.
  EXPECT_GT(fetches, 1);
  EXPECT_GT(admitted.value(), admitted_before);
  // Only the coldest resident was displaced for it.
  EXPECT_TRUE(source.IsCachedForTesting("w003"));
}

// A first-touch key loses the sketch duel against a warmed hot set
// (frequency 1 vs 5): it is served, but not cached.
TEST(StoreSourceTest, FirstTouchKeyIsServedButNotCachedUnderWarmHotSet) {
  auto corpus = MakeCorpus(UniformCorpusXml(40));
  auto store = SavedStore(*corpus.index);
  size_t list_bytes = MeasureListBytes(store.get());
  ASSERT_GT(list_bytes, 0u);

  const std::vector<std::string> hot = {"w000", "w001", "w002", "w003"};
  StoreIndexSourceOptions options;
  options.cache_capacity_bytes = hot.size() * list_bytes;
  auto source_or = StoreBackedIndexSource::Open(store.get(), options);
  ASSERT_TRUE(source_or.ok());
  auto& source = *source_or.value();
  for (int round = 0; round < 5; ++round) {
    for (const std::string& kw : hot) ASSERT_TRUE(source.FetchList(kw).ok());
  }

  auto handle_or = source.FetchList("w010");
  ASSERT_TRUE(handle_or.ok());
  ASSERT_TRUE(handle_or.value());
  EXPECT_EQ(*handle_or.value(), *corpus.index->index().Find("w010"));
  EXPECT_FALSE(source.IsCachedForTesting("w010"));
  for (const std::string& kw : hot) {
    EXPECT_TRUE(source.IsCachedForTesting(kw)) << kw;
  }
}

// --- lazy vocabulary (persisted Bloom filter) -------------------------------

TEST(StoreSourceTest, LazyVocabularyMatchesEagerAnswers) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  StoreIndexSourceOptions options;
  options.lazy_vocabulary = true;
  auto source_or = StoreBackedIndexSource::Open(store.get(), options);
  ASSERT_TRUE(source_or.ok()) << source_or.status();
  auto& source = *source_or.value();

  // keyword_count is exact straight from the persisted record.
  EXPECT_EQ(source.keyword_count(), corpus.index->index().keyword_count());

  // Every real keyword answers exactly as the in-memory index does.
  for (const std::string& kw : corpus.index->index().Vocabulary()) {
    EXPECT_TRUE(source.Contains(kw)) << kw;
    EXPECT_EQ(source.ListSize(kw), corpus.index->index().ListSize(kw)) << kw;
    auto handle_or = source.FetchList(kw);
    ASSERT_TRUE(handle_or.ok()) << kw;
    ASSERT_TRUE(handle_or.value()) << kw;
    EXPECT_EQ(*handle_or.value(), *corpus.index->index().Find(kw)) << kw;
  }

  // Absent keywords answer absent (possibly via a false-positive descent).
  EXPECT_FALSE(source.Contains("definitely-not-a-keyword"));
  EXPECT_EQ(source.ListSize("definitely-not-a-keyword"), 0u);
  auto absent_or = source.FetchList("definitely-not-a-keyword");
  ASSERT_TRUE(absent_or.ok());
  EXPECT_FALSE(absent_or.value());

  // Full enumeration still works (pays the head scan once, lazily).
  EXPECT_EQ(source.Vocabulary(), corpus.index->index().Vocabulary());
}

TEST(StoreSourceTest, LazyVocabularyBloomSkipsNegativeProbes) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  StoreIndexSourceOptions options;
  options.lazy_vocabulary = true;
  auto source_or = StoreBackedIndexSource::Open(store.get(), options);
  ASSERT_TRUE(source_or.ok());
  auto& source = *source_or.value();

  auto& skips = *metrics::Registry::Global().counter("index.bloom_skips");
  auto& hits = *metrics::Registry::Global().counter("index.bloom_hits");
  uint64_t skips_before = skips.value();
  uint64_t hits_before = hits.value();

  // A flood of misses (the spelling corrector's probe shape): nearly all
  // are skipped by the bloom filter without touching the tree. A ~1% false
  // positive rate makes 0 hits overwhelmingly likely across 64 probes, but
  // tolerate a few.
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(source.Contains("zqx-missing-" + std::to_string(i)));
  }
  EXPECT_GE(skips.value() - skips_before, 60u);

  // Present keywords descend (counted as hits) and then memoize: the
  // second probe answers from the memo without another descent.
  uint64_t hits_mid = hits.value();
  EXPECT_TRUE(source.Contains("xml"));
  EXPECT_GT(hits.value(), hits_mid);
  uint64_t hits_after_first = hits.value();
  EXPECT_TRUE(source.Contains("xml"));
  EXPECT_EQ(source.ListSize("xml"), corpus.index->index().ListSize("xml"));
  EXPECT_EQ(hits.value(), hits_after_first);
  (void)hits_before;
}

TEST(StoreSourceTest, LazyVocabularyFallsBackWithoutBloomRecord) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  // Simulate a store persisted before the bloom record existed.
  ASSERT_TRUE(store->Delete(BloomMetaKey()).ok());
  StoreIndexSourceOptions options;
  options.lazy_vocabulary = true;
  auto source_or = StoreBackedIndexSource::Open(store.get(), options);
  ASSERT_TRUE(source_or.ok()) << source_or.status();
  auto& source = *source_or.value();

  // Eager fallback: full vocabulary resolved at open.
  EXPECT_EQ(source.keyword_count(), corpus.index->index().keyword_count());
  EXPECT_TRUE(source.Contains("xml"));
  EXPECT_FALSE(source.Contains("nonexistent"));
  EXPECT_EQ(source.Vocabulary(), corpus.index->index().Vocabulary());
}

TEST(StoreSourceTest, LazyVocabularyServesQueriesIdentically) {
  auto corpus = MakeFigure1Corpus();
  auto store = SavedStore(*corpus.index);
  StoreIndexSourceOptions lazy_options;
  lazy_options.lazy_vocabulary = true;
  auto lazy_or = StoreBackedIndexSource::Open(store.get(), lazy_options);
  ASSERT_TRUE(lazy_or.ok());
  auto eager_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(eager_or.ok());

  core::Query q = {"xml", "database"};
  auto lazy_results = slca::ComputeSlcaForQuery(
      q, *lazy_or.value(), lazy_or.value()->types(),
      slca::SlcaAlgorithm::kScanEager);
  auto eager_results = slca::ComputeSlcaForQuery(
      q, *eager_or.value(), eager_or.value()->types(),
      slca::SlcaAlgorithm::kScanEager);
  ASSERT_TRUE(lazy_results.ok());
  ASSERT_TRUE(eager_results.ok());
  ASSERT_EQ(lazy_results.value().size(), eager_results.value().size());
  for (size_t i = 0; i < lazy_results.value().size(); ++i) {
    EXPECT_EQ(lazy_results.value()[i].dewey, eager_results.value()[i].dewey);
  }
}

// --- stores the query path must refuse or survive ---------------------------
//
// One regression per decode check the query path relies on, over the bad
// stores of testutil::WriteBadStore (also committed as store_open fuzz
// seeds). Before the checks, a query over each crashed or spun.

using testutil::BadStore;

std::unique_ptr<storage::KVStore> BadStoreOf(BadStore kind) {
  auto store_or = storage::KVStore::Open("");
  EXPECT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  EXPECT_TRUE(testutil::WriteBadStore(kind, store.get()).ok());
  return store;
}

// Runs Partition over {x, y} through a store-backed source, under a 1-s
// deadline.
core::RefineOutcome QueryXY(const StoreBackedIndexSource& source) {
  auto lexicon = text::Lexicon::BuiltIn();
  core::XRefine engine(&source, &lexicon);
  core::RefineControl control;
  control.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  return engine.Run({"x", "y"}, &control);
}

TEST(StoreSourceBadStoreTest, BaseCorpusHasTheDocumentedShape) {
  auto corpus = MakeCorpus("<x><y><z>x y</z></y></x>");
  EXPECT_EQ(corpus.index->types().size(), 3u);
  EXPECT_EQ(corpus.index->types().path(2), "x/y/z");
  EXPECT_EQ(corpus.index->index().Vocabulary(),
            (std::vector<std::string>{"x", "y", "z"}));
}

TEST(StoreSourceBadStoreTest, Uint32MaxLabelIsServed) {
  auto store = BadStoreOf(BadStore::kUint32MaxLabel);
  ASSERT_TRUE(LoadCorpus(*store).ok());
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(source_or.ok()) << source_or.status();
  core::RefineOutcome outcome = QueryXY(*source_or.value());
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  ASSERT_FALSE(outcome.refined.empty());
  EXPECT_EQ(testutil::DeweyStrings(outcome.refined[0].results),
            std::vector<std::string>{"0.4294967295.0"});
}

TEST(StoreSourceBadStoreTest, PostingTypeIdOutOfRangeIsCorruption) {
  auto store = BadStoreOf(BadStore::kPostingTypeOutOfRange);
  auto loaded = LoadCorpus(*store);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find(
                "postings: type id 3 out of range (3 types)"),
            std::string::npos)
      << loaded.status();
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(source_or.ok()) << source_or.status();
  core::RefineOutcome outcome = QueryXY(*source_or.value());
  EXPECT_TRUE(outcome.status.IsCorruption()) << outcome.status;
}

TEST(StoreSourceBadStoreTest, FreqRowTypeIdOutOfRangeIsCorruption) {
  auto store = BadStoreOf(BadStore::kFreqRowTypeOutOfRange);
  auto loaded = LoadCorpus(*store);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find(
                "freq row: type id 3 out of range (3 types)"),
            std::string::npos)
      << loaded.status();
  // The store-backed source reads every freq row at open, so it refuses
  // the store before any query can reach the row.
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_FALSE(source_or.ok());
  EXPECT_TRUE(source_or.status().IsCorruption()) << source_or.status();
}

TEST(StoreSourceBadStoreTest, EmptyLabelIsCorruption) {
  auto store = BadStoreOf(BadStore::kEmptyLabel);
  auto loaded = LoadCorpus(*store);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("postings: empty label"),
            std::string::npos)
      << loaded.status();
  auto source_or = StoreBackedIndexSource::Open(store.get());
  ASSERT_TRUE(source_or.ok()) << source_or.status();
  core::RefineOutcome outcome = QueryXY(*source_or.value());
  EXPECT_TRUE(outcome.status.IsCorruption()) << outcome.status;
}

}  // namespace
}  // namespace xrefine::index
