#include "index/store_index_source.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "index/index_store.h"
#include "index/posting_blocks.h"

namespace xrefine::index {

namespace {

struct CacheMetrics {
  metrics::Counter* hits;
  metrics::Counter* misses;
  metrics::Counter* prefetched;
  metrics::Counter* admitted;
  metrics::Counter* rejected;
  metrics::Gauge* bytes;
  metrics::Counter* bloom_hits;   // bloom said maybe; descent performed
  metrics::Counter* bloom_skips;  // bloom said no; descent skipped
};

const CacheMetrics& Metrics() {
  static const CacheMetrics m = [] {
    auto& r = metrics::Registry::Global();
    return CacheMetrics{r.counter("index.cache_hits"),
                        r.counter("index.cache_misses"),
                        r.counter("index.prefetch_lists"),
                        r.counter("index.cache_admit"),
                        r.counter("index.cache_reject"),
                        r.gauge("index.cache_bytes"),
                        r.counter("index.bloom_hits"),
                        r.counter("index.bloom_skips")};
  }();
  return m;
}

// Version byte plus one varint32: the longest record head DecodePostingCount
// can need.
constexpr size_t kCountPrefixBytes = 6;

// Scans the inverted-list keyspace, decoding only each record's head, and
// fills `sizes` with keyword -> posting count.
Status ScanListSizes(const storage::KVStore& store,
                     std::unordered_map<std::string, uint32_t>* sizes) {
  std::string prefix = InvertedListKey("");
  auto cursor = store.NewCursor();
  for (cursor.Seek(prefix); cursor.Valid(); cursor.Next()) {
    std::string_view key = cursor.key();
    if (key.substr(0, 2) != std::string_view(prefix)) break;
    std::string head = cursor.value_prefix(kCountPrefixBytes);
    XREFINE_RETURN_IF_ERROR(cursor.status());
    uint32_t count = 0;
    XREFINE_RETURN_IF_ERROR(DecodePostingCount(head, &count));
    sizes->emplace(std::string(key.substr(2)), count);
  }
  return cursor.status();
}

}  // namespace

StatusOr<std::unique_ptr<StoreBackedIndexSource>> StoreBackedIndexSource::Open(
    const storage::KVStore* store, StoreIndexSourceOptions options) {
  std::unique_ptr<StoreBackedIndexSource> source(
      new StoreBackedIndexSource(store, options));
  XREFINE_RETURN_IF_ERROR(LoadCorpusMetadata(
      *store, &source->types_, &source->stats_, &source->cooccurrence_));

  if (options.lazy_vocabulary) {
    auto bloom_or = store->Get(BloomMetaKey());
    if (bloom_or.ok()) {
      auto filter_or = BloomFilter::Decode(bloom_or.value());
      if (!filter_or.ok()) return filter_or.status();
      source->bloom_ = std::move(filter_or).value();
      source->lazy_ = true;
      return source;  // no scan: sizes are probed and memoized on demand
    }
    // A store persisted before the bloom record existed: fall through to
    // the eager scan. Any other failure is a real store error.
    if (!bloom_or.status().IsNotFound()) return bloom_or.status();
  }

  // Vocabulary + list sizes from the record heads only: value_prefix stops
  // after the count varint, so a corpus-sized store opens without decoding
  // (or even paging in) a single full list.
  std::unordered_map<std::string, uint32_t> sizes;
  XREFINE_RETURN_IF_ERROR(ScanListSizes(*store, &sizes));
  MutexLock lock(&source->vocab_mu_);
  source->list_sizes_ = std::move(sizes);
  source->vocab_complete_ = true;
  return source;
}

StatusOr<PostingListHandle> StoreBackedIndexSource::FetchList(
    std::string_view keyword) const {
  return FetchListImpl(keyword, /*record_access=*/true);
}

StatusOr<PostingListHandle> StoreBackedIndexSource::FetchListImpl(
    std::string_view keyword, bool record_access) const {
  std::string key(keyword);
  if (lazy_) {
    bool known = false;
    {
      MutexLock lock(&vocab_mu_);
      known = list_sizes_.find(key) != list_sizes_.end();
    }
    if (!known) {
      if (!bloom_.MayContain(keyword)) {
        // Definite miss: no descent at all.
        Metrics().bloom_skips->Increment();
        return PostingListHandle();
      }
      Metrics().bloom_hits->Increment();
      // Maybe-present: fall through to the store fetch, which resolves a
      // bloom false positive as NotFound below.
    }
  } else {
    MutexLock lock(&vocab_mu_);
    if (list_sizes_.find(key) == list_sizes_.end()) {
      return PostingListHandle();  // absent keyword: OK, null handle
    }
  }
  {
    MutexLock lock(&mu_);
    if (record_access) lfu_.RecordAccess(key);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      Metrics().hits->Increment();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return PostingListHandle(it->second.list);
    }
  }
  Metrics().misses->Increment();

  // The store read (B-tree latch, then pager latch inside) runs with the
  // cache latch dropped; see the lock-order note in the header.
  auto value_or = store_->Get(InvertedListKey(keyword));
  if (!value_or.ok()) {
    // In lazy mode an absent key is reachable (a bloom false positive);
    // that is the "keyword not in corpus" answer, not an error.
    if (lazy_ && value_or.status().IsNotFound()) return PostingListHandle();
    return value_or.status();
  }
  auto list = std::make_shared<FlatPostingList>();
  XREFINE_RETURN_IF_ERROR(
      DecodePostingsFlat(value_or.value(), types_.size(), list.get()));
  // Cache entries live long; decode-time capacity slack would inflate the
  // byte budget, so trim before measuring.
  list->ShrinkToFit();
  size_t bytes = list->resident_bytes();
  if (lazy_) {
    // The full list is in hand; memoize its size so later Contains/ListSize
    // probes for this keyword skip even the record-head descent.
    MutexLock lock(&vocab_mu_);
    list_sizes_.emplace(key, static_cast<uint32_t>(list->size()));
  }

  MutexLock lock(&mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // A concurrent miss on the same keyword inserted first; adopt its copy
    // so all handles share one list.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return PostingListHandle(it->second.list);
  }

  // TinyLFU admission: inserting under eviction pressure is only allowed
  // when every victim that would have to go is strictly colder (lower
  // sketch frequency) than the candidate. A rejected candidate is still
  // served — it just isn't cached, so the one-pass cold scan it belongs to
  // cannot displace the hot working set. Running out of victims (the
  // candidate outweighs the whole cache) admits: the pre-admission code
  // also never refused the newest entry.
  if (options_.cache_admission && options_.cache_capacity_bytes != 0 &&
      cache_bytes_ + bytes > options_.cache_capacity_bytes &&
      !cache_.empty()) {
    uint64_t candidate_freq = lfu_.Estimate(key);
    size_t must_free = cache_bytes_ + bytes - options_.cache_capacity_bytes;
    size_t freed = 0;
    bool admit = true;
    for (auto vit = lru_.rbegin(); vit != lru_.rend() && freed < must_free;
         ++vit) {
      if (lfu_.Estimate(*vit) >= candidate_freq) {
        admit = false;
        break;
      }
      freed += cache_.find(*vit)->second.bytes;
    }
    if (!admit) {
      Metrics().rejected->Increment();
      return PostingListHandle(std::move(list));
    }
    Metrics().admitted->Increment();
  }

  lru_.push_front(key);
  CacheEntry entry;
  entry.list = list;
  entry.bytes = bytes;
  entry.lru_it = lru_.begin();
  cache_.emplace(std::move(key), std::move(entry));
  cache_bytes_ += bytes;
  // Evict coldest-first down to budget. The newest entry is never evicted
  // (size() > 1): a single list larger than the whole budget still serves
  // its current query from cache instead of thrashing.
  while (options_.cache_capacity_bytes != 0 &&
         cache_bytes_ > options_.cache_capacity_bytes && cache_.size() > 1) {
    auto vit = cache_.find(lru_.back());
    cache_bytes_ -= vit->second.bytes;
    cache_.erase(vit);
    lru_.pop_back();
  }
  Metrics().bytes->Set(static_cast<int64_t>(cache_bytes_));
  return PostingListHandle(std::move(list));
}

void StoreBackedIndexSource::Prefetch(
    const std::vector<std::string>& keywords) const {
  // Keep only keywords that exist and are not already resident: spawning a
  // thread to discover a cache hit would cost more than the hit saves.
  // Existence and residency live under different latches, checked one at a
  // time (the two are never held together). In lazy mode existence is the
  // memo or, failing that, a silent bloom probe — no metrics here, since a
  // bloom-passed keyword's real FetchList does its own counted probe.
  std::vector<const std::string*> candidates;
  candidates.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    bool known = false;
    {
      MutexLock lock(&vocab_mu_);
      known = list_sizes_.find(keyword) != list_sizes_.end();
    }
    if (!known) {
      if (!lazy_ || !bloom_.MayContain(keyword)) continue;
    }
    candidates.push_back(&keyword);
  }
  std::vector<const std::string*> missing;
  missing.reserve(candidates.size());
  {
    MutexLock lock(&mu_);
    for (const std::string* keyword : candidates) {
      if (cache_.find(*keyword) != cache_.end()) continue;
      missing.push_back(keyword);
    }
  }
  if (missing.empty()) return;
  Metrics().prefetched->Increment(missing.size());

  // FetchList is internally synchronised and single-flights duplicate store
  // reads at the pager, so workers just pull keywords off a shared index.
  // Results land in the cache; the handles (and any errors) are dropped.
  // record_access=false: the caller is about to FetchList the same keyword
  // for real, and that fetch feeds the admission sketch — recording here
  // too would double-count cold keywords relative to cache-hit ones.
  auto fetch_all = [this, &missing](std::atomic<size_t>& next) {
    while (true) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= missing.size()) break;
      (void)FetchListImpl(*missing[i], /*record_access=*/false);
    }
  };
  std::atomic<size_t> next{0};
  if (missing.size() == 1) {
    fetch_all(next);  // nothing to overlap; skip the thread spawn
    return;
  }
  size_t workers = std::min<size_t>(4, missing.size());
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] { fetch_all(next); });
  }
  for (auto& t : threads) t.join();
}

uint32_t StoreBackedIndexSource::LookupListSize(
    std::string_view keyword) const {
  std::string key(keyword);
  {
    MutexLock lock(&vocab_mu_);
    auto it = list_sizes_.find(key);
    if (it != list_sizes_.end()) return it->second;
    if (!lazy_ || vocab_complete_) return 0;
  }
  if (!bloom_.MayContain(keyword)) {
    Metrics().bloom_skips->Increment();
    return 0;
  }
  Metrics().bloom_hits->Increment();

  // Maybe-present: descend to the record head only (value_prefix stops
  // after the count varint), with no latch held across the store read.
  // Store errors degrade to 0 — Contains/ListSize have no error channel,
  // and the caller's own FetchList surfaces the failure. A bloom false
  // positive lands here too (key absent), deliberately unmemoized: at ~1%
  // of probes a negative memo isn't worth the memory.
  std::string want = InvertedListKey(keyword);
  auto cursor = store_->NewCursor();
  cursor.Seek(want);
  if (!cursor.Valid() || cursor.key() != std::string_view(want)) return 0;
  std::string head = cursor.value_prefix(kCountPrefixBytes);
  if (!cursor.status().ok()) return 0;
  uint32_t count = 0;
  if (!DecodePostingCount(head, &count).ok()) return 0;
  MutexLock lock(&vocab_mu_);
  list_sizes_.emplace(std::move(key), count);
  return count;
}

void StoreBackedIndexSource::EnsureFullVocabulary() const {
  {
    MutexLock lock(&vocab_mu_);
    if (vocab_complete_) return;
  }
  // Scan outside the latch (cursor reads take the B+-tree latch), then
  // merge. Concurrent callers may scan twice; both converge to the same
  // complete map.
  std::unordered_map<std::string, uint32_t> sizes;
  if (!ScanListSizes(*store_, &sizes).ok()) return;  // degrade: stay lazy
  bool completed_now = false;
  {
    MutexLock lock(&vocab_mu_);
    for (auto& [keyword, count] : sizes) {
      list_sizes_.emplace(keyword, count);
    }
    completed_now = !vocab_complete_;
    vocab_complete_ = true;
  }
  // The read API's answers just changed shape (Contains/ListSize now see
  // the full vocabulary, and a bloom false-positive can no longer slip a
  // "maybe" through): stamp a new snapshot epoch so derived caches —
  // the engine's RefinementCache above all — invalidate wholesale instead
  // of serving outcomes computed against the partial view.
  if (completed_now) BumpEpoch();
}

bool StoreBackedIndexSource::Contains(std::string_view keyword) const {
  return LookupListSize(keyword) > 0;
}

size_t StoreBackedIndexSource::ListSize(std::string_view keyword) const {
  return LookupListSize(keyword);
}

size_t StoreBackedIndexSource::keyword_count() const {
  if (lazy_) {
    // Exact (SaveCorpus counts every insert), even before any memoization.
    return static_cast<size_t>(bloom_.key_count());
  }
  MutexLock lock(&vocab_mu_);
  return list_sizes_.size();
}

void StoreBackedIndexSource::ForEachKeyword(
    const std::function<void(std::string_view)>& fn) const {
  // Full enumeration genuinely needs the whole vocabulary, so a lazy
  // source pays the head scan here, once, on first use (rule mining and
  // snapshot builders — not the per-query path).
  if (lazy_) EnsureFullVocabulary();
  // Snapshot the keys so `fn` runs without the latch: consumers may call
  // back into Contains/ListSize, which take vocab_mu_ themselves.
  std::vector<std::string> keywords;
  {
    MutexLock lock(&vocab_mu_);
    keywords.reserve(list_sizes_.size());
    for (const auto& [keyword, unused_size] : list_sizes_) {
      keywords.push_back(keyword);
    }
  }
  for (const std::string& keyword : keywords) fn(keyword);
}

}  // namespace xrefine::index
