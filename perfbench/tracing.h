// In-memory spans for the benchmark's traced replay, and an IndexSource
// that records a span around every list fetch of the source it wraps. Spans
// are recorded only from the benchmark's own code, around the calls it
// makes into each layer; nothing inside the program is instrumented.
#ifndef XREFINE_PERFBENCH_TRACING_H_
#define XREFINE_PERFBENCH_TRACING_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "index/index_source.h"

namespace xrefine::perfbench {

/// Span names, one per layer boundary the replay crosses.
enum class SpanName : uint8_t {
  kDecode,        // frame header + refine request decode
  kTokenize,      // text::TokenizeQuery
  kCacheTryGet,   // RefinementCache::TryGet (the reader's inline probe)
  kAdmission,     // AdmissionController::Decide
  kCacheCompute,  // RefinementCache::GetOrCompute, around the engine run
  kPrepare,       // XRefine::Prepare
  kIndexFetch,    // IndexSource::FetchList
  kIndexPrefetch, // IndexSource::Prefetch
  kRunPrepared,   // XRefine::RunPrepared
  kScan,          // RunPrepared's scan time (QueryStats::scan_ms)
  kRank,          // RunPrepared's rank time (QueryStats::rank_ms)
  kEncode,        // response build + frame encode
  kCount,
};
const char* SpanNameString(SpanName name);

struct Span {
  uint32_t request = 0;
  uint32_t id = 0;      // 1-based; 0 means "no span"
  uint32_t parent = 0;  // enclosing span, 0 at the request's top level
  SpanName name = SpanName::kDecode;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Single-threaded span recorder. Disabled, every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void BeginRequest(uint32_t request) { request_ = request; }

  /// Opens a span under the innermost open one; returns its id.
  uint32_t Open(SpanName name);
  void Close(uint32_t id);
  /// Records a finished child of span `parent` lasting `duration_ns`,
  /// placed at the parent's start (stage splits reported by the engine).
  void AddChild(uint32_t parent, SpanName name, int64_t duration_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Drops every recorded span (none may be open).
  void Clear() { spans_.clear(); }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name)
        : tracer_(tracer), id_(tracer->Open(name)) {}
    ~Scope() { tracer_->Close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint32_t id() const { return id_; }

   private:
    Tracer* tracer_;
    uint32_t id_;
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  uint32_t request_ = 0;
  uint32_t current_ = 0;
  std::vector<Span> spans_;
};

/// Per-span-name totals of self time: a span's duration minus the part its
/// children cover.
struct SelfTimes {
  int64_t ns[static_cast<size_t>(SpanName::kCount)] = {};
  int64_t Total() const;
  int64_t of(SpanName name) const { return ns[static_cast<size_t>(name)]; }
};
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

/// Forwards every call to `inner` and records a span around FetchList and
/// Prefetch. Everything else (metadata, statistics, co-occurrence) goes
/// straight through: the co-occurrence table keeps fetching from `inner`.
class TracingIndexSource : public index::IndexSource {
 public:
  TracingIndexSource(const index::IndexSource* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  StatusOr<index::PostingListHandle> FetchList(
      std::string_view keyword) const override;
  void Prefetch(const std::vector<std::string>& keywords) const override;
  bool Contains(std::string_view keyword) const override {
    return inner_->Contains(keyword);
  }
  size_t ListSize(std::string_view keyword) const override {
    return inner_->ListSize(keyword);
  }
  size_t keyword_count() const override { return inner_->keyword_count(); }
  void ForEachKeyword(
      const std::function<void(std::string_view)>& fn) const override {
    inner_->ForEachKeyword(fn);
  }
  const index::StatisticsTable& stats() const override {
    return inner_->stats();
  }
  const xml::NodeTypeTable& types() const override { return inner_->types(); }
  index::CooccurrenceTable& cooccurrence() const override {
    return inner_->cooccurrence();
  }
  const xml::Document* document() const override {
    return inner_->document();
  }
  const xml::DocumentView* document_view() const override {
    return inner_->document_view();
  }

  /// Since the last reset: FetchList calls made through this source, the
  /// resident bytes of the lists they returned, and the distinct lists
  /// among them with their bytes (the working set the caches face).
  uint64_t fetches() const { return fetches_; }
  uint64_t list_bytes() const { return list_bytes_; }
  uint64_t distinct_lists() const { return distinct_.size(); }
  uint64_t distinct_list_bytes() const { return distinct_bytes_; }
  void ResetCounts() {
    fetches_ = list_bytes_ = distinct_bytes_ = 0;
    distinct_.clear();
  }

 private:
  const index::IndexSource* inner_;
  Tracer* tracer_;
  mutable uint64_t fetches_ = 0;
  mutable uint64_t list_bytes_ = 0;
  mutable std::unordered_set<std::string> distinct_;
  mutable uint64_t distinct_bytes_ = 0;
};

}  // namespace xrefine::perfbench

#endif  // XREFINE_PERFBENCH_TRACING_H_
