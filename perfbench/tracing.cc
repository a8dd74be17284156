#include "perfbench/tracing.h"

namespace xrefine::perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kDecode:
      return "decode";
    case SpanName::kTokenize:
      return "tokenize";
    case SpanName::kCacheTryGet:
      return "cache.try_get";
    case SpanName::kAdmission:
      return "admission";
    case SpanName::kCacheCompute:
      return "cache.get_or_compute";
    case SpanName::kPrepare:
      return "prepare";
    case SpanName::kIndexFetch:
      return "index.fetch_list";
    case SpanName::kIndexPrefetch:
      return "index.prefetch";
    case SpanName::kRunPrepared:
      return "run_prepared";
    case SpanName::kScan:
      return "scan";
    case SpanName::kRank:
      return "rank";
    case SpanName::kEncode:
      return "encode";
    case SpanName::kCount:
      break;
  }
  return "?";
}

uint32_t Tracer::Open(SpanName name) {
  if (!enabled_) return 0;
  // The clock is read first so the bookkeeping lands inside the span: it is
  // tracing overhead, and it is measured as such.
  Span span;
  span.start_ns = NowNs();
  span.request = request_;
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = current_;
  span.name = name;
  spans_.push_back(span);
  current_ = span.id;
  return span.id;
}

void Tracer::Close(uint32_t id) {
  if (id == 0) return;
  Span& span = spans_[id - 1];
  span.end_ns = NowNs();
  current_ = span.parent;
}

void Tracer::AddChild(uint32_t parent, SpanName name, int64_t duration_ns) {
  if (parent == 0) return;
  Span span;
  span.request = request_;
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = name;
  span.start_ns = spans_[parent - 1].start_ns;
  span.end_ns = span.start_ns + duration_ns;
  spans_.push_back(span);
}

int64_t SelfTimes::Total() const {
  int64_t total = 0;
  for (int64_t v : ns) total += v;
  return total;
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size() + 1, 0);
  for (const Span& span : spans) {
    child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  SelfTimes out;
  for (const Span& span : spans) {
    out.ns[static_cast<size_t>(span.name)] +=
        span.end_ns - span.start_ns - child_ns[span.id];
  }
  return out;
}

StatusOr<index::PostingListHandle> TracingIndexSource::FetchList(
    std::string_view keyword) const {
  StatusOr<index::PostingListHandle> handle = [&] {
    Tracer::Scope span(tracer_, SpanName::kIndexFetch);
    return inner_->FetchList(keyword);
  }();
  ++fetches_;
  if (handle.ok() && handle.value()) {
    const size_t bytes = handle.value()->resident_bytes();
    list_bytes_ += bytes;
    if (distinct_.emplace(keyword).second) distinct_bytes_ += bytes;
  }
  return handle;
}

void TracingIndexSource::Prefetch(
    const std::vector<std::string>& keywords) const {
  Tracer::Scope span(tracer_, SpanName::kIndexPrefetch);
  inner_->Prefetch(keywords);
}

}  // namespace xrefine::perfbench
