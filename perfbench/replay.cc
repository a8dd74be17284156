#include "perfbench/replay.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/metrics.h"
#include "server/frame.h"
#include "text/tokenizer.h"

namespace xrefine::perfbench {

namespace {

// The registry values the per-layer breakdown reads, resolved once.
struct Watched {
  std::vector<std::pair<std::string, const metrics::Counter*>> counters;
  std::vector<std::pair<std::string, const metrics::Histogram*>> sums;

  static const Watched& Get() {
    static const Watched watched = [] {
      Watched w;
      auto& r = metrics::Registry::Global();
      for (const char* name :
           {"slca.calls", "slca.elements_scanned",
            "query.candidates_enumerated", "index.cache_hits",
            "index.cache_misses", "cooccur.pair_hits", "cooccur.pair_misses",
            "cooccur.anchor_hits", "cooccur.anchor_misses", "pager.page_reads",
            "pager.cache_hits", "pager.cache_misses", "btree.node_reads"}) {
        w.counters.emplace_back(name, r.counter(name));
      }
      for (const char* name : {"rules.spelling_probe_us", "pager.fetch_us"}) {
        w.sums.emplace_back(name, r.histogram(name));
      }
      return w;
    }();
    return watched;
  }

  std::vector<uint64_t> Read() const {
    std::vector<uint64_t> values;
    for (const auto& [name, c] : counters) values.push_back(c->value());
    for (const auto& [name, h] : sums) values.push_back(h->sum());
    return values;
  }

  // Position of `name` in Read()'s values; -1 when not watched.
  int Index(const std::string& name) const {
    for (size_t i = 0; i < counters.size(); ++i) {
      if (counters[i].first == name) return static_cast<int>(i);
    }
    for (size_t i = 0; i < sums.size(); ++i) {
      if (sums[i].first == name) return static_cast<int>(counters.size() + i);
    }
    return -1;
  }
};

}  // namespace

ReplayPass::ReplayPass(const index::IndexSource* source,
                       const text::Lexicon* lexicon, const Trace* trace,
                       Workload workload, bool traced)
    : trace_(trace),
      tracer_(traced),
      tracing_source_(source, &tracer_),
      engine_(traced ? static_cast<const index::IndexSource*>(&tracing_source_)
                     : source,
              lexicon, ServingEngineOptions()),
      admission_(server_options_.admission, &engine_.corpus()),
      counts_(Watched::Get().Read().size(), 0) {
  engine_.Run(text::TokenizeQuery(kSetupProbe));
  if (IsHot(workload)) {
    for (const std::string& q : trace_->queries) {
      engine_.Run(text::TokenizeQuery(q));
    }
  }
  tracer_.Clear();
  tracing_source_.ResetCounts();
}

uint64_t ReplayPass::Count(const std::string& name) const {
  int i = Watched::Get().Index(name);
  return i < 0 ? 0 : counts_[static_cast<size_t>(i)];
}

int64_t ReplayPass::TotalNs() const {
  int64_t total = 0;
  for (int64_t ns : request_ns_) total += ns;
  return total;
}

void ReplayPass::Run(size_t position) {
  const uint64_t id = request_ns_.size() + 1;
  // What the client puts on the wire; not part of the request's time.
  const std::string request_frame = server::EncodeRefineRequestFrame(
      id, server::RefineRequest{0, trace_->Request(position)});
  server::RefineRequest request;
  core::Query query;
  std::shared_ptr<const core::RefineOutcome> hit;
  std::optional<core::RefineOutcome> computed;
  std::string response_frame;
  core::RefinementCache* cache = engine_.result_cache();
  const Watched& watched = Watched::Get();
  const std::vector<uint64_t> counts_before = watched.Read();
  tracer_.BeginRequest(static_cast<uint32_t>(id));

  const int64_t start = Tracer::NowNs();
  {
    Tracer::Scope span(&tracer_, SpanName::kDecode);
    server::FrameHeader header;
    std::string_view bytes(request_frame);
    if (!server::DecodeFrameHeader(bytes.substr(0, server::kFrameHeaderSize),
                                   &header)
             .ok() ||
        !server::DecodeRefineRequest(bytes.substr(server::kFrameHeaderSize),
                                     &request)
             .ok()) {
      request.query.clear();
    }
  }
  {
    Tracer::Scope span(&tracer_, SpanName::kTokenize);
    query = text::TokenizeQuery(request.query);
  }
  {
    Tracer::Scope span(&tracer_, SpanName::kCacheTryGet);
    hit = cache->TryGet(query);
  }
  if (hit == nullptr) {
    {
      Tracer::Scope span(&tracer_, SpanName::kAdmission);
      admission_.Decide(query, 0, server_options_.queue_capacity);
    }
    Tracer::Scope span(&tracer_, SpanName::kCacheCompute);
    computed = cache->GetOrCompute(query, nullptr, [&] {
      ++engine_runs_;
      core::RefineInput input;
      const int64_t prepare_start = Tracer::NowNs();
      {
        Tracer::Scope prepare(&tracer_, SpanName::kPrepare);
        input = engine_.Prepare(query);
      }
      const int64_t prepare_ns = Tracer::NowNs() - prepare_start;
      rules_ += input.rules.size();
      Tracer::Scope run(&tracer_, SpanName::kRunPrepared);
      core::RefineOutcome result = engine_.RunPrepared(input);
      tracer_.AddChild(run.id(), SpanName::kScan,
                       static_cast<int64_t>(result.query_stats.scan_ms * 1e6));
      tracer_.AddChild(run.id(), SpanName::kRank,
                       static_cast<int64_t>(result.query_stats.rank_ms * 1e6));
      result.query_stats.prepare_ms = static_cast<double>(prepare_ns) / 1e6;
      result.query_stats.rules_generated = input.rules.size();
      return result;
    });
  }
  const core::RefineOutcome& outcome = hit != nullptr ? *hit : *computed;
  {
    Tracer::Scope span(&tracer_, SpanName::kEncode);
    response_frame = server::EncodeRefineResponseFrame(id, ToResponse(outcome));
  }
  request_ns_.push_back(Tracer::NowNs() - start);

  const std::vector<uint64_t> counts_after = watched.Read();
  for (size_t i = 0; i < counts_after.size(); ++i) {
    counts_[i] += counts_after[i] - counts_before[i];
  }
  answers_.push_back(outcome.status.ok()
                         ? CanonicalBytes(ToResponse(outcome))
                         : "error: " + outcome.status.ToString());
}

}  // namespace xrefine::perfbench
