#include "perfbench/bench_env.h"

#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "common/random.h"
#include "common/timer.h"
#include "core/refinement_cache.h"
#include "index/index_store.h"
#include "server/admission.h"
#include "text/tokenizer.h"
#include "workload/corruption.h"
#include "workload/dblp_generator.h"
#include "workload/query_generator.h"

namespace xrefine::perfbench {

namespace {

std::string JoinTerms(const core::Query& q) {
  std::string out;
  for (const std::string& term : q) {
    if (!out.empty()) out.push_back(' ');
    out += term;
  }
  return out;
}

// Zipf exponent of zipf_hot's request order.
constexpr double kHotZipfSkew = 1.0;

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w :
       {Workload::kColdMem, Workload::kZipfHot, Workload::kStoreCold}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kColdMem:
      return "cold_mem";
    case Workload::kZipfHot:
      return "zipf_hot";
    case Workload::kStoreCold:
      return "store_cold";
  }
  return "?";
}

Corpus BuildCorpus(double* generate_s, double* index_build_s) {
  Corpus corpus;
  workload::DblpOptions options;
  options.num_authors = kCorpusAuthors;
  Timer generate;
  corpus.doc =
      std::make_unique<xml::Document>(workload::GenerateDblp(options));
  if (generate_s != nullptr) *generate_s = generate.ElapsedSeconds();
  Timer build;
  corpus.index = index::BuildIndex(*corpus.doc);
  if (index_build_s != nullptr) *index_build_s = build.ElapsedSeconds();
  return corpus;
}

Status WriteStore(const index::IndexedCorpus& corpus, const std::string& path) {
  ::unlink(path.c_str());
  auto store = storage::KVStore::Open(path);
  if (!store.ok()) return store.status();
  return index::SaveCorpus(corpus, store.value().get());
}

StatusOr<StoreSource> OpenStoreSource(const std::string& path) {
  StoreSource out;
  storage::PagerOptions pager;
  pager.max_cached_pages = kStorePoolPages;
  auto store = storage::KVStore::Open(path, pager);
  if (!store.ok()) return store.status();
  out.store = std::move(store).value();
  index::StoreIndexSourceOptions options;
  options.cache_capacity_bytes = kStorePostingCacheBytes;
  auto source = index::StoreBackedIndexSource::Open(out.store.get(), options);
  if (!source.ok()) return source.status();
  out.source = std::move(source).value();
  return out;
}

core::XRefineOptions ServingEngineOptions() {
  core::XRefineOptions options;
  options.result_cache.enabled = true;
  options.result_cache.max_entries = 1024;
  return options;
}

Trace MakeTrace(const Corpus& corpus, const text::Lexicon& lexicon,
                Workload workload, uint64_t seed) {
  workload::Corruptor corruptor(&corpus.index->index(), &lexicon);
  workload::QueryGeneratorOptions options;
  options.target_tag = "inproceedings";
  options.seed = seed;
  workload::QueryGenerator generator(corpus.doc.get(), corpus.index.get(),
                                     &corruptor, options);
  // The daemon's own admission rules, on an idle queue: a query it would
  // degrade or reject is not a query this benchmark may send.
  server::AdmissionController admission(server::AdmissionOptions{},
                                        corpus.index.get());
  std::unordered_set<std::string> keys;
  keys.insert(core::RefinementCache::CanonicalKey(
      text::TokenizeQuery(kSetupProbe)));

  // A generous bound on rejected draws: the generator repeats itself only
  // rarely on this corpus, so running out means something is broken.
  size_t draws_left = 20 * (kColdTraceLength + kWarmupQueries);
  auto next_query = [&]() -> std::string {
    while (draws_left-- > 0) {
      std::optional<workload::CorruptedQuery> cq = generator.GenerateAny();
      if (!cq.has_value()) break;
      std::string text = JoinTerms(cq->corrupted);
      core::Query tokens = text::TokenizeQuery(text);
      if (tokens.empty()) continue;
      if (admission.Decide(tokens, 0, 64).decision !=
          server::AdmissionDecision::kAdmit) {
        continue;
      }
      if (!keys.insert(core::RefinementCache::CanonicalKey(tokens)).second) {
        continue;
      }
      return text;
    }
    throw std::runtime_error("query generator ran dry");
  };

  Trace trace;
  if (!IsHot(workload)) {
    for (size_t i = 0; i < kWarmupQueries; ++i) {
      trace.warmup.push_back(next_query());
    }
  }
  const size_t distinct = IsHot(workload) ? kHotPoolSize : kColdTraceLength;
  trace.queries.reserve(distinct);
  for (size_t i = 0; i < distinct; ++i) trace.queries.push_back(next_query());
  if (IsHot(workload)) {
    // Pool order is already random, so rank r is an arbitrary query.
    ZipfSampler zipf(kHotPoolSize, kHotZipfSkew, seed ^ 0x9e3779b97f4a7c15ULL);
    trace.order.reserve(kHotOrderLength);
    for (size_t i = 0; i < kHotOrderLength; ++i) {
      trace.order.push_back(static_cast<uint32_t>(zipf.Next()));
    }
  }
  return trace;
}

server::RefineResponse ToResponse(const core::RefineOutcome& outcome) {
  server::RefineResponse response;
  response.needs_refinement = outcome.needs_refinement;
  response.prepare_us =
      static_cast<uint64_t>(outcome.query_stats.prepare_ms * 1e3);
  response.scan_us = static_cast<uint64_t>(outcome.query_stats.scan_ms * 1e3);
  response.rank_us = static_cast<uint64_t>(outcome.query_stats.rank_ms * 1e3);
  response.refined.reserve(outcome.refined.size());
  for (const core::RankedRq& rq : outcome.refined) {
    server::RefineResponse::Entry entry;
    entry.query = JoinTerms(rq.rq.keywords);
    entry.score = rq.rank;
    entry.result_count = static_cast<uint32_t>(rq.results.size());
    response.refined.push_back(std::move(entry));
  }
  return response;
}

std::string CanonicalBytes(server::RefineResponse response) {
  response.prepare_us = 0;
  response.scan_us = 0;
  response.rank_us = 0;
  return server::EncodeRefineResponseFrame(0, response);
}

StatusOr<server::RefineResponse> DecodeCanonical(std::string_view bytes) {
  server::FrameHeader header;
  if (bytes.size() < server::kFrameHeaderSize) {
    return Status::Corruption("short canonical answer");
  }
  Status st = server::DecodeFrameHeader(
      bytes.substr(0, server::kFrameHeaderSize), &header);
  if (!st.ok()) return st;
  server::RefineResponse response;
  st = server::DecodeRefineResponse(bytes.substr(server::kFrameHeaderSize),
                                    &response);
  if (!st.ok()) return st;
  response.degraded = (header.flags & server::kFrameFlagDegraded) != 0;
  return response;
}

bool SameAnswer(const server::RefineResponse& a,
                const server::RefineResponse& b) {
  if (a.degraded != b.degraded || a.needs_refinement != b.needs_refinement ||
      a.refined.size() != b.refined.size()) {
    return false;
  }
  for (size_t i = 0; i < a.refined.size(); ++i) {
    const server::RefineResponse::Entry& x = a.refined[i];
    const server::RefineResponse::Entry& y = b.refined[i];
    // Scores travel as their bit patterns, so compare bits, not values.
    if (x.query != y.query || x.result_count != y.result_count ||
        std::memcmp(&x.score, &y.score, sizeof x.score) != 0) {
      return false;
    }
  }
  return true;
}

std::string ReferenceAnswer(const core::XRefine& engine,
                            const std::string& query_text) {
  core::RefineOutcome outcome = engine.Run(text::TokenizeQuery(query_text));
  if (!outcome.status.ok()) return "error: " + outcome.status.ToString();
  return CanonicalBytes(ToResponse(outcome));
}

uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace xrefine::perfbench
