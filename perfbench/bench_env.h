// The serving benchmark's fixed world: the corpus every workload shares, the
// daemon's engine configuration, the workloads, the seeded query traces, and
// the canonical answer bytes every served response is checked against.
#ifndef XREFINE_PERFBENCH_BENCH_ENV_H_
#define XREFINE_PERFBENCH_BENCH_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "core/xrefine.h"
#include "index/index_builder.h"
#include "index/store_index_source.h"
#include "server/frame.h"
#include "storage/kvstore.h"
#include "text/lexicon.h"
#include "xml/document.h"

namespace xrefine::perfbench {

/// One synthetic DBLP corpus for all workloads: 3000 authors, 102032
/// nodes, 760 keywords. A cold query on it costs about 5 ms, almost all of
/// it in the scan.
inline constexpr size_t kCorpusAuthors = 3000;

/// store_cold's caches, set well below what its trace touches (400 queries
/// touch about 440 lists, 5.3 MB decoded, in a 653-page store) so that the
/// pager, the B+-tree and posting decode run on nearly every request.
inline constexpr size_t kStorePostingCacheBytes = size_t{256} << 10;
inline constexpr size_t kStorePoolPages = 256;

/// zipf_hot: distinct queries (they fit the daemon's 1024-entry result
/// cache) and the pipeline depth of its one connection (the server sheds
/// past 16 per session).
inline constexpr size_t kHotPoolSize = 512;
inline constexpr size_t kHotDepth = 8;
/// zipf_hot request order: this many Zipf draws, replayed cyclically.
inline constexpr size_t kHotOrderLength = size_t{1} << 20;

/// Cold workloads: closed loop, one request outstanding per connection.
inline constexpr size_t kColdConnections = 2;
/// Distinct queries a cold trace holds. A run that exhausts them fails
/// loudly rather than repeat a query (a repeat would be a cache hit).
inline constexpr size_t kColdTraceLength = 24000;

/// Untimed queries sent before the timed window.
inline constexpr size_t kWarmupQueries = 32;

/// The query every set-up ends with: the serving process counts as set up
/// once it has answered this. No trace contains it.
inline constexpr std::string_view kSetupProbe = "databse query optimization";

enum class Workload { kColdMem, kZipfHot, kStoreCold };

bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload workload);
inline bool IsStoreBacked(Workload w) { return w == Workload::kStoreCold; }
inline bool IsHot(Workload w) { return w == Workload::kZipfHot; }

/// The generated corpus and its in-memory index (the index points into
/// the document, so both live together).
struct Corpus {
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<index::IndexedCorpus> index;
};

/// Builds the shared corpus. Either timing pointer may be null.
Corpus BuildCorpus(double* generate_s, double* index_build_s);

/// Writes `corpus` to a fresh store file at `path`, replacing any file
/// there.
Status WriteStore(const index::IndexedCorpus& corpus, const std::string& path);

/// store_cold's index source: the store file opened with the pool and
/// posting cache sized above. The source reads through `store`.
struct StoreSource {
  std::unique_ptr<storage::KVStore> store;
  std::unique_ptr<index::StoreBackedIndexSource> source;
};
StatusOr<StoreSource> OpenStoreSource(const std::string& path);

/// The daemon's primary engine: stock options with the 1024-entry result
/// cache on, as xrefine_serve runs it.
core::XRefineOptions ServingEngineOptions();

/// A workload's requests, generated from its seed before anything is
/// timed. Cold workloads send `queries` in order, each exactly once; the
/// hot workload sends `queries[order[i % order.size()]]`.
struct Trace {
  std::vector<std::string> warmup;
  std::vector<std::string> queries;
  std::vector<uint32_t> order;

  size_t PoolIndex(size_t i) const {
    return order.empty() ? i : order[i % order.size()];
  }
  const std::string& Request(size_t i) const { return queries[PoolIndex(i)]; }
};

/// Deterministic in (workload, seed): corrupted DBLP queries from the
/// workload query generator, kept only when the daemon would admit them
/// and their result-cache key is new (so no two requests share an entry
/// and none matches kSetupProbe).
Trace MakeTrace(const Corpus& corpus, const text::Lexicon& lexicon,
                Workload workload, uint64_t seed);

/// The daemon's response encoding of one outcome (mirrors the server's
/// worker path: refined queries joined by spaces, rank, result count).
server::RefineResponse ToResponse(const core::RefineOutcome& outcome);

/// Canonical bytes of a response: stage timings zeroed, request id 0. Two
/// answers are the same answer exactly when these bytes are equal.
std::string CanonicalBytes(server::RefineResponse response);

/// The response whose canonical bytes are `bytes`.
StatusOr<server::RefineResponse> DecodeCanonical(std::string_view bytes);

/// True exactly when `a` and `b` have equal canonical bytes, compared field
/// by field without encoding either (the check on zipf_hot's load thread).
bool SameAnswer(const server::RefineResponse& a,
                const server::RefineResponse& b);

/// Runs `query_text` in-process the way a worker does and returns the
/// canonical bytes of its answer.
std::string ReferenceAnswer(const core::XRefine& engine,
                            const std::string& query_text);

/// FNV-1a over `bytes`, continuing from `hash`.
uint64_t Fnv1a(uint64_t hash, std::string_view bytes);
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

}  // namespace xrefine::perfbench

#endif  // XREFINE_PERFBENCH_BENCH_ENV_H_
