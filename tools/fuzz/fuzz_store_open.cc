// Fuzz surface: the whole store-open path over an untrusted file image.
// The input bytes ARE the page file: KVStore::Open, the metadata decoders
// (node types, statistics, co-occurrence cache), LoadCorpus over every
// stored posting record, and StoreBackedIndexSource::Open with its
// header-only vocabulary scan and lazy FetchList — every layer must either
// reject the image with a clean Status or serve it without crashing. A
// store that opens then answers one Partition query over its first two
// vocabulary keywords under a 1-s deadline: any status is a clean answer
// except DeadlineExceeded, which on stores this small means the scan
// stopped terminating, and aborts. This is the closest harness to "an
// attacker hands the engine a database file".
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/xrefine.h"
#include "index/cooccurrence.h"
#include "index/index_store.h"
#include "index/statistics.h"
#include "index/store_index_source.h"
#include "storage/kvstore.h"
#include "storage/pager.h"
#include "text/lexicon.h"
#include "tools/fuzz/fuzz_driver.h"
#include "xml/node_type.h"

namespace {

std::string ScratchPath() {
  static const std::string path =
      "fuzz_store_open." + std::to_string(::getpid()) + ".tmp";
  static const bool registered = [] {
    std::atexit([] {
      std::remove(("fuzz_store_open." + std::to_string(::getpid()) + ".tmp")
                      .c_str());
    });
    return true;
  }();
  (void)registered;
  return path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace storage = xrefine::storage;
  namespace index = xrefine::index;

  // The image verbatim — NOT padded. A length that is no multiple of the
  // page size must be rejected by the pager, and that rejection path is
  // part of the surface; seeds are whole-page images, so mutations mostly
  // keep exercising the deeper layers.
  const std::string path = ScratchPath();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) return 0;
  }

  storage::PagerOptions pager_options;
  pager_options.max_cached_pages = 64;
  auto store_or = storage::KVStore::Open(path, pager_options);
  if (!store_or.ok()) return 0;
  const auto& store = store_or.value();

  // Metadata-only load (what the store-backed source boots through).
  {
    xrefine::xml::NodeTypeTable types;
    index::StatisticsTable stats;
    index::CooccurrenceTable cooccurrence(nullptr, &types);
    (void)index::LoadCorpusMetadata(*store, &types, &stats, &cooccurrence);
  }

  // Full eager load: decodes every posting record in the file.
  (void)index::LoadCorpus(*store);

  // Lazy source: header-only vocabulary scan on open, then a bounded set
  // of real fetches so the record bodies get decoded through the cache.
  index::StoreIndexSourceOptions source_options;
  source_options.cache_capacity_bytes = 1 << 16;
  auto source_or =
      index::StoreBackedIndexSource::Open(store.get(), source_options);
  if (!source_or.ok()) return 0;
  const auto& source = source_or.value();
  std::vector<std::string> keywords;
  source->ForEachKeyword([&](std::string_view keyword) {
    if (keywords.size() < 16) keywords.emplace_back(keyword);
  });
  for (const std::string& keyword : keywords) {
    (void)source->ListSize(keyword);
    (void)source->FetchList(keyword);
  }

  // One query end to end: rules, list fetch, the partition scan, ranking.
  if (keywords.empty()) return 0;
  static const xrefine::text::Lexicon lexicon =
      xrefine::text::Lexicon::BuiltIn();
  xrefine::core::XRefine engine(source.get(), &lexicon);
  const size_t terms = std::min<size_t>(2, keywords.size());
  xrefine::core::Query q(keywords.begin(), keywords.begin() + terms);
  xrefine::core::RefineControl control;
  control.deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  const xrefine::core::RefineOutcome outcome = engine.Run(q, &control);
  if (outcome.status.code() == xrefine::StatusCode::kDeadlineExceeded) {
    std::fprintf(stderr, "store-open: query over a tiny store hit its 1-s "
                         "deadline (the scan stopped terminating)\n");
    std::abort();
  }
  return 0;
}
