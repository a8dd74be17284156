// SLCA algorithm comparison across inverted-list skew, mirroring the
// XKSearch finding the paper builds on: Indexed Lookup Eager wins when the
// shortest list is much shorter than the others (it binary-searches the
// long lists), Scan Eager and the stack merge win when list lengths are
// comparable. Also reports ELCA (the XRank semantics extension) and the
// index-construction costs at three corpus scales (Section VII pipeline).
#include "bench/bench_util.h"
#include "index/index_store.h"
#include "slca/elca.h"
#include "slca/slca.h"
#include "storage/kvstore.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xrefine::bench {
namespace {

// Query pairs with different frequency skew: (rare term, common term).
struct SkewCase {
  const char* label;
  core::Query q;
};

void SlcaComparison() {
  PrintHeader("SLCA algorithms vs list-length skew (ms, hot cache)");
  Env env = MakeDblpEnv(2000);

  auto list_size = [&](const std::string& k) {
    return env.corpus->index().ListSize(k);
  };
  // Assemble queries with measured skew.
  const SkewCase cases[] = {
      {"very-rare+common", {"tennis", "data"}},
      {"rare+common", {"skyline", "data"}},
      {"rare+common+common", {"wavelet", "query", "system"}},
      {"balanced-common", {"database", "query", "system"}},
      {"balanced-mid", {"mining", "learning", "ranking"}},
      {"all-rare", {"skyline", "wavelet", "curation"}},
  };

  std::printf("%-22s %-28s %10s %10s %10s %10s\n", "case", "list sizes",
              "stack", "scan", "ilookup", "elca");
  for (const auto& c : cases) {
    std::string sizes;
    std::vector<slca::PostingSpan> lists;
    bool ok = true;
    for (const auto& k : c.q) {
      if (!sizes.empty()) sizes += "/";
      sizes += std::to_string(list_size(k));
      const index::FlatPostingList* list = env.corpus->index().Find(k);
      if (list == nullptr) {
        ok = false;
        break;
      }
      lists.emplace_back(*list);
    }
    if (!ok) continue;
    double stack = TimeMs([&] {
      slca::ComputeSlca(lists, env.corpus->types(),
                       slca::SlcaAlgorithm::kStack);
    }, 5);
    double scan = TimeMs([&] {
      slca::ComputeSlca(lists, env.corpus->types(),
                       slca::SlcaAlgorithm::kScanEager);
    }, 5);
    double ilookup = TimeMs([&] {
      slca::ComputeSlca(lists, env.corpus->types(),
                       slca::SlcaAlgorithm::kIndexedLookup);
    }, 5);
    double elca = TimeMs([&] {
      slca::Elca(lists, env.corpus->types());
    }, 5);
    std::printf("%-22s %-28s %10.3f %10.3f %10.3f %10.3f\n", c.label,
                sizes.c_str(), stack, scan, ilookup, elca);
  }
  std::printf(
      "\nnote: indexed lookup pays off only under extreme skew (its binary\n"
      "probes beat a full scan once |S_min|*log|S_max| << sum|S_i|);\n"
      "scan-eager dominates the moderate cases, which is exactly why the\n"
      "paper's Partition/SLE default to it for SLCA computation.\n");
}

void IndexConstruction() {
  PrintHeader("Index construction pipeline at three scales (ms)");
  std::printf("%-10s %10s %10s %10s %10s %10s %12s\n", "authors", "nodes",
              "parse", "build", "save", "load", "store-pages");
  for (size_t authors : {250, 1000, 4000}) {
    workload::DblpOptions gen;
    gen.num_authors = authors;
    auto doc = workload::GenerateDblp(gen);
    std::string xml_text = xml::WriteXml(doc);

    Timer t;
    auto parsed = xml::ParseXml(xml_text);
    double parse_ms = t.ElapsedMillis();
    if (!parsed.ok()) continue;

    t.Reset();
    auto corpus = index::BuildIndex(*parsed);
    double build_ms = t.ElapsedMillis();

    std::string path = "/tmp/xrefine_bench_index.db";
    std::remove(path.c_str());
    auto store = storage::KVStore::Open(path);
    if (!store.ok()) continue;
    t.Reset();
    auto save = index::SaveCorpus(*corpus, store->get());
    double save_ms = t.ElapsedMillis();
    if (!save.ok()) continue;

    t.Reset();
    auto loaded = index::LoadCorpus(**store);
    double load_ms = t.ElapsedMillis();
    if (!loaded.ok()) continue;

    std::printf("%-10zu %10zu %10.1f %10.1f %10.1f %10.1f %12u\n", authors,
                parsed->NodeCount(), parse_ms, build_ms, save_ms, load_ms,
                store.value()->pager().page_count());
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace xrefine::bench

int main() {
  xrefine::bench::SlcaComparison();
  xrefine::bench::IndexConstruction();
  return 0;
}
