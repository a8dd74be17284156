// Interactive CLI: load any XML file (or generate a synthetic corpus) and
// type keyword queries; XRefine prints the refined queries with results.
// Accepting a refinement feeds the query log, whose mined rules improve
// later queries — the full closed loop of the paper's Section III-B rule
// sources.
//
//   ./build/examples/xrefine_cli path/to/data.xml
//   ./build/examples/xrefine_cli --dblp 300
//   ./build/examples/xrefine_cli --baseball
//   ./build/examples/xrefine_cli --xmark
//   ./build/examples/xrefine_cli --store index.xrdb
//
// `--store <file>` serves queries straight out of a persisted index built
// earlier with `--save-store <file>`: posting lists are read through the
// pager on demand and cached, so nothing is preloaded and the XML document
// itself is not needed (results print as Dewey labels).
//
// Optional flags: --lexicon <file>    (extra synonym/acronym entries),
//                 --log <file>        (persisted query log, updated on exit)
//                 --save-store <file> (persist the built index, then serve)
//                 --stats             (dump the metrics registry on exit)
//                 --dag               (hold the corpus DAG-compressed:
//                                      identical subtrees shared, identical
//                                      query results, order-of-magnitude
//                                      less tree memory on regular corpora)
//
// Commands at the prompt:
//   :algo stack|partition|sle     switch refinement algorithm
//   :topk N                       result count (a positive integer)
//   :rank on|off                  TF*IDF-order each RQ's results
//   :accept N                     record rank-N refinement as accepted
//   :expand <query>               suggest narrowing terms for a broad query
//   :stats                        print the metrics registry now
//   :quit                         exit
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "core/expansion.h"
#include "core/query_log.h"
#include "core/xrefine.h"
#include "index/index_builder.h"
#include "index/index_store.h"
#include "index/store_index_source.h"
#include "storage/kvstore.h"
#include "text/lexicon.h"
#include "text/tokenizer.h"
#include "workload/baseball_generator.h"
#include "workload/dblp_generator.h"
#include "workload/xmark_generator.h"
#include "xml/dag_document.h"
#include "xml/xml_parser.h"

namespace {

// `doc` is null when serving from a store (no XML document attached) or
// when the corpus is DAG-compressed; `dag` is set only in the latter case.
// With neither, results print as bare Dewey labels.
void PrintOutcome(const xrefine::core::RefineOutcome& outcome,
                  const xrefine::xml::Document* doc,
                  const xrefine::xml::DagDocument* dag) {
  if (!outcome.status.ok()) {
    std::cout << "query failed: " << outcome.status << "\n";
    return;
  }
  std::cout << "needs refinement: "
            << (outcome.needs_refinement ? "yes" : "no") << "\n";
  if (outcome.refined.empty()) {
    std::cout << "no refined query with meaningful results found\n";
    return;
  }
  int rank = 1;
  for (const auto& ranked : outcome.refined) {
    std::cout << rank++ << ". "
              << xrefine::core::QueryToString(ranked.rq.keywords)
              << "  dSim=" << ranked.rq.dissimilarity
              << "  score=" << ranked.rank << "  results="
              << ranked.results.size() << "\n";
    size_t shown = 0;
    for (const auto& r : ranked.results) {
      if (shown++ >= 3) {
        std::cout << "     ...\n";
        break;
      }
      auto node = doc == nullptr ? xrefine::xml::kInvalidNodeId
                                 : doc->FindByDewey(r.dewey);
      if (node != xrefine::xml::kInvalidNodeId) {
        std::cout << "     " << doc->Describe(node) << ": "
                  << doc->SubtreeText(node).substr(0, 70) << "\n";
      } else if (dag != nullptr &&
                 dag->FindByDewey(r.dewey) != xrefine::xml::kInvalidDagNodeId) {
        std::cout << "     " << dag->Describe(r.dewey) << ": "
                  << dag->SubtreeTextAt(r.dewey).substr(0, 70) << "\n";
      } else {
        std::cout << "     " << r.dewey.ToString() << "\n";
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  xrefine::xml::Document doc;
  xrefine::xml::DagDocument dag;
  std::string lexicon_path;
  std::string log_path;
  std::string store_path;       // serve from this store, no XML needed
  std::string save_store_path;  // persist the built index here
  bool loaded_data = false;
  bool dump_stats = false;

  // --dag changes how the corpus flags below build, so resolve it first
  // regardless of argument order.
  bool use_dag = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dag") == 0) use_dag = true;
  }

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--dag") {
      continue;
    } else if (arg == "--dblp") {
      xrefine::workload::DblpOptions options;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        options.num_authors = static_cast<size_t>(std::atoi(argv[++i]));
      }
      if (use_dag) {
        dag = xrefine::workload::GenerateDblpDag(options);
      } else {
        doc = xrefine::workload::GenerateDblp(options);
      }
      loaded_data = true;
    } else if (arg == "--baseball") {
      if (use_dag) {
        dag = xrefine::workload::GenerateBaseballDag({});
      } else {
        doc = xrefine::workload::GenerateBaseball({});
      }
      loaded_data = true;
    } else if (arg == "--xmark") {
      if (use_dag) {
        dag = xrefine::workload::GenerateXmarkDag({});
      } else {
        doc = xrefine::workload::GenerateXmark({});
      }
      loaded_data = true;
    } else if (arg == "--lexicon" && i + 1 < argc) {
      lexicon_path = argv[++i];
    } else if (arg == "--log" && i + 1 < argc) {
      log_path = argv[++i];
    } else if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--save-store" && i + 1 < argc) {
      save_store_path = argv[++i];
    } else if (arg == "--stats") {
      dump_stats = true;
    } else if (arg[0] != '-') {
      auto doc_or = xrefine::xml::ParseXmlFile(arg);
      if (!doc_or.ok()) {
        std::cerr << doc_or.status() << "\n";
        return 1;
      }
      doc = std::move(doc_or).value();
      if (use_dag) {
        // Post-parse compression; the uncompressed tree is then released.
        dag = xrefine::xml::CompressDocument(doc);
        doc = xrefine::xml::Document();
      }
      loaded_data = true;
    }
  }
  if (!loaded_data && store_path.empty()) {
    std::cerr << "usage: xrefine_cli <file.xml> | --dblp [n] | --baseball | "
                 "--xmark | --store f\n"
                 "       [--lexicon f] [--log f] [--save-store f] [--stats]\n"
                 "       [--dag]\n";
    return 1;
  }

  // The engine serves from any IndexSource; which one depends on the flags.
  std::unique_ptr<xrefine::index::IndexedCorpus> corpus;
  std::unique_ptr<xrefine::storage::KVStore> store;
  std::unique_ptr<xrefine::index::StoreBackedIndexSource> store_source;
  const xrefine::index::IndexSource* source = nullptr;
  const xrefine::xml::Document* doc_ptr = nullptr;

  if (loaded_data) {
    if (use_dag) {
      corpus = xrefine::index::BuildIndexFromDag(dag);
      std::cout << "DAG-compressed: " << dag.LogicalNodeCount()
                << " logical nodes held as " << dag.DagNodeCount()
                << " dag nodes (" << dag.SharedSubtreeCount() << " shared, "
                << dag.ResidentBytes() / 1024 << " KB resident)\n";
    } else {
      corpus = xrefine::index::BuildIndex(doc);
      doc_ptr = &doc;
    }
    source = corpus.get();
    if (!save_store_path.empty()) {
      auto store_or = xrefine::storage::KVStore::Open(save_store_path);
      if (!store_or.ok()) {
        std::cerr << store_or.status() << "\n";
        return 1;
      }
      auto st = xrefine::index::SaveCorpus(*corpus, store_or.value().get());
      if (!st.ok()) {
        std::cerr << st << "\n";
        return 1;
      }
      std::cout << "saved index to " << save_store_path << "\n";
    }
  } else {
    auto store_or = xrefine::storage::KVStore::Open(store_path);
    if (!store_or.ok()) {
      std::cerr << store_or.status() << "\n";
      return 1;
    }
    store = std::move(store_or).value();
    auto source_or =
        xrefine::index::StoreBackedIndexSource::Open(store.get(), {});
    if (!source_or.ok()) {
      std::cerr << source_or.status() << "\n";
      return 1;
    }
    store_source = std::move(source_or).value();
    source = store_source.get();
    std::cout << "serving from store " << store_path
              << " (lists fetched on demand)\n";
  }

  auto lexicon = xrefine::text::Lexicon::BuiltIn();
  if (!lexicon_path.empty()) {
    auto st = lexicon.LoadFromFile(lexicon_path);
    if (!st.ok()) {
      std::cerr << st << "\n";
      return 1;
    }
    std::cout << "loaded lexicon from " << lexicon_path << "\n";
  }

  xrefine::core::QueryLog log;
  if (!log_path.empty()) {
    auto log_or = xrefine::core::QueryLog::LoadFromFile(log_path);
    if (log_or.ok()) {
      log = std::move(log_or).value();
      std::cout << "loaded " << log.size() << " query-log entries\n";
    } else {
      // A missing file is the normal first run (the log is written on
      // exit); anything else is a real problem the user asked us to read.
      std::cerr << "warning: query log not loaded: " << log_or.status()
                << "\n";
    }
  }

  xrefine::core::XRefineOptions options;
  auto make_engine = [&]() {
    auto engine =
        std::make_unique<xrefine::core::XRefine>(source, &lexicon, options);
    if (log.size() > 0) engine->AttachQueryLog(log);
    return engine;
  };
  auto engine = make_engine();

  if (doc_ptr != nullptr) {
    std::cout << "indexed " << doc_ptr->NodeCount() << " nodes, ";
  }
  std::cout << source->keyword_count() << " keywords\n"
            << "type a keyword query (or :quit)\n";

  xrefine::core::Query last_query;
  xrefine::core::RefineOutcome last_outcome;

  std::string line;
  while (std::cout << "xrefine> " << std::flush &&
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ":quit" || line == ":q") break;
    if (line.rfind(":topk ", 0) == 0) {
      // A positive integer only: atoi would turn "foo" into 0.
      const std::string arg = line.substr(6);
      char* end = nullptr;
      errno = 0;
      const unsigned long k = std::strtoul(arg.c_str(), &end, 10);
      if (arg.empty() || arg[0] < '1' || arg[0] > '9' || *end != '\0' ||
          errno != 0) {
        std::cout << ":topk takes a positive integer; top_k stays "
                  << options.top_k << "\n";
        continue;
      }
      options.top_k = static_cast<size_t>(k);
      std::cout << "top_k = " << options.top_k << "\n";
      engine = make_engine();
      continue;
    }
    if (line.rfind(":rank ", 0) == 0) {
      options.rank_results = line.substr(6) == "on";
      std::cout << "rank_results = "
                << (options.rank_results ? "on" : "off") << "\n";
      engine = make_engine();
      continue;
    }
    if (line.rfind(":accept ", 0) == 0) {
      size_t n = static_cast<size_t>(std::atoi(line.c_str() + 8));
      if (last_query.empty() || n == 0 || n > last_outcome.refined.size()) {
        std::cout << "nothing to accept (run a query first)\n";
        continue;
      }
      log.Record(last_query, last_outcome.refined[n - 1].rq.keywords);
      engine->AttachQueryLog(log);
      std::cout << "recorded; log now holds " << log.size()
                << " entries, mined rules refreshed\n";
      continue;
    }
    if (line.rfind(":expand ", 0) == 0) {
      xrefine::core::ExpansionOptions exp_options;
      exp_options.broad_threshold = 20;
      auto q = xrefine::text::TokenizeQuery(line.substr(8));
      auto outcome = xrefine::core::ExpandQuery(*source, q, exp_options);
      if (!outcome.status.ok()) {
        std::cout << "expansion failed: " << outcome.status << "\n";
        continue;
      }
      std::cout << "meaningful results: " << outcome.original_result_count
                << (outcome.is_broad ? " (broad)" : "") << "\n";
      for (const auto& ex : outcome.expansions) {
        std::cout << "  + \"" << ex.added_term << "\" -> "
                  << ex.result_count << " results (score " << ex.score
                  << ")\n";
      }
      continue;
    }
    if (line == ":stats") {
      xrefine::metrics::Registry::Global().DumpText(std::cout);
      if (use_dag && dag.DagNodeCount() > 0) {
        std::cout << "dag compression ratio: "
                  << static_cast<double>(dag.LogicalNodeCount()) /
                         static_cast<double>(dag.DagNodeCount())
                  << "x nodes (" << dag.ResidentBytes() / 1024
                  << " KB resident)\n";
      }
      continue;
    }
    if (line.rfind(":algo ", 0) == 0) {
      std::string name = line.substr(6);
      if (name == "stack") {
        options.algorithm = xrefine::core::RefineAlgorithm::kStackRefine;
      } else if (name == "partition") {
        options.algorithm = xrefine::core::RefineAlgorithm::kPartition;
      } else if (name == "sle") {
        options.algorithm = xrefine::core::RefineAlgorithm::kShortListEager;
      } else {
        std::cout << "unknown algorithm; use stack|partition|sle\n";
        continue;
      }
      std::cout << "algorithm = " << name << "\n";
      engine = make_engine();
      continue;
    }
    last_query = xrefine::text::TokenizeQuery(line);
    last_outcome = engine->Run(last_query);
    PrintOutcome(last_outcome, doc_ptr, use_dag ? &dag : nullptr);
  }

  if (!log_path.empty() && log.size() > 0) {
    auto st = log.SaveToFile(log_path);
    if (!st.ok()) {
      std::cerr << st << "\n";
    } else {
      std::cout << "saved query log to " << log_path << "\n";
    }
  }
  if (dump_stats) {
    std::cout << "--- metrics ---\n";
    xrefine::metrics::Registry::Global().DumpText(std::cout);
    if (use_dag && dag.DagNodeCount() > 0) {
      std::cout << "dag compression ratio: "
                << static_cast<double>(dag.LogicalNodeCount()) /
                       static_cast<double>(dag.DagNodeCount())
                << "x nodes (" << dag.ResidentBytes() / 1024
                << " KB resident)\n";
    }
  }
  return 0;
}
