// Regenerates the checked-in seed corpora under tests/fuzz_corpora/. Each
// seed is a small, VALID (or deliberately near-valid) input for one
// harness, built from the same fixtures the unit tests use — the fuzzers
// and regression runners then mutate outward from real structure instead
// of fighting the format's magic bytes from scratch. Crasher files found
// by fuzzing are added to the same directories by hand (see the corpus
// README for naming) and are NOT touched by this generator.
//
// Usage: make_seeds [output root]    (default: tests/fuzz_corpora)
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "index/flat_postings.h"
#include "index/index_store.h"
#include "index/posting_blocks.h"
#include "server/frame.h"
#include "storage/kvstore.h"
#include "tests/test_helpers.h"
#include "xml/dewey.h"

namespace {

namespace fs = std::filesystem;

bool WriteSeed(const fs::path& dir, const std::string& name,
               std::string_view bytes) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", (dir / name).c_str());
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", (dir / name).c_str(), bytes.size());
  return true;
}

// The posting-decode harness skips 8 reserved bytes before the record.
std::string WithProbePrefix(std::string_view record) {
  std::string out("\x00\x00\x00\x02\x00\x00\x00\x05", 8);
  out.append(record);
  return out;
}

xrefine::index::FlatPostingList SamplePostings() {
  using xrefine::xml::Dewey;
  xrefine::index::FlatPostingList list;
  // Shape mirrors Figure 1's inverted lists: clustered siblings under two
  // authors plus a deep straggler, enough to exercise prefix reuse.
  for (uint32_t leaf = 0; leaf < 160; ++leaf) {
    list.Append(Dewey({0, leaf / 40, 1, leaf % 40, leaf % 3}),
                static_cast<xrefine::xml::TypeId>(leaf % 7));
  }
  return list;
}

// The raw bytes of a store file that `fill` wrote ({} when it failed).
template <typename Fill>
std::string StoreImage(const fs::path& scratch, Fill fill) {
  {
    auto store_or = xrefine::storage::KVStore::Open(scratch.string());
    if (!store_or.ok() || !fill(store_or.value().get()).ok()) return {};
  }
  std::ifstream in(scratch, std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::error_code ec;
  fs::remove(scratch, ec);
  return image;
}

// A store file holding the Figure 1 corpus, as raw bytes.
std::string Figure1StoreImage(const fs::path& scratch) {
  auto corpus = xrefine::testutil::MakeFigure1Corpus();
  return StoreImage(scratch, [&](xrefine::storage::KVStore* store) {
    return xrefine::index::SaveCorpus(*corpus.index, store);
  });
}

// One of testutil::WriteBadStore's stores, as raw bytes.
std::string BadStoreImage(const fs::path& scratch,
                          xrefine::testutil::BadStore kind) {
  return StoreImage(scratch, [&](xrefine::storage::KVStore* store) {
    return xrefine::testutil::WriteBadStore(kind, store);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? argv[1] : "tests/fuzz_corpora";
  bool ok = true;

  // --- posting_decode: the stored format plus edge shapes ---------------
  // (v2_flat, a record of the retired version-2 layout, is kept by hand as
  // an input that must be rejected; it is no longer generated.)
  {
    const fs::path dir = root / "posting_decode";
    const xrefine::index::FlatPostingList list = SamplePostings();
    ok &= WriteSeed(dir, "v3_blocked_default",
                    WithProbePrefix(xrefine::index::EncodePostings(list)));
    ok &= WriteSeed(dir, "v3_blocked_capacity4",
                    WithProbePrefix(xrefine::index::EncodePostings(list, 4)));
    ok &= WriteSeed(dir, "empty_list",
                    WithProbePrefix(xrefine::index::EncodePostings({})));
    std::string truncated = xrefine::index::EncodePostings(list);
    truncated.resize(truncated.size() / 2);
    ok &= WriteSeed(dir, "v3_truncated", WithProbePrefix(truncated));
  }

  // --- dewey: split-length byte + two label texts -----------------------
  {
    const fs::path dir = root / "dewey";
    ok &= WriteSeed(dir, "siblings", std::string("\x05", 1) + "0.1.2" + "0.1.3");
    ok &= WriteSeed(dir, "ancestor_pair",
                    std::string("\x03", 1) + "0.1" + "0.1.2.3.4");
    ok &= WriteSeed(dir, "big_ordinals",
                    std::string("\x14", 1) + "4294967295.0.4294967295" +
                        "4294967295.1");
    ok &= WriteSeed(dir, "root_and_deep",
                    std::string("\x00", 1) + "0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0");
    ok &= WriteSeed(dir, "malformed",
                    std::string("\x04", 1) + "0..1" + "1.2.x");
  }

  // --- btree_page: claimed-size byte + node pages of a real store -------
  {
    const fs::path dir = root / "btree_page";
    std::string image = Figure1StoreImage(root / "btree_page.scratch");
    if (image.size() > xrefine::storage::kPageSize) {
      // Drop the meta page — the harness supplies its own.
      std::string nodes = image.substr(xrefine::storage::kPageSize);
      ok &= WriteSeed(dir, "figure1_nodes", std::string("\x08", 1) + nodes);
      ok &= WriteSeed(dir, "figure1_first_node",
                      std::string("\x08", 1) +
                          nodes.substr(0, xrefine::storage::kPageSize));
    } else {
      ok = false;
    }
    ok &= WriteSeed(dir, "zero_pages", std::string("\x00", 1));
  }

  // --- store_open: complete store images --------------------------------
  {
    const fs::path dir = root / "store_open";
    std::string image = Figure1StoreImage(root / "store_open.scratch");
    ok &= !image.empty() && WriteSeed(dir, "figure1_store", image);
    std::string truncated = image.substr(0, image.size() / 2);
    ok &= WriteSeed(dir, "figure1_truncated", truncated);
    // Stores one record away from valid that once crashed or hung the
    // query the harness runs (see the corpus README).
    using xrefine::testutil::BadStore;
    const std::pair<const char*, BadStore> bad_stores[] = {
        {"uint32_max_label", BadStore::kUint32MaxLabel},
        {"posting_type_out_of_range", BadStore::kPostingTypeOutOfRange},
        {"freq_row_type_out_of_range", BadStore::kFreqRowTypeOutOfRange},
        {"empty_label", BadStore::kEmptyLabel},
    };
    for (const auto& [name, kind] : bad_stores) {
      std::string bad = BadStoreImage(root / "store_open.scratch", kind);
      ok &= !bad.empty() && WriteSeed(dir, name, bad);
    }
  }

  // --- xml: mode byte + document text -----------------------------------
  {
    const fs::path dir = root / "xml";
    ok &= WriteSeed(dir, "figure1",
                    std::string("\x01", 1) + xrefine::testutil::kFigure1Xml);
    ok &= WriteSeed(
        dir, "kitchen_sink",
        std::string("\x03", 1) +
            "<?xml version=\"1.0\"?><!DOCTYPE r><r a=\"v &amp; w\">"
            "<!-- c --><![CDATA[<raw>]]>text &lt;&gt;&quot;&apos;"
            "<child/><?pi data?></r>");
    ok &= WriteSeed(dir, "deep_nesting",
                    std::string("\x05", 1) +
                        "<a><a><a><a><a><a><a><a><a><a><a><a><a><a><a><a><a>"
                        "x</a></a></a></a></a></a></a></a></a></a></a></a>"
                        "</a></a></a></a></a>");
    ok &= WriteSeed(dir, "unclosed", std::string("\x00", 1) + "<a><b>text");
  }

  // --- query: vocab-length byte + vocab text + query text ---------------
  {
    const fs::path dir = root / "query";
    // First byte n reserves n*4 bytes of vocabulary text.
    ok &= WriteSeed(dir, "segmentation",
                    std::string("\x08", 1) +
                        "skyline computation data stream " +
                        "skylinecomputation over datastream");
    ok &= WriteSeed(dir, "figure1_queries",
                    std::string("\x04", 1) + "martin sigmod eff " +
                        "martn 2003 efficient XML keyword");
    ok &= WriteSeed(dir, "stemming",
                    std::string("\x00", 1) +
                        "running runs ran efficiently efficient databases");
  }

  // --- frame: complete wire frames (header + payload) -------------------
  {
    namespace srv = xrefine::server;
    const fs::path dir = root / "frame";
    srv::RefineRequest request;
    request.deadline_ms = 250;
    request.query = "martn 2003 efficient XML keyword";
    ok &= WriteSeed(dir, "refine_request",
                    srv::EncodeRefineRequestFrame(7, request));
    srv::RefineResponse response;
    response.needs_refinement = true;
    response.prepare_us = 1200;
    response.scan_us = 5400;
    response.rank_us = 300;
    response.refined.push_back({"martin 2003 efficient xml keyword", 0.91, 4});
    response.refined.push_back({"martin 2003 effective xml keyword", 0.44, 1});
    ok &= WriteSeed(dir, "refine_response",
                    srv::EncodeRefineResponseFrame(7, response));
    srv::RefineResponse degraded = response;
    degraded.degraded = true;
    ok &= WriteSeed(dir, "refine_response_degraded",
                    srv::EncodeRefineResponseFrame(8, degraded));
    ok &= WriteSeed(
        dir, "error_unavailable",
        srv::EncodeErrorFrame(
            9, xrefine::Status::Unavailable("candidate fan-out too large")));
    srv::RetryAfter ra;
    ra.retry_after_ms = 50;
    ra.queue_depth = 48;
    ok &= WriteSeed(dir, "retry_after", srv::EncodeRetryAfterFrame(10, ra));
    ok &= WriteSeed(dir, "ping",
                    srv::EncodeEmptyFrame(srv::FrameType::kPing, 11));
    ok &= WriteSeed(dir, "stats_response",
                    srv::EncodeStatsResponseFrame(
                        12, "{\"server.requests\":{\"count\":3}}"));
    std::string truncated = srv::EncodeRefineResponseFrame(7, response);
    truncated.resize(truncated.size() / 2);
    ok &= WriteSeed(dir, "refine_response_truncated", truncated);

    // Pipelined streams: several frames with interleaved request ids back
    // to back, the byte sequences a depth-k session actually produces. The
    // frame harness walks inputs frame by frame, so these seed mutations
    // that corrupt a header or payload mid-stream.
    srv::RefineRequest second = request;
    second.deadline_ms = 0;
    second.query = "skyline computation data stream";
    srv::RefineRequest third = request;
    third.query = "martin sigmod";
    ok &= WriteSeed(dir, "pipelined_requests",
                    srv::EncodeRefineRequestFrame(21, request) +
                        srv::EncodeRefineRequestFrame(22, second) +
                        srv::EncodeRefineRequestFrame(23, third) +
                        srv::EncodeEmptyFrame(srv::FrameType::kPing, 24));
    // Responses in completion order, not send order: the out-of-order
    // correlation stream a pipelined client must absorb.
    ok &= WriteSeed(dir, "pipelined_responses_out_of_order",
                    srv::EncodeRefineResponseFrame(22, response) +
                        srv::EncodeRetryAfterFrame(23, ra) +
                        srv::EncodeRefineResponseFrame(21, degraded) +
                        srv::EncodeEmptyFrame(srv::FrameType::kPong, 24));
    // A clean frame, then one whose tail the wire never delivered.
    std::string mid_truncated = srv::EncodeRefineRequestFrame(31, request);
    mid_truncated += truncated;
    ok &= WriteSeed(dir, "pipelined_truncated_tail", mid_truncated);
  }

  if (!ok) {
    std::fprintf(stderr, "seed generation FAILED\n");
    return 1;
  }
  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}
