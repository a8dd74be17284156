// Fuzz surface: stored posting records — the one decoder
// (DecodePostingsFlat) and the cheap count-only header read. Invariants
// checked:
//  * the decoder never reads outside the record or loops forever;
//  * every decode is non-OK or yields exactly the declared posting count:
//    an OK DecodePostingsFlat implies an OK DecodePostingCount, and the
//    decode yields exactly the count that read declares.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "index/flat_postings.h"
#include "index/posting_blocks.h"
#include "tools/fuzz/fuzz_driver.h"

namespace {

using xrefine::fuzz::ByteReader;

// Every committed seed starts with this many reserved bytes; the record
// follows them.
constexpr size_t kReservedPrefixBytes = 8;

void Require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "posting-decode invariant violated: %s\n", what);
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  ByteReader in(data, size);
  in.Bytes(kReservedPrefixBytes);
  std::string_view record = in.Rest();

  xrefine::index::FlatPostingList flat;
  if (!xrefine::index::DecodePostingsFlat(record, &flat).ok()) return 0;

  uint32_t declared = 0;
  Require(xrefine::index::DecodePostingCount(record, &declared).ok(),
          "full decode succeeded but count-only read failed");
  Require(declared == flat.size(),
          "decoded posting count differs from declared count");
  return 0;
}
