// Tests for the stored posting-list format (record version 3) and its one
// decoder: round-trips, block geometry, the committed fuzz seeds pinned
// byte for byte, and — the load-bearing part — corruption fuzzing plus one
// hand-built record per decode check. The decode contract is "non-OK Status
// or exactly the declared postings": a truncated or bit-flipped record must
// never yield a silently short list.
#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "index/posting_blocks.h"
#include "storage/serde.h"

namespace xrefine::index {
namespace {

// A list of type-0 postings with the given labels, in the given order.
FlatPostingList L(std::initializer_list<std::vector<uint32_t>> labels) {
  FlatPostingList list;
  for (const auto& label : labels) list.Append(xml::Dewey(label), 0);
  return list;
}

// A random document-ordered posting list with deep chains, duplicate
// labels, and ancestor/descendant pairs in the same list.
FlatPostingList RandomList(Random& rng, size_t n, size_t max_depth) {
  FlatPostingList list;
  std::vector<uint32_t> label = {0};
  for (size_t i = 0; i < n; ++i) {
    // Random walk in document order: either descend (append components),
    // or move to a later sibling at a random depth.
    if (rng.OneIn(0.4) && label.size() < max_depth) {
      size_t grow = static_cast<size_t>(rng.Uniform(1, 3));
      for (size_t g = 0; g < grow && label.size() < max_depth; ++g) {
        label.push_back(static_cast<uint32_t>(rng.Uniform(0, 4)));
      }
    } else if (!rng.OneIn(0.2)) {  // 0.2: emit a duplicate label
      size_t cut = static_cast<size_t>(
          rng.Uniform(1, static_cast<int64_t>(label.size())));
      label.resize(cut);
      label.back() += static_cast<uint32_t>(rng.Uniform(1, 3));
    }
    list.Append(xml::Dewey(label),
                static_cast<xml::TypeId>(rng.Uniform(0, 7)));
  }
  return list;
}

void ExpectRoundTrip(const FlatPostingList& list, size_t block_capacity) {
  std::string record = EncodePostings(list, block_capacity);
  FlatPostingList decoded;
  ASSERT_TRUE(DecodePostingsFlat(record, &decoded).ok());
  EXPECT_EQ(decoded, list);
  uint32_t count = 0;
  ASSERT_TRUE(DecodePostingCount(record, &count).ok());
  EXPECT_EQ(count, list.size());
}

// One block header as written, plus its first posting's reuse count.
struct BlockHeader {
  uint32_t count = 0;
  std::vector<uint32_t> max;
  uint32_t first_reuse = 0;
};

// Walks a well-formed record's block headers (test-side reader of the
// layout documented in posting_blocks.h).
std::vector<BlockHeader> ReadBlockHeaders(const std::string& record,
                                          uint32_t* capacity) {
  const char* p = record.data() + 1;
  const char* limit = record.data() + record.size();
  uint32_t total = 0;
  EXPECT_TRUE(storage::GetVarint32(&p, limit, &total));
  EXPECT_TRUE(storage::GetVarint32(&p, limit, capacity));
  std::vector<BlockHeader> blocks;
  while (p < limit) {
    BlockHeader block;
    uint32_t payload_bytes = 0;
    uint32_t depth = 0;
    EXPECT_TRUE(storage::GetVarint32(&p, limit, &payload_bytes));
    EXPECT_TRUE(storage::GetVarint32(&p, limit, &block.count));
    EXPECT_TRUE(storage::GetVarint32(&p, limit, &depth));
    block.max.resize(depth);
    for (uint32_t& c : block.max) {
      EXPECT_TRUE(storage::GetVarint32(&p, limit, &c));
    }
    const char* payload = p;
    uint32_t type = 0;
    EXPECT_TRUE(storage::GetVarint32(&payload, limit, &type));
    EXPECT_TRUE(storage::GetVarint32(&payload, limit, &block.first_reuse));
    p += payload_bytes;
    blocks.push_back(std::move(block));
  }
  return blocks;
}

TEST(PostingBlocksTest, RoundTripAcrossCapacities) {
  Random rng(7);
  FlatPostingList list = RandomList(rng, 1000, 12);
  for (size_t capacity : {1u, 2u, 3u, 7u, 128u, 2048u}) {
    ExpectRoundTrip(list, capacity);
  }
}

TEST(PostingBlocksTest, RoundTripEmptyList) {
  ExpectRoundTrip(FlatPostingList{}, 128);
  // Version 3, zero postings, capacity 128 (a two-byte varint), no blocks.
  EXPECT_EQ(EncodePostings(FlatPostingList{}),
            std::string("\x03\x00\x80\x01", 4));
}

TEST(PostingBlocksTest, RoundTripSinglePosting) {
  ExpectRoundTrip(L({{0, 3, 1}}), 128);
  // Root (depth-0) label is representable too.
  ExpectRoundTrip(L({{}}), 128);
}

TEST(PostingBlocksTest, RoundTripMaxDepthLabel) {
  // A pathologically deep label (the parser's depth guard allows up to
  // 512). deep starts with 0, so document order is {0} < deep < {1}.
  std::vector<uint32_t> deep;
  for (uint32_t d = 0; d < 512; ++d) deep.push_back(d % 5);
  FlatPostingList list;
  list.Append(xml::Dewey({0}), 0);
  list.Append(xml::Dewey(deep), 0);
  list.Append(xml::Dewey({1}), 0);
  for (size_t capacity : {1u, 2u, 128u}) ExpectRoundTrip(list, capacity);
}

TEST(PostingBlocksTest, BlockBoundaryStraddle) {
  // capacity*2+1 postings: two full blocks plus a one-posting tail, with a
  // deep shared prefix crossing the boundary so the first posting of each
  // block must re-carry the full label (blocks are self-contained).
  const uint32_t capacity = 4;
  FlatPostingList list;
  for (uint32_t i = 0; i < 2 * capacity + 1; ++i) {
    list.Append(xml::Dewey({0, 1, 2, 3, i}), 0);
  }
  std::string record = EncodePostings(list, capacity);
  uint32_t declared_capacity = 0;
  std::vector<BlockHeader> blocks = ReadBlockHeaders(record, &declared_capacity);
  EXPECT_EQ(declared_capacity, capacity);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].count, capacity);
  EXPECT_EQ(blocks[1].count, capacity);
  EXPECT_EQ(blocks[2].count, 1u);
  for (const BlockHeader& block : blocks) EXPECT_EQ(block.first_reuse, 0u);
  ExpectRoundTrip(list, capacity);
}

TEST(PostingBlocksTest, BlockMaxIsEachBlocksLastLabel) {
  Random rng(17);
  FlatPostingList list = RandomList(rng, 700, 10);
  const uint32_t capacity = 16;
  uint32_t declared_capacity = 0;
  std::vector<BlockHeader> blocks =
      ReadBlockHeaders(EncodePostings(list, capacity), &declared_capacity);
  EXPECT_EQ(declared_capacity, capacity);
  size_t first = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b].count, b + 1 < blocks.size()
                                   ? capacity
                                   : list.size() - first);
    size_t last = first + blocks[b].count - 1;
    ASSERT_LT(last, list.size());
    EXPECT_EQ(xml::Dewey(blocks[b].max), list.DeweyAt(last)) << "block " << b;
    EXPECT_EQ(blocks[b].first_reuse, 0u) << "block " << b;
    first += blocks[b].count;
  }
  EXPECT_EQ(first, list.size());
}

// --- the committed fuzz seeds pin the format ---------------------------------

std::string ReadSeed(const std::string& name) {
  std::ifstream in(std::string(XREFINE_FUZZ_CORPORA_DIR) +
                       "/posting_decode/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// The posting-decode harness reads 8 probe bytes before the record.
constexpr size_t kProbeBytes = 8;

// Each valid seed decodes and re-encodes, at its own block capacity, to
// exactly the committed bytes: the encoder and the on-disk layout cannot
// drift without this test noticing.
TEST(PostingFormatPinTest, CommittedSeedsReencodeByteForByte) {
  for (const char* name :
       {"v3_blocked_default", "v3_blocked_capacity4", "empty_list"}) {
    std::string seed = ReadSeed(name);
    ASSERT_GT(seed.size(), kProbeBytes) << name;
    std::string record = seed.substr(kProbeBytes);
    FlatPostingList list;
    ASSERT_TRUE(DecodePostingsFlat(record, &list).ok()) << name;
    uint32_t capacity = 0;
    ReadBlockHeaders(record, &capacity);
    EXPECT_EQ(EncodePostings(list, capacity), record) << name;
  }
}

// Records of the retired flat format (version 2), the two crashers, and a
// cut-short record are all rejected.
TEST(PostingFormatPinTest, RetiredAndCrasherSeedsAreRejected) {
  for (const char* name : {"v2_flat", "crash-v2-trailing-bytes"}) {
    std::string record = ReadSeed(name).substr(kProbeBytes);
    FlatPostingList list;
    Status st = DecodePostingsFlat(record, &list);
    EXPECT_TRUE(st.IsCorruption()) << name << ": " << st;
    EXPECT_NE(st.message().find("unsupported format version 2"),
              std::string::npos)
        << name << ": " << st;
    uint32_t count = 0;
    EXPECT_FALSE(DecodePostingCount(record, &count).ok()) << name;
  }
  for (const char* name : {"crash-v3-unsorted-block-max", "v3_truncated"}) {
    FlatPostingList list;
    Status st = DecodePostingsFlat(ReadSeed(name).substr(kProbeBytes), &list);
    EXPECT_TRUE(st.IsCorruption()) << name << ": " << st;
  }
}

// --- corruption fuzzing ------------------------------------------------------

// Declared posting count at the head of a record (immediately after the
// version byte).
bool ReadDeclaredCount(const std::string& record, uint32_t* count) {
  if (record.empty()) return false;
  const char* p = record.data() + 1;
  return storage::GetVarint32(&p, record.data() + record.size(), count);
}

// The decode contract under arbitrary corruption: either a non-OK Status,
// or an OK decode of exactly the count the (corrupt) record declares —
// never a silently short or long list, never a crash (ASan/UBSan legs run
// this test too).
void ExpectFailsOrExactCount(const std::string& record) {
  FlatPostingList flat;
  Status st = DecodePostingsFlat(record, &flat);
  if (!st.ok()) return;
  uint32_t declared = 0;
  ASSERT_TRUE(ReadDeclaredCount(record, &declared));
  EXPECT_EQ(flat.size(), declared);
}

TEST(PostingBlocksFuzzTest, EveryTruncationFailsLoudly) {
  Random rng(27);
  std::string record = EncodePostings(RandomList(rng, 300, 8));
  for (size_t len = 0; len < record.size(); ++len) {
    std::string truncated = record.substr(0, len);
    FlatPostingList flat;
    Status st = DecodePostingsFlat(truncated, &flat);
    // A strict prefix can never decode to the full declared count, so OK
    // is unconditionally a silent-truncation bug here.
    EXPECT_FALSE(st.ok()) << "decoded a " << len << "-byte prefix of a "
                          << record.size() << "-byte record";
  }
}

TEST(PostingBlocksFuzzTest, TrailingBytesAreRejected) {
  for (char trailing : {'\0', '\x05'}) {
    std::string record = EncodePostings(L({{0, 1}, {0, 2}})) + trailing;
    FlatPostingList flat;
    EXPECT_FALSE(DecodePostingsFlat(record, &flat).ok());
  }
}

TEST(PostingBlocksFuzzTest, SingleBitFlipsNeverDecodeShort) {
  Random rng(37);
  std::string record = EncodePostings(RandomList(rng, 120, 8));
  for (size_t byte = 0; byte < record.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = record;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      ExpectFailsOrExactCount(flipped);
    }
  }
}

TEST(PostingBlocksFuzzTest, RandomMultiByteCorruption) {
  Random rng(47);
  std::string record = EncodePostings(RandomList(rng, 400, 10));
  for (int round = 0; round < 400; ++round) {
    std::string mutated = record;
    size_t edits = static_cast<size_t>(rng.Uniform(1, 8));
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.Uniform(0, 255));
    }
    if (rng.OneIn(0.3)) {
      mutated.resize(static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()))));
    }
    ExpectFailsOrExactCount(mutated);
  }
}

// --- regression records: one per decode check --------------------------------
//
// Hand-built records that each trip exactly one validation, named by the
// message it reports. Every varint below is a single byte unless noted.

std::string Bytes(std::initializer_list<uint8_t> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

void ExpectRejectedBy(const std::string& record, const std::string& check) {
  FlatPostingList flat;
  Status st = DecodePostingsFlat(record, &flat);
  ASSERT_FALSE(st.ok()) << check;
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_NE(st.message().find(check), std::string::npos)
      << "expected \"" << check << "\", got " << st;
}

// v3, total 1, capacity 4: the record head the block cases below share.
const std::string kOnePostingHead = Bytes({3, 1, 4});

TEST(PostingDecodeChecksTest, ValidHandBuiltRecordDecodes) {
  // One block: payload 5, count 1, max (0,3); posting type 1, reuse 0,
  // fresh 2, components 0 3. The cases below each break one field of it.
  std::string record = kOnePostingHead + Bytes({5, 1, 2, 0, 3, 1, 0, 2, 0, 3});
  FlatPostingList flat;
  ASSERT_TRUE(DecodePostingsFlat(record, &flat).ok());
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat.DeweyAt(0), xml::Dewey({0, 3}));
  EXPECT_EQ(flat.type(0), 1u);
}

TEST(PostingDecodeChecksTest, EmptyRecord) {
  ExpectRejectedBy("", "empty record");
}

TEST(PostingDecodeChecksTest, BadVersion) {
  // The minimized v2 crasher: version 2, zero postings, two stray bytes.
  ExpectRejectedBy(Bytes({2, 0, 0, 5}), "unsupported format version 2");
  ExpectRejectedBy(Bytes({4, 0, 4}), "unsupported format version 4");
}

TEST(PostingDecodeChecksTest, BadRecordHeader) {
  ExpectRejectedBy(Bytes({3}), "bad record header");
  ExpectRejectedBy(Bytes({3, 1}), "bad record header");
  ExpectRejectedBy(Bytes({3, 1, 0x80}), "bad record header");
}

TEST(PostingDecodeChecksTest, ZeroBlockCapacity) {
  ExpectRejectedBy(Bytes({3, 0, 0}), "zero block capacity");
}

TEST(PostingDecodeChecksTest, HostileTotalCount) {
  // Total 0xffffffff (five-byte varint) against a 10-byte remainder: it
  // must be rejected before it sizes the reserve.
  ExpectRejectedBy(Bytes({3, 0xff, 0xff, 0xff, 0xff, 0x0f, 4, 5, 1, 2, 0, 3, 1,
                          0, 2, 0, 3}),
                   "exceeds record capacity");
}

TEST(PostingDecodeChecksTest, TruncatedBlockHeader) {
  // v3, total 0, capacity 4, then a block header cut after its count.
  ExpectRejectedBy(Bytes({3, 0, 4, 5, 1}), "truncated block header");
}

TEST(PostingDecodeChecksTest, BlockCountZero) {
  ExpectRejectedBy(kOnePostingHead + Bytes({5, 0, 2, 0, 3, 1, 0, 2, 0, 3}),
                   "bad block count");
}

TEST(PostingDecodeChecksTest, BlockCountAboveCapacity) {
  // Capacity 1, one block of two postings: (0,3) then (0,4) with reuse 1.
  ExpectRejectedBy(
      Bytes({3, 2, 1, 9, 2, 2, 0, 4, 1, 0, 2, 0, 3, 1, 1, 1, 4}),
      "bad block count");
}

TEST(PostingDecodeChecksTest, MaxLabelDeeperThanRemainingBytes) {
  ExpectRejectedBy(kOnePostingHead + Bytes({5, 1, 0x7f, 0, 3}),
                   "block max depth exceeds record");
}

TEST(PostingDecodeChecksTest, TruncatedBlockMaxLabel) {
  ExpectRejectedBy(kOnePostingHead + Bytes({5, 1, 2, 0x80, 0x80}),
                   "truncated block max label");
}

TEST(PostingDecodeChecksTest, PayloadLongerThanRecord) {
  // Capacity 127, then a block declaring 127 payload bytes — far past the
  // record end.
  ExpectRejectedBy(Bytes({3, 1, 0x7f, 0x7f, 1, 0}),
                   "block payload exceeds record");
}

TEST(PostingDecodeChecksTest, CountAbovePayloadOverThree) {
  // Two postings cannot fit in five payload bytes (each costs >= 3).
  ExpectRejectedBy(Bytes({3, 2, 4, 5, 2, 2, 0, 3, 1, 0, 2, 0, 3}),
                   "block count exceeds payload");
}

TEST(PostingDecodeChecksTest, BlockMaxesOutOfOrder) {
  // Regression (found by fuzz_posting_decode, crash-v3-unsorted-block-max):
  // block maxes that go backwards in document order. Two one-posting
  // blocks, (0,5) then (0,3); the same blocks in order decode fine.
  auto block = [](uint8_t leaf) {
    return Bytes({5, 1, 2, 0, leaf, 1, 0, 2, 0, leaf});
  };
  const std::string head = Bytes({3, 2, 1});  // v3, total 2, capacity 1
  FlatPostingList flat;
  EXPECT_TRUE(DecodePostingsFlat(head + block(3) + block(5), &flat).ok());
  ExpectRejectedBy(head + block(5) + block(3),
                   "block max labels out of order");
}

TEST(PostingDecodeChecksTest, BlockCountsDisagreeWithTotal) {
  std::string record = EncodePostings(L({{0, 1}, {0, 2}}), 128);
  // total is the varint at offset 1 (value 2, single byte): claim 3.
  ASSERT_EQ(record[1], 2);
  record[1] = 3;
  ExpectRejectedBy(record, "block counts sum to 2, record declares 3");
}

TEST(PostingDecodeChecksTest, PayloadTrailingBytes) {
  // The payload declares 6 bytes; its one posting uses 5.
  ExpectRejectedBy(kOnePostingHead + Bytes({6, 1, 2, 0, 3, 1, 0, 2, 0, 3, 9}),
                   "block payload has trailing bytes");
}

TEST(PostingDecodeChecksTest, LastLabelDiffersFromHeaderMax) {
  // Header max (0,4), decoded last label (0,3).
  ExpectRejectedBy(kOnePostingHead + Bytes({5, 1, 2, 0, 4, 1, 0, 2, 0, 3}),
                   "block max label mismatch");
}

TEST(PostingDecodeChecksTest, ReuseExceedsPreviousDepth) {
  // A block's first posting claims to reuse 9 components of a predecessor
  // it does not have: rejected, not read out of bounds.
  ExpectRejectedBy(kOnePostingHead + Bytes({3, 1, 0, 0, 9, 0}),
                   "reuse exceeds previous depth");
}

TEST(PostingDecodeChecksTest, TruncatedPosting) {
  ExpectRejectedBy(kOnePostingHead + Bytes({3, 1, 0, 0, 0, 0x80}),
                   "truncated header");
  ExpectRejectedBy(kOnePostingHead + Bytes({4, 1, 0, 0, 0, 3, 0}),
                   "truncated dewey");
}

TEST(PostingDecodeChecksTest, CountOnlyReadAcceptsVersionThreeOnly) {
  uint32_t count = 0;
  ASSERT_TRUE(DecodePostingCount(EncodePostings(L({{0}, {0, 1}})), &count).ok());
  EXPECT_EQ(count, 2u);
  EXPECT_FALSE(DecodePostingCount(Bytes({2, 0, 0, 5}), &count).ok());
  EXPECT_FALSE(DecodePostingCount("", &count).ok());
  EXPECT_FALSE(DecodePostingCount(Bytes({3, 0x80}), &count).ok());
}

}  // namespace
}  // namespace xrefine::index
