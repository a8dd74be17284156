// The stored posting-list format (record version 3), its encoder and its
// one decoder.
//
// A record is a sequence of fixed-capacity blocks of prefix-delta postings.
// Each block is self-contained (its first posting carries the full label)
// and headed by its byte length, posting count, and max Dewey label. Layout:
//
//   byte    version            (= 3)
//   varint  total posting count
//   varint  block capacity     (postings per full block; last may be short)
//   blocks, back to back:
//     varint  payload bytes    (encoded size of this block's postings)
//     varint  posting count    (1 .. block capacity)
//     varint  max-label depth, then that many varint components
//     payload: per posting — varint type, varint reuse, varint fresh,
//              `fresh` varint components (prefix-delta vs the previous
//              posting IN THIS BLOCK; the first posting has reuse 0)
//
// Every count and length is validated against the remaining bytes, a block
// must decode to exactly its declared posting count consuming exactly its
// declared payload bytes, its last label must equal its header max (a
// self-check on every block), block maxes must ascend, every type id must
// name an entry of the caller's type table, no label may be empty (the
// root is "0", never ""), the per-block counts
// must sum to the record's total, and trailing bytes after the last block
// are corruption — a truncated or bit-flipped record yields a non-OK
// Status, never a silently short list.
#ifndef XREFINE_INDEX_POSTING_BLOCKS_H_
#define XREFINE_INDEX_POSTING_BLOCKS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "index/flat_postings.h"

namespace xrefine::index {

/// Postings per block. 128 keeps a decoded block (~a few KiB) inside L1/L2
/// while making the block headers ~1% of the posting count.
inline constexpr size_t kDefaultPostingBlockCapacity = 128;

/// Encodes `list` as a stored record.
std::string EncodePostings(
    const FlatPostingList& list,
    size_t block_capacity = kDefaultPostingBlockCapacity);

/// Decodes a stored record into `out`, which must be empty, with zero
/// per-posting allocations. The one decode path: the in-memory load, the
/// store-backed source and the fuzzer all go through it, and each call
/// counts one `index.list_fetches` and the record's size in
/// `index.bytes_decoded`. Beyond the layout checks, every posting's type id
/// must be below `type_count` (the node-type table the store carries) and
/// every label must be non-empty — the query path indexes the type table by
/// the id and derives partition bounds from the label. On error `out` holds
/// an unspecified prefix.
[[nodiscard]] Status DecodePostingsFlat(std::string_view data,
                                        size_t type_count,
                                        FlatPostingList* out);

/// Reads only the posting count from a record's first bytes (the version
/// byte plus one varint — at most 6 bytes of input), without decoding the
/// list. Used to size vocabularies cheaply.
[[nodiscard]] Status DecodePostingCount(std::string_view data_prefix,
                                        uint32_t* count);

}  // namespace xrefine::index

#endif  // XREFINE_INDEX_POSTING_BLOCKS_H_
