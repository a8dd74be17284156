#include "index/posting_blocks.h"

#include <algorithm>
#include <vector>

#include "common/metrics.h"
#include "storage/serde.h"
#include "xml/dewey.h"

namespace xrefine::index {

namespace {

using storage::GetVarint32;
using storage::PutVarint32;

constexpr uint8_t kFormatBlocked = 3;

struct DecodeMetrics {
  metrics::Counter* list_fetches;   // records fed to DecodePostingsFlat
  metrics::Counter* bytes_decoded;  // their encoded bytes
};

const DecodeMetrics& Metrics() {
  static const DecodeMetrics m = [] {
    auto& r = metrics::Registry::Global();
    return DecodeMetrics{r.counter("index.list_fetches"),
                         r.counter("index.bytes_decoded")};
  }();
  return m;
}

// Decodes `count` prefix-delta postings from [*p, payload_limit) into `out`.
// `scratch` carries the previous label across the block's postings.
Status DecodeDeltaRun(const char** p, const char* payload_limit,
                      uint32_t count, size_t type_count,
                      std::vector<uint32_t>* scratch, FlatPostingList* out) {
  scratch->clear();
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t type = 0;
    uint32_t reuse = 0;
    uint32_t fresh = 0;
    if (!GetVarint32(p, payload_limit, &type) ||
        !GetVarint32(p, payload_limit, &reuse) ||
        !GetVarint32(p, payload_limit, &fresh)) {
      return Status::Corruption("postings: truncated header");
    }
    if (type >= type_count) {
      return Status::Corruption("postings: type id " + std::to_string(type) +
                                " out of range (" + std::to_string(type_count) +
                                " types)");
    }
    if (reuse > scratch->size()) {
      return Status::Corruption("postings: reuse exceeds previous depth");
    }
    scratch->resize(reuse);
    for (uint32_t d = 0; d < fresh; ++d) {
      uint32_t c = 0;
      if (!GetVarint32(p, payload_limit, &c)) {
        return Status::Corruption("postings: truncated dewey");
      }
      scratch->push_back(c);
    }
    if (scratch->empty()) return Status::Corruption("postings: empty label");
    out->Append(xml::DeweyRef(scratch->data(),
                              static_cast<uint32_t>(scratch->size())),
                type);
  }
  return Status::OK();
}

}  // namespace

std::string EncodePostings(const FlatPostingList& list,
                           size_t block_capacity) {
  if (block_capacity == 0) block_capacity = kDefaultPostingBlockCapacity;
  std::string out;
  out.push_back(static_cast<char>(kFormatBlocked));
  PutVarint32(&out, static_cast<uint32_t>(list.size()));
  PutVarint32(&out, static_cast<uint32_t>(block_capacity));
  std::string payload;
  for (size_t begin = 0; begin < list.size(); begin += block_capacity) {
    size_t end = std::min(begin + block_capacity, list.size());
    payload.clear();
    for (size_t i = begin; i < end; ++i) {
      const xml::DeweyRef label = list.label(i);
      const uint32_t reuse =
          i == begin ? 0
                     : static_cast<uint32_t>(
                           xml::CommonPrefixDepth(list.label(i - 1), label));
      PutVarint32(&payload, list.type(i));
      PutVarint32(&payload, reuse);
      PutVarint32(&payload, label.len - reuse);
      for (uint32_t d = reuse; d < label.len; ++d) {
        PutVarint32(&payload, label[d]);
      }
    }
    PutVarint32(&out, static_cast<uint32_t>(payload.size()));
    PutVarint32(&out, static_cast<uint32_t>(end - begin));
    const xml::DeweyRef max = list.label(end - 1);
    PutVarint32(&out, max.len);
    for (uint32_t d = 0; d < max.len; ++d) PutVarint32(&out, max[d]);
    out += payload;
  }
  return out;
}

Status DecodePostingsFlat(std::string_view data, size_t type_count,
                          FlatPostingList* out) {
  Metrics().list_fetches->Increment();
  Metrics().bytes_decoded->Increment(data.size());
  const char* p = data.data();
  const char* limit = data.data() + data.size();
  if (p >= limit) return Status::Corruption("postings: empty record");
  uint8_t version = static_cast<uint8_t>(*p++);
  if (version != kFormatBlocked) {
    return Status::Corruption("postings: unsupported format version " +
                              std::to_string(version));
  }
  uint32_t total = 0;
  uint32_t capacity = 0;
  if (!GetVarint32(&p, limit, &total) || !GetVarint32(&p, limit, &capacity)) {
    return Status::Corruption("postings: bad record header");
  }
  if (capacity == 0) {
    return Status::Corruption("postings: zero block capacity");
  }
  // `total` is untrusted until the block counts sum to it. Every posting
  // costs at least 3 payload bytes (three one-byte varints), so a total
  // beyond remaining/3 cannot be honoured: reject it before it sizes the
  // reserve (a hostile count must not drive a multi-GB allocation).
  const size_t remaining = static_cast<size_t>(limit - p);
  if (total > remaining / 3) {
    return Status::Corruption("postings: count " + std::to_string(total) +
                              " exceeds record capacity (" +
                              std::to_string(remaining) + " bytes)");
  }
  out->Reserve(total);

  std::vector<uint32_t> max;      // the current block's header max label
  std::vector<uint32_t> scratch;  // the previous label within a block
  uint64_t seen = 0;
  while (p < limit) {
    uint32_t payload_bytes = 0;
    uint32_t count = 0;
    uint32_t max_depth = 0;
    if (!GetVarint32(&p, limit, &payload_bytes) ||
        !GetVarint32(&p, limit, &count) ||
        !GetVarint32(&p, limit, &max_depth)) {
      return Status::Corruption("postings: truncated block header");
    }
    if (count == 0 || count > capacity) {
      return Status::Corruption("postings: bad block count");
    }
    // A max label deeper than the remaining bytes could encode is hostile
    // (each component costs >= 1 byte) — reject before growing `max`.
    if (max_depth > static_cast<size_t>(limit - p)) {
      return Status::Corruption("postings: block max depth exceeds record");
    }
    max.clear();
    for (uint32_t d = 0; d < max_depth; ++d) {
      uint32_t c = 0;
      if (!GetVarint32(&p, limit, &c)) {
        return Status::Corruption("postings: truncated block max label");
      }
      max.push_back(c);
    }
    if (payload_bytes > static_cast<size_t>(limit - p)) {
      return Status::Corruption("postings: block payload exceeds record");
    }
    if (count > payload_bytes / 3) {
      return Status::Corruption("postings: block count exceeds payload");
    }
    // Block maxes ascend in document order. The previous block's max is
    // its decoded last label (checked below), so compare against that.
    const xml::DeweyRef block_max(max.data(), max_depth);
    if (!out->empty() && block_max < out->label(out->size() - 1)) {
      return Status::Corruption("postings: block max labels out of order");
    }
    const char* payload_limit = p + payload_bytes;
    XREFINE_RETURN_IF_ERROR(
        DecodeDeltaRun(&p, payload_limit, count, type_count, &scratch, out));
    if (p != payload_limit) {
      return Status::Corruption("postings: block payload has trailing bytes");
    }
    // Self-check: the header max must be the block's decoded last label.
    if (out->label(out->size() - 1) != block_max) {
      return Status::Corruption("postings: block max label mismatch");
    }
    seen += count;
  }
  if (seen != total) {
    return Status::Corruption("postings: block counts sum to " +
                              std::to_string(seen) + ", record declares " +
                              std::to_string(total));
  }
  return Status::OK();
}

Status DecodePostingCount(std::string_view data_prefix, uint32_t* count) {
  const char* p = data_prefix.data();
  const char* limit = data_prefix.data() + data_prefix.size();
  if (p >= limit) return Status::Corruption("postings: empty record");
  uint8_t version = static_cast<uint8_t>(*p++);
  if (version != kFormatBlocked) {
    return Status::Corruption("postings: unsupported format version " +
                              std::to_string(version));
  }
  // The total posting count follows the version byte directly.
  if (!GetVarint32(&p, limit, count)) {
    return Status::Corruption("postings: bad count");
  }
  return Status::OK();
}

}  // namespace xrefine::index
