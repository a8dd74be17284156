#include "slca/scan_eager.h"

#include <algorithm>

namespace xrefine::slca {

void ScanEagerSlca(const std::vector<PostingSpan>& lists,
                   const xml::NodeTypeTable& types,
                   const std::vector<TypeConfidence>* meaningful,
                   SlcaScratch* scratch, std::vector<SlcaResult>* out) {
  if (lists.empty()) return;
  for (const auto& span : lists) {
    if (span.empty()) return;
  }

  size_t anchor = 0;
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i].size < lists[anchor].size) anchor = i;
  }

  // cursors[i]: first posting with label >= current anchor node; advances
  // monotonically because anchors arrive in document order.
  std::vector<size_t>& cursors = scratch->cursors;
  cursors.assign(lists.size(), 0);
  std::vector<PrefixCandidate>& kept = scratch->kept;
  kept.clear();

  uint64_t scanned = 0;
  uint64_t probes = 0;
  for (size_t a = 0; a < lists[anchor].size; ++a) {
    ++scanned;
    const xml::DeweyRef v = lists[anchor].label(a);
    size_t depth = v.depth();
    for (size_t i = 0; i < lists.size() && depth > 0; ++i) {
      if (i == anchor) continue;
      const PostingSpan& span = lists[i];
      size_t& c = cursors[i];
      ++probes;
      while (c < span.size && span.label(c) < v) {
        ++c;
        ++scanned;
      }
      size_t best = 0;
      if (c > 0) {
        best = std::max(best, xml::CommonPrefixDepth(v, span.label(c - 1)));
      }
      if (c < span.size) {
        best = std::max(best, xml::CommonPrefixDepth(v, span.label(c)));
      }
      depth = std::min(depth, best);
    }
    if (depth == 0) continue;
    KeepSmallestPrefix(lists[anchor],
                       PrefixCandidate{static_cast<uint32_t>(a),
                                       static_cast<uint32_t>(depth)},
                       &kept);
  }
  internal::Metrics().elements_scanned->Increment(scanned);
  internal::Metrics().lookups->Increment(probes);
  AppendPrefixResults(lists[anchor], kept, types, meaningful, out);
}

}  // namespace xrefine::slca
