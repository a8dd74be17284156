#include "slca/indexed_lookup_eager.h"

#include <algorithm>

namespace xrefine::slca {

void IndexedLookupEagerSlca(const std::vector<PostingSpan>& lists,
                            const xml::NodeTypeTable& types,
                            const std::vector<TypeConfidence>* meaningful,
                            SlcaScratch* scratch,
                            std::vector<SlcaResult>* out) {
  if (lists.empty()) return;
  for (const auto& span : lists) {
    if (span.empty()) return;
  }

  // Anchor on the shortest list.
  size_t anchor = 0;
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i].size < lists[anchor].size) anchor = i;
  }

  // hints[i]: every posting of list i before this index has label < the
  // current anchor label. Anchor labels arrive in document order, so the
  // hints only move right and each neighbour search can gallop from its
  // previous landing spot instead of binary-searching the whole list.
  std::vector<size_t>& hints = scratch->cursors;
  hints.assign(lists.size(), 0);
  std::vector<PrefixCandidate>& kept = scratch->kept;
  kept.clear();

  uint64_t scanned = 0;
  uint64_t searches = 0;
  for (size_t a = 0; a < lists[anchor].size; ++a) {
    ++scanned;
    const xml::DeweyRef v = lists[anchor].label(a);
    // The deepest ancestor of v whose subtree meets every list: for each
    // other list the closest neighbours give the deepest possible LCA with
    // v; the candidate is the shallowest of those per-list LCAs.
    size_t depth = v.depth();
    for (size_t i = 0; i < lists.size() && depth > 0; ++i) {
      if (i == anchor) continue;
      const PostingSpan& span = lists[i];
      ++searches;
      size_t lb = GallopLowerBound(span, hints[i], v);
      hints[i] = lb;
      // lb is the right match; lb-1 the nearest strictly-smaller neighbour.
      // An exact-duplicate left match shares v's full label, which label(lb)
      // already witnesses, so these two cover the classic lm/rm pair.
      size_t best = 0;
      if (lb > 0) {
        best = std::max(best, xml::CommonPrefixDepth(v, span.label(lb - 1)));
      }
      if (lb < span.size) {
        best = std::max(best, xml::CommonPrefixDepth(v, span.label(lb)));
      }
      depth = std::min(depth, best);
    }
    if (depth == 0) continue;  // no common ancestor below "nothing"
    KeepSmallestPrefix(lists[anchor],
                       PrefixCandidate{static_cast<uint32_t>(a),
                                       static_cast<uint32_t>(depth)},
                       &kept);
  }
  internal::Metrics().elements_scanned->Increment(scanned);
  internal::Metrics().lookups->Increment(searches);
  AppendPrefixResults(lists[anchor], kept, types, meaningful, out);
}

}  // namespace xrefine::slca
