#include "slca/slca_common.h"

#include <algorithm>

namespace xrefine::slca {

namespace internal {

const SlcaMetrics& Metrics() {
  static const SlcaMetrics m = [] {
    auto& r = metrics::Registry::Global();
    return SlcaMetrics{r.counter("slca.calls"),
                       r.counter("slca.elements_scanned"),
                       r.counter("slca.lookups")};
  }();
  return m;
}

}  // namespace internal

ptrdiff_t LeftMatch(const PostingSpan& span, const xml::DeweyRef& v) {
  // upper_bound on dewey order, then step left.
  ptrdiff_t lo = 0;
  ptrdiff_t hi = static_cast<ptrdiff_t>(span.size);
  while (lo < hi) {
    ptrdiff_t mid = (lo + hi) / 2;
    if (span.label(static_cast<size_t>(mid)) <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo - 1;
}

ptrdiff_t RightMatch(const PostingSpan& span, const xml::DeweyRef& v) {
  ptrdiff_t lo = 0;
  ptrdiff_t hi = static_cast<ptrdiff_t>(span.size);
  while (lo < hi) {
    ptrdiff_t mid = (lo + hi) / 2;
    if (span.label(static_cast<size_t>(mid)) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

// Leftmost index in [from, size) where `before` turns false, for a
// predicate that holds on a prefix of that range: double the probe distance
// until it brackets the turn, then binary-search the bracketed window.
template <typename Before>
size_t Gallop(const PostingSpan& span, size_t from, Before before) {
  if (from >= span.size || !before(from)) return from;
  size_t bound = 1;
  while (from + bound < span.size && before(from + bound)) bound <<= 1;
  size_t lo = from + bound / 2 + 1;  // the last probe still satisfied it
  size_t hi = std::min(from + bound, span.size);
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (before(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

size_t GallopLowerBound(const PostingSpan& span, size_t from,
                        const xml::DeweyRef& v) {
  return Gallop(span, from, [&](size_t i) { return span.label(i) < v; });
}

size_t GallopUpperBound(const PostingSpan& span, size_t from,
                        const xml::DeweyRef& v) {
  return Gallop(span, from, [&](size_t i) { return span.label(i) <= v; });
}

size_t GallopSubtreeEnd(const PostingSpan& span, size_t from,
                        const xml::DeweyRef& root) {
  return Gallop(span, from, [&](size_t i) {
    return xml::CommonPrefixDepth(root, span.label(i)) == root.len;
  });
}

std::vector<SlcaResult> KeepSmallest(std::vector<SlcaResult> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const SlcaResult& a, const SlcaResult& b) {
              return a.dewey < b.dewey;
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  // In document order an ancestor's descendants follow it contiguously, so
  // dropping each element that is an ancestor of its successor removes all
  // non-smallest nodes.
  std::vector<SlcaResult> out;
  out.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i + 1 < candidates.size() &&
        candidates[i].dewey.IsAncestor(candidates[i + 1].dewey)) {
      continue;
    }
    out.push_back(std::move(candidates[i]));
  }
  return out;
}

void KeepSmallestPrefix(const PostingSpan& anchor, PrefixCandidate candidate,
                        std::vector<PrefixCandidate>* kept) {
  auto label_of = [&](const PrefixCandidate& c) {
    return xml::DeweyRef(anchor.components + anchor.starts[c.index], c.depth);
  };
  // The anchor scan emits candidates in anchor document order, which gives
  // a strong structural guarantee: for i < j, candidate j's label is either
  // >= candidate i's (doc order) or a strict ancestor of it. (If label_j <
  // label_i with a diverging component, the underlying anchor postings
  // would violate v_i <= v_j; so label_j < label_i forces label_j to be a
  // prefix of label_i.) The smallest-filter therefore runs online against
  // the last kept candidate — no sort, one prefix comparison per candidate:
  //   - equal to or ancestor of the last kept: dominated, skip;
  //   - last kept is its ancestor: pop it (at most one pop — the stack is
  //     an increasing antichain, so deeper entries cannot also be
  //     ancestors), push the new candidate;
  //   - divergent: push.
  const xml::DeweyRef lc = label_of(candidate);
  while (!kept->empty()) {
    const xml::DeweyRef lb = label_of(kept->back());
    const size_t common = xml::CommonPrefixDepth(lb, lc);
    if (common == lc.len) return;  // duplicate of, or ancestor of, the last
    if (common == lb.len) {
      kept->pop_back();  // last kept is a strict ancestor: not smallest
      continue;
    }
    break;  // divergent siblings
  }
  kept->push_back(candidate);
}

void AppendPrefixResults(const PostingSpan& anchor,
                         const std::vector<PrefixCandidate>& kept,
                         const xml::NodeTypeTable& types,
                         const std::vector<TypeConfidence>* meaningful,
                         std::vector<SlcaResult>* out) {
  for (const PrefixCandidate& c : kept) {
    const xml::TypeId type =
        AncestorTypeAtDepth(types, anchor.type(c.index), c.depth);
    if (meaningful != nullptr && !IsMeaningfulType(type, *meaningful, types)) {
      continue;
    }
    const uint32_t* label = anchor.components + anchor.starts[c.index];
    out->push_back(SlcaResult{
        xml::Dewey(std::vector<uint32_t>(label, label + c.depth)), type});
  }
}

bool IsMeaningfulType(xml::TypeId type,
                      const std::vector<TypeConfidence>& candidates,
                      const xml::NodeTypeTable& types) {
  if (type == xml::kInvalidTypeId) return false;
  for (const TypeConfidence& tc : candidates) {
    if (types.IsAncestorOrSelfType(tc.type, type)) return true;
  }
  return false;
}

xml::TypeId AncestorTypeAtDepth(const xml::NodeTypeTable& types,
                                xml::TypeId witness, size_t depth) {
  return types.AncestorAtDepth(witness, static_cast<uint32_t>(depth));
}

}  // namespace xrefine::slca
