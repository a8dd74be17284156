// Indexed Lookup Eager SLCA (XKSearch): anchors on the shortest inverted
// list and finds, per anchor, the closest left/right match in every other
// list by binary search. O(|S_min| * m * d * log|S_max|).
#ifndef XREFINE_SLCA_INDEXED_LOOKUP_EAGER_H_
#define XREFINE_SLCA_INDEXED_LOOKUP_EAGER_H_

#include <vector>

#include "slca/slca_common.h"

namespace xrefine::slca {

/// Appends SLCA(lists) over the given posting spans to `out`, in document
/// order; with `meaningful` set, only the results meaningful under it
/// (Definition 3.3). An empty span makes the conjunctive result empty.
/// `types` resolves result node types; `scratch` holds the call's buffers.
void IndexedLookupEagerSlca(const std::vector<PostingSpan>& lists,
                            const xml::NodeTypeTable& types,
                            const std::vector<TypeConfidence>* meaningful,
                            SlcaScratch* scratch,
                            std::vector<SlcaResult>* out);

}  // namespace xrefine::slca

#endif  // XREFINE_SLCA_INDEXED_LOOKUP_EAGER_H_
