// Scan Eager SLCA (XKSearch): like Indexed Lookup Eager but finds the
// closest matches by advancing a monotone cursor per list instead of binary
// searching, which wins when list lengths are comparable.
// O(sum |S_i| * d).
#ifndef XREFINE_SLCA_SCAN_EAGER_H_
#define XREFINE_SLCA_SCAN_EAGER_H_

#include <vector>

#include "slca/slca_common.h"

namespace xrefine::slca {

/// Appends SLCA(lists) to `out`; the contract of IndexedLookupEagerSlca.
void ScanEagerSlca(const std::vector<PostingSpan>& lists,
                   const xml::NodeTypeTable& types,
                   const std::vector<TypeConfidence>* meaningful,
                   SlcaScratch* scratch, std::vector<SlcaResult>* out);

}  // namespace xrefine::slca

#endif  // XREFINE_SLCA_SCAN_EAGER_H_
