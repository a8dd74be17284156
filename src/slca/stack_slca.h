// Stack-based SLCA over the document-order merge of the keyword inverted
// lists (XKSearch's stack algorithm, the basis of the paper's Algorithm 1).
// Each stack entry is one Dewey component; entries accumulate a mask of the
// keyword lists witnessed in their subtree (⌈m/64⌉ words for m lists) and a
// flag marking that an SLCA was already emitted below (so no ancestor is
// emitted).
#ifndef XREFINE_SLCA_STACK_SLCA_H_
#define XREFINE_SLCA_STACK_SLCA_H_

#include <vector>

#include "slca/slca_common.h"

namespace xrefine::slca {

/// Appends SLCA(lists) to `out`; the contract of IndexedLookupEagerSlca.
void StackSlca(const std::vector<PostingSpan>& lists,
               const xml::NodeTypeTable& types,
               const std::vector<TypeConfidence>* meaningful,
               SlcaScratch* scratch, std::vector<SlcaResult>* out);

}  // namespace xrefine::slca

#endif  // XREFINE_SLCA_STACK_SLCA_H_
