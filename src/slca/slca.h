// Umbrella header + algorithm dispatch for SLCA computation.
#ifndef XREFINE_SLCA_SLCA_H_
#define XREFINE_SLCA_SLCA_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "index/index_source.h"
#include "slca/indexed_lookup_eager.h"
#include "slca/scan_eager.h"
#include "slca/search_for_node.h"
#include "slca/slca_common.h"
#include "slca/stack_slca.h"

namespace xrefine::slca {

enum class SlcaAlgorithm {
  kStack,          // stack over the merged lists (paper's "stack-slca")
  kScanEager,      // cursor-based matches (paper's "scan-slca")
  kIndexedLookup,  // binary-search matches (XKSearch ILE)
};

/// Dispatches to the chosen algorithm, appending SLCA(lists) to `out` in
/// document order — with `meaningful` set, only the results meaningful
/// under it (Definition 3.3), tested before their labels are built. The
/// call's buffers live in the caller's `scratch`, so a scan that reuses one
/// scratch and one result vector allocates only for the labels it keeps.
void ComputeSlca(const std::vector<PostingSpan>& lists,
                 const xml::NodeTypeTable& types, SlcaAlgorithm algorithm,
                 const std::vector<TypeConfidence>* meaningful,
                 SlcaScratch* scratch, std::vector<SlcaResult>* out);

/// One-shot form: every result, on a scratch of its own.
std::vector<SlcaResult> ComputeSlca(const std::vector<PostingSpan>& lists,
                                    const xml::NodeTypeTable& types,
                                    SlcaAlgorithm algorithm);

/// Fetches (and pins) the inverted list of each keyword through an
/// IndexSource, so queries run identically over the in-memory corpus and
/// the persistent store, and computes SLCA. A missing keyword yields the
/// empty conjunctive result; non-OK means the backing store failed
/// mid-fetch.
[[nodiscard]] StatusOr<std::vector<SlcaResult>> ComputeSlcaForQuery(
    const std::vector<std::string>& query, const index::IndexSource& source,
    const xml::NodeTypeTable& types, SlcaAlgorithm algorithm);

}  // namespace xrefine::slca

#endif  // XREFINE_SLCA_SLCA_H_
