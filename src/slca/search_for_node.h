// Search-for-node inference (paper Section III-A): scores every node type T
// with C_for(T,Q) = ln(1 + sum_k f_k^T) * r^depth(T) (Formula 1), infers the
// candidate list L of desired search-for nodes, and provides the
// Meaningful-SLCA predicate of Definition 3.3: an SLCA result is meaningful
// iff some T in L lies on its root path.
#ifndef XREFINE_SLCA_SEARCH_FOR_NODE_H_
#define XREFINE_SLCA_SEARCH_FOR_NODE_H_

#include <string>
#include <vector>

#include "index/statistics.h"
#include "slca/slca_common.h"
#include "xml/node_type.h"

namespace xrefine::slca {

struct SearchForNodeOptions {
  /// Reduction factor r in Formula 1 (penalises deep types).
  double reduction_factor = 0.8;

  /// A type enters L when its confidence is at least this fraction of the
  /// best confidence ("comparable confidence", Guideline 3).
  double comparable_ratio = 0.8;

  /// Upper bound on |L|.
  size_t max_candidates = 3;

  /// Exclude the document-root type: the paper calls the root "a typical
  /// meaningless SLCA" and no user searches for whole documents.
  bool exclude_root_type = true;
};

/// Scores all types with nonzero evidence for `query`, descending by
/// confidence.
std::vector<TypeConfidence> RankSearchForNodes(
    const std::vector<std::string>& query, const index::StatisticsTable& stats,
    const xml::NodeTypeTable& types, const SearchForNodeOptions& options = {});

/// The candidate list L (Guideline 3): top types with comparable confidence.
std::vector<TypeConfidence> InferSearchForNodes(
    const std::vector<std::string>& query, const index::StatisticsTable& stats,
    const xml::NodeTypeTable& types, const SearchForNodeOptions& options = {});

/// Definition 3.3: `result` is meaningful iff it is self-or-descendant of a
/// node of some candidate type.
bool IsMeaningfulSlca(const SlcaResult& result,
                      const std::vector<TypeConfidence>& candidates,
                      const xml::NodeTypeTable& types);

/// Filters a result list down to the meaningful ones.
std::vector<SlcaResult> FilterMeaningful(
    std::vector<SlcaResult> results,
    const std::vector<TypeConfidence>& candidates,
    const xml::NodeTypeTable& types);

}  // namespace xrefine::slca

#endif  // XREFINE_SLCA_SEARCH_FOR_NODE_H_
