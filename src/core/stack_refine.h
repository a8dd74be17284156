// Algorithm 1: stack-based query refinement. Extends the stack SLCA
// algorithm over the merged inverted lists of KS = Q + rule-generated
// keywords: every stack entry carries the witnessed-keyword bitmask; on
// pop, the entry is checked as a meaningful SLCA of Q, and otherwise
// getOptimalRQ runs on its witnessed set to track the best refined query
// and its SLCA results. One scan of the merged lists (Theorem 1).
#ifndef XREFINE_CORE_STACK_REFINE_H_
#define XREFINE_CORE_STACK_REFINE_H_

#include "core/refine_common.h"

namespace xrefine::core {

/// Stack entries carry KS's witnessed keywords as one 64-bit mask, so
/// stack-refine answers queries whose KS has at most this many keywords;
/// a larger KS is refused with InvalidArgument.
inline constexpr size_t kMaxStackRefineKeywords = 64;

struct StackRefineOptions {
  size_t top_k = 3;
  RankingOptions ranking;
  bool rank_results = false;  // TF*IDF-order each RQ's results
  bool infer_return_nodes = false;  // snap results to entity boundaries
};

RefineOutcome StackRefine(const index::IndexSource& corpus,
                          const RefineInput& input,
                          const StackRefineOptions& options = {});

}  // namespace xrefine::core

#endif  // XREFINE_CORE_STACK_REFINE_H_
