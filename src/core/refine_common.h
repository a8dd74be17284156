// Shared plumbing for the three refinement algorithms of Section VI:
// prepared per-query state (rule set, keyword superset KS, inverted-list
// spans, search-for candidates) and the common outcome type.
#ifndef XREFINE_CORE_REFINE_COMMON_H_
#define XREFINE_CORE_REFINE_COMMON_H_

#include <atomic>
#include <chrono>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "core/optimal_rq.h"
#include "core/ranking.h"
#include "core/refinement_rule.h"
#include "core/rule_generator.h"
#include "index/index_builder.h"
#include "slca/slca.h"

namespace xrefine::core {

/// Caller-owned controls for one query: a deadline, an external cancel
/// flag, and an admission cap on the candidate fan-out. All fields are
/// optional (the zero value disables each); the struct is a non-owning
/// view, so one control can be shared by a session's teardown path and the
/// worker running its query. The algorithms poll ShouldStop() at partition
/// / stack-entry / anchor granularity — cancellation is cooperative and
/// stage-coarse, never mid-SLCA.
struct RefineControl {
  /// Give up once steady_clock passes this; the epoch default disables it.
  std::chrono::steady_clock::time_point deadline{};
  /// External cancel flag (e.g. "the client hung up"), polled relaxed.
  /// Must outlive every query run under this control.
  const std::atomic<bool>* cancel = nullptr;
  /// Post-prepare admission gate: refuse to scan when the prepared rule
  /// set exceeds this many rules (candidate RQs grow combinatorially with
  /// the rule count). 0 = unlimited.
  size_t max_candidate_fanout = 0;

  bool ShouldStop() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline != std::chrono::steady_clock::time_point{} &&
           std::chrono::steady_clock::now() >= deadline;
  }
};

/// Per-query prepared state shared by all algorithms.
struct RefineInput {
  Query q;
  RuleSet rules;

  /// KS ∩ corpus vocabulary: every keyword that can appear in a refined
  /// query, each with its inverted list.
  std::vector<std::string> keywords;
  std::vector<slca::PostingSpan> lists;  // parallel to `keywords`
  /// Pins backing `lists`: each span views a list owned (or aliased) by the
  /// handle at the same position, so store-backed cache eviction cannot
  /// invalidate a span mid-query. Together with `lists` this is the
  /// per-query decoded-list arena: every list is fetched, decoded, and
  /// pinned exactly once in PrepareRefineInput, and the thousands of
  /// candidate-RQ SLCA calls below only re-slice these spans.
  std::vector<index::PostingListHandle> pins;

  /// keyword -> position in `keywords`/`lists`, so assembling a candidate
  /// RQ's span set is O(1) per keyword instead of a linear scan of KS.
  std::unordered_map<std::string, size_t> keyword_index;

  /// Arena lookup: the span for `k`, or nullptr when `k` has no list.
  const slca::PostingSpan* SpanFor(const std::string& k) const {
    auto it = keyword_index.find(k);
    return it == keyword_index.end() ? nullptr : &lists[it->second];
  }

  /// Witnessed keyword universe (== `keywords` as a set).
  KeywordSet universe;

  /// Search-for-node candidates L inferred from Q (Formula 1).
  std::vector<slca::TypeConfidence> search_for;

  /// Non-OK when the backing store failed while resolving a list; the
  /// engine refuses to answer from a partially resolved input (a missing
  /// list would silently change conjunctive results).
  Status status = Status::OK();

  /// Deadline/cancel hooks for the scan below, non-owning; nullptr runs
  /// uncontrolled (the default for every pre-server caller).
  const RefineControl* control = nullptr;

  /// True when the deadline passed or the cancel flag is set.
  bool Stopped() const { return control != nullptr && control->ShouldStop(); }
};

/// Builds the per-query state: generates rules, assembles KS = Q +
/// getNewKeywords(R), resolves inverted lists, infers L. A store fetch
/// failure is reported in the returned input's `status`.
RefineInput PrepareRefineInput(const index::IndexSource& corpus,
                               const Query& q, const RuleGenerator& rules,
                               const slca::SearchForNodeOptions& sfn_options);

/// Instrumentation counters surfaced by the benchmark harnesses.
struct RefineStats {
  size_t partitions_visited = 0;
  size_t partitions_pruned = 0;  // partitions with every candidate pruned
  size_t slca_calls = 0;
  size_t dp_calls = 0;
  size_t random_accesses = 0;  // binary searches into other lists (SLE)
  size_t nodes_popped = 0;     // stack-refine entry pops
  size_t candidates_enumerated = 0;  // candidate RQs considered
  size_t candidates_pruned = 0;      // candidate RQs skipped before SLCA work
};

/// The unified outcome: whether Q itself was fine, Q's own meaningful
/// results, and the ranked refined queries with their results.
struct RefineOutcome {
  bool needs_refinement = true;
  std::vector<slca::SlcaResult> original_results;
  std::vector<RankedRq> refined;
  RefineStats stats;
  /// Per-stage wall time and rule/candidate counts for this query, filled
  /// by XRefine::Run / RunPrepared (zero when an algorithm is invoked
  /// directly).
  metrics::QueryStats query_stats;
  /// Non-OK when the query could not be answered because the backing store
  /// failed (propagated from RefineInput::status); all result fields are
  /// empty in that case.
  Status status = Status::OK();
};

/// The outcome of a query that hit its deadline or cancel flag mid-scan:
/// empty results, status kDeadlineExceeded, the stats gathered so far
/// preserved for accounting. Partial results are never returned — a
/// half-scanned corpus would silently change conjunctive answers, the same
/// honesty rule RunPrepared applies to partially resolved inputs.
RefineOutcome StoppedOutcome(const RefineStats& stats);

/// Ranks the (rq, results) candidates with the full model (Formula 10),
/// sorts descending by rank and keeps `top_k`. Detects the original query
/// among the candidates to fill needs_refinement / original_results. When
/// `rank_results` is set, each surviving candidate's result list is
/// reordered by XML TF*IDF (result_ranking.h) instead of document order.
RefineOutcome FinalizeOutcome(
    const index::IndexSource& corpus, const Query& q,
    const std::vector<slca::TypeConfidence>& search_for,
    std::vector<std::pair<RefinedQuery, std::vector<slca::SlcaResult>>>
        candidates,
    size_t top_k, const RankingOptions& ranking, RefineStats stats,
    bool rank_results = false, bool infer_return_nodes = false);

}  // namespace xrefine::core

#endif  // XREFINE_CORE_REFINE_COMMON_H_
