#include "core/partition_refine.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "core/rq_sorted_list.h"

namespace xrefine::core {

namespace {

// One getTopOptimalRQ candidate of a memoised witnessed set, with its
// keyword-id forms computed once: `key` for the RQ list, and `ids` in
// rq.keywords order, so each SLCA call sees its spans in the RQ's own
// keyword order.
struct Candidate {
  RefinedQuery rq;
  KeywordBits key;
  std::vector<size_t> ids;
};

// The top-`budget` candidate refinements for a partition witnessing
// `witnessed` (line 10). Runs on a memo miss only, so the string keyword
// set the DP takes is built once per distinct witnessed set.
std::vector<Candidate> TopCandidates(const RefineInput& input,
                                     const KeywordBits& witnessed,
                                     size_t budget) {
  const size_t m = input.keywords.size();
  KeywordSet t(m);
  for (size_t i = 0; i < m; ++i) {
    if (witnessed.Test(i)) t.insert(input.keywords[i]);
  }
  std::vector<RefinedQuery> rqs =
      GetTopOptimalRqs(input.q, t, input.rules, budget);
  std::vector<Candidate> out;
  out.reserve(rqs.size());
  for (RefinedQuery& rq : rqs) {
    Candidate c{std::move(rq), KeywordBits(m), {}};
    c.ids.reserve(c.rq.keywords.size());
    for (const std::string& k : c.rq.keywords) {
      // RQ ⊆ T (Lemma 2), and T ⊆ keywords, so every keyword has an id.
      auto it = input.keyword_index.find(k);
      XR_DCHECK(it != input.keyword_index.end());
      c.key.Set(it->second);
      c.ids.push_back(it->second);
    }
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

RefineOutcome PartitionRefine(const index::IndexSource& corpus,
                              const RefineInput& input,
                              const PartitionRefineOptions& options) {
  RefineStats stats;
  const size_t m = input.lists.size();
  const size_t candidate_budget = 2 * options.top_k;
  RqSortedList rq_list(candidate_budget);

  // Advantage (3) of the paper: partitions witnessing the same keyword set
  // share one getTopOptimalRQ evaluation.
  std::unordered_map<KeywordBits, std::vector<Candidate>, KeywordBits::Hash>
      dp_memo;

  std::vector<size_t> cursors(m, 0);
  std::vector<slca::PostingSpan> partition_spans(m);
  std::vector<slca::PostingSpan> rq_spans;
  slca::SlcaScratch slca_scratch;
  std::vector<slca::SlcaResult> results;
  KeywordBits witnessed(m);
  while (true) {
    // Deadline/cancel poll at partition granularity: one clock read per
    // partition, never mid-SLCA.
    if (input.Stopped()) return StoppedOutcome(stats);
    // Smallest head across the lists (line 5).
    int smallest = -1;
    for (size_t i = 0; i < m; ++i) {
      if (cursors[i] >= input.lists[i].size) continue;
      if (smallest < 0 ||
          input.lists[i].label(cursors[i]) <
              input.lists[static_cast<size_t>(smallest)].label(
                  cursors[static_cast<size_t>(smallest)])) {
        smallest = static_cast<int>(i);
      }
    }
    if (smallest < 0) break;
    const xml::DeweyRef v = input.lists[static_cast<size_t>(smallest)].label(
        cursors[static_cast<size_t>(smallest)]);

    // Document partition of v (Definition 6.1): the subtree under the
    // root's child, i.e. v's depth-2 prefix (v itself when shallower),
    // viewed in place.
    const xml::DeweyRef partition(v.comps, std::min<uint32_t>(2, v.len));
    ++stats.partitions_visited;

    // Restrict every list to this partition and advance the cursors past
    // it (lines 7-8; the one-time scan). Every head is >= v >= the
    // partition root, so each list's run in the partition starts at its
    // cursor and only its end is searched for.
    witnessed.Clear();
    for (size_t i = 0; i < m; ++i) {
      const size_t begin = cursors[i];
      const size_t end =
          slca::GallopSubtreeEnd(input.lists[i], begin, partition);
      partition_spans[i] = input.lists[i].Sub(begin, end - begin);
      cursors[i] = end;
      if (end > begin) witnessed.Set(i);
    }

    // Top-2K candidate refinements for this partition (line 10), computed
    // once per distinct witnessed keyword set.
    auto memo = dp_memo.find(witnessed);
    if (memo == dp_memo.end()) {
      ++stats.dp_calls;
      memo = dp_memo
                 .emplace(witnessed,
                          TopCandidates(input, witnessed, candidate_budget))
                 .first;
    }

    size_t pruned_here = 0;
    for (const Candidate& c : memo->second) {
      ++stats.candidates_enumerated;
      RqSortedList::Entry* entry = rq_list.Find(c.key);
      if (options.prune_partitions && entry == nullptr &&
          !rq_list.CanAccept(c.rq.dissimilarity)) {
        ++pruned_here;
        continue;  // cannot enter the top-2K: skip its SLCA work
      }
      // Meaningful SLCA of RQ within this partition (line 16), with any
      // baseline.
      rq_spans.clear();
      for (size_t id : c.ids) rq_spans.push_back(partition_spans[id]);
      ++stats.slca_calls;
      results.clear();
      slca::ComputeSlca(rq_spans, corpus.types(), options.slca_algorithm,
                        &input.search_for, &slca_scratch, &results);
      if (results.empty()) continue;  // no meaningful match here
      if (entry == nullptr) entry = rq_list.Insert(c.rq, c.key);
      if (entry != nullptr) {
        entry->results.insert(entry->results.end(),
                              std::make_move_iterator(results.begin()),
                              std::make_move_iterator(results.end()));
      }
    }
    stats.candidates_pruned += pruned_here;
    // A partition is pruned when every candidate it had was.
    if (pruned_here > 0 && pruned_here == memo->second.size()) {
      ++stats.partitions_pruned;
    }
  }

  // Final ranking with the full model (line 19).
  std::vector<std::pair<RefinedQuery, std::vector<slca::SlcaResult>>>
      candidates;
  for (auto& entry : rq_list.mutable_entries()) {
    candidates.emplace_back(std::move(entry.rq), std::move(entry.results));
  }
  return FinalizeOutcome(corpus, input.q, input.search_for,
                         std::move(candidates), options.top_k,
                         options.ranking, stats, options.rank_results,
                         options.infer_return_nodes);
}

}  // namespace xrefine::core
