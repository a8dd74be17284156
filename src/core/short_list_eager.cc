#include "core/short_list_eager.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/logging.h"
#include "core/rq_sorted_list.h"

namespace xrefine::core {

namespace {

// `keywords` as keyword ids. Every candidate RQ draws its keywords from a
// witnessed set T ⊆ input.keywords (Lemma 2), so each one has an id.
KeywordBits KeyOf(const RefineInput& input, const Query& keywords) {
  KeywordBits key(input.keywords.size());
  for (const std::string& k : keywords) {
    auto it = input.keyword_index.find(k);
    XR_DCHECK(it != input.keyword_index.end());
    key.Set(it->second);
  }
  return key;
}

}  // namespace

RefineOutcome ShortListEagerRefine(const index::IndexSource& corpus,
                                   const RefineInput& input,
                                   const SleOptions& options) {
  RefineStats stats;
  const size_t m = input.lists.size();
  const size_t candidate_budget = 2 * options.top_k;
  RqSortedList rq_list(candidate_budget);

  // Keywords ordered by ascending list length (shortest first). Keywords
  // that appear on rule RHSs or that need no refinement are preferred on
  // ties, per the paper's smarter-choice discussion.
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  std::unordered_set<std::string> rhs_or_clean;
  for (const std::string& k : input.q) rhs_or_clean.insert(k);
  for (const RefinementRule& r : input.rules.rules()) {
    for (const std::string& k : r.rhs) rhs_or_clean.insert(k);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (input.lists[a].size != input.lists[b].size) {
      return input.lists[a].size < input.lists[b].size;
    }
    bool pa = rhs_or_clean.count(input.keywords[a]) > 0;
    bool pb = rhs_or_clean.count(input.keywords[b]) > 0;
    if (pa != pb) return pa;
    return input.keywords[a] < input.keywords[b];
  });

  KeywordSet remaining(input.universe);
  std::unordered_set<std::string> processed_partitions;

  for (size_t oi = 0; oi < order.size(); ++oi) {
    size_t i = order[oi];

    // Stop condition (line 4): the best dissimilarity achievable from the
    // still-unexplored keyword universe.
    if (options.early_stop && rq_list.full()) {
      ++stats.dp_calls;
      auto potential = GetOptimalRq(input.q, remaining, input.rules);
      double c_potential = potential.has_value()
                               ? potential->dissimilarity
                               : std::numeric_limits<double>::infinity();
      if (c_potential > rq_list.AdmissionThreshold()) break;
    }

    // Each partition containing k_i (lines 6-9).
    const slca::PostingSpan& short_list = input.lists[i];
    size_t pos = 0;
    while (pos < short_list.size) {
      // Deadline/cancel poll at partition granularity.
      if (input.Stopped()) return StoppedOutcome(stats);
      const xml::DeweyRef v = short_list.label(pos);
      // v's document partition: its depth-2 prefix, viewed in place.
      const xml::DeweyRef partition(v.comps, std::min<uint32_t>(2, v.len));
      pos = slca::GallopSubtreeEnd(short_list, pos, partition);

      std::string pid = partition.ToDewey().ToString();
      if (!processed_partitions.insert(pid).second) continue;
      ++stats.partitions_visited;

      // Random-access every list for this partition to collect T: a
      // search from position 0 per list, the access the paper counts.
      KeywordSet witnessed;
      for (size_t j = 0; j < m; ++j) {
        ++stats.random_accesses;
        const size_t begin =
            static_cast<size_t>(slca::RightMatch(input.lists[j], partition));
        if (slca::GallopSubtreeEnd(input.lists[j], begin, partition) > begin) {
          witnessed.insert(input.keywords[j]);
        }
      }
      if (witnessed.empty()) continue;

      ++stats.dp_calls;
      std::vector<RefinedQuery> candidates = GetTopOptimalRqs(
          input.q, witnessed, input.rules, candidate_budget);
      stats.candidates_enumerated += candidates.size();
      for (const RefinedQuery& rq : candidates) {
        const KeywordBits key = KeyOf(input, rq.keywords);
        if (rq_list.Find(key) == nullptr &&
            rq_list.Insert(rq, key) == nullptr) {
          ++stats.candidates_pruned;
        }
      }
    }

    remaining.erase(input.keywords[i]);
  }

  // Step 2 (lines 17-18): SLCA results for the surviving candidates, with
  // any existing method over the full lists.
  std::vector<std::pair<RefinedQuery, std::vector<slca::SlcaResult>>>
      candidates;
  std::vector<slca::PostingSpan> spans;
  slca::SlcaScratch slca_scratch;
  std::vector<slca::SlcaResult> results;
  for (const auto& entry : rq_list.entries()) {
    spans.clear();
    bool ok = true;
    for (const std::string& k : entry.rq.keywords) {
      const slca::PostingSpan* span = input.SpanFor(k);
      if (span == nullptr) {
        ok = false;
        break;
      }
      spans.push_back(*span);
    }
    if (!ok) continue;
    ++stats.slca_calls;
    results.clear();
    slca::ComputeSlca(spans, corpus.types(), options.slca_algorithm,
                      &input.search_for, &slca_scratch, &results);
    if (results.empty()) continue;
    candidates.emplace_back(entry.rq, std::move(results));
  }

  return FinalizeOutcome(corpus, input.q, input.search_for,
                         std::move(candidates), options.top_k,
                         options.ranking, stats, options.rank_results,
                         options.infer_return_nodes);
}

}  // namespace xrefine::core
