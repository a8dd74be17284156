#include "slca/search_for_node.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace xrefine::slca {

std::vector<TypeConfidence> RankSearchForNodes(
    const std::vector<std::string>& query,
    const index::StatisticsTable& stats, const xml::NodeTypeTable& types,
    const SearchForNodeOptions& options) {
  // Sum f_k^T per type over the query keywords; only types containing at
  // least one keyword can score.
  std::unordered_map<xml::TypeId, uint64_t> df_sums;
  for (const std::string& k : query) {
    const auto* per_type = stats.TypeStatsFor(k);
    if (per_type == nullptr) continue;
    for (const auto& [type, kt_stats] : *per_type) {
      if (kt_stats.df > 0) df_sums[type] += kt_stats.df;
    }
  }

  std::vector<TypeConfidence> scored;
  scored.reserve(df_sums.size());
  for (const auto& [type, sum] : df_sums) {
    if (options.exclude_root_type && types.parent(type) == xml::kInvalidTypeId) {
      continue;
    }
    double confidence =
        std::log(1.0 + static_cast<double>(sum)) *
        std::pow(options.reduction_factor, types.depth(type));
    scored.push_back(TypeConfidence{type, confidence});
  }
  std::sort(scored.begin(), scored.end(),
            [&](const TypeConfidence& a, const TypeConfidence& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.type < b.type;  // deterministic tie-break
            });
  return scored;
}

std::vector<TypeConfidence> InferSearchForNodes(
    const std::vector<std::string>& query,
    const index::StatisticsTable& stats, const xml::NodeTypeTable& types,
    const SearchForNodeOptions& options) {
  std::vector<TypeConfidence> ranked =
      RankSearchForNodes(query, stats, types, options);
  std::vector<TypeConfidence> candidates;
  if (ranked.empty()) return candidates;
  double threshold = ranked.front().confidence * options.comparable_ratio;
  for (const TypeConfidence& tc : ranked) {
    if (candidates.size() >= options.max_candidates) break;
    if (tc.confidence < threshold) break;
    candidates.push_back(tc);
  }
  return candidates;
}

bool IsMeaningfulSlca(const SlcaResult& result,
                      const std::vector<TypeConfidence>& candidates,
                      const xml::NodeTypeTable& types) {
  return IsMeaningfulType(result.type, candidates, types);
}

std::vector<SlcaResult> FilterMeaningful(
    std::vector<SlcaResult> results,
    const std::vector<TypeConfidence>& candidates,
    const xml::NodeTypeTable& types) {
  std::vector<SlcaResult> out;
  out.reserve(results.size());
  for (auto& r : results) {
    if (IsMeaningfulSlca(r, candidates, types)) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace xrefine::slca
