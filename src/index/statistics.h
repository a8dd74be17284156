// The paper's "frequent table" (Section VII): per (keyword, node type T)
// the XML document frequency f_k^T (Definition 3.2: number of T-typed nodes
// whose subtree contains k) and the term count tf(k,T); plus per-type
// aggregates N_T (node count) and G_T (distinct keywords in T-subtrees).
// These feed Formulas 1-9 of the ranking model.
#ifndef XREFINE_INDEX_STATISTICS_H_
#define XREFINE_INDEX_STATISTICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "xml/node_type.h"

namespace xrefine::index {

struct KeywordTypeStats {
  uint32_t df = 0;  // f_k^T
  uint64_t tf = 0;  // tf(k, T)
};

class StatisticsTable {
 public:
  using PerTypeStats = std::unordered_map<xml::TypeId, KeywordTypeStats>;

  StatisticsTable() = default;

  // --- build-time mutators ---

  void AddNodeOfType(xml::TypeId type) { ++node_count_[type]; }
  /// Stable slot for a type's node count, created zeroed when absent.
  /// Build-path only: lets the DAG index builder resolve the slot once per
  /// shared subtree and bump it per instance without re-hashing.
  uint32_t* MutableNodeCount(xml::TypeId type) { return &node_count_[type]; }
  /// Stable per-type row for `keyword`, created empty when absent.
  /// Build-path only: resolves the keyword once, so later cell updates
  /// hash only the type id.
  PerTypeStats* MutableTypeStatsFor(std::string_view keyword) {
    return &per_keyword_.try_emplace(std::string(keyword)).first->second;
  }
  /// Stable cell for (keyword, type) term stats, created zeroed when
  /// absent. Build-path only; unordered_map nodes never move, so cached
  /// cell pointers survive later insertions.
  KeywordTypeStats* MutableKeywordTypeStats(std::string_view keyword,
                                            xml::TypeId type) {
    return &MutableTypeStatsFor(keyword)->try_emplace(type).first->second;
  }
  void AddTermFrequency(std::string_view keyword, xml::TypeId type,
                        uint64_t count);
  void AddDocumentFrequency(std::string_view keyword, xml::TypeId type,
                            uint32_t count = 1);
  /// Recomputes G_T from the keyword/type table; call once after building.
  void FinalizeDistinctCounts();

  // --- ranking-model accessors ---

  /// f_k^T: T-typed subtrees containing `keyword`.
  uint32_t df(std::string_view keyword, xml::TypeId type) const;

  /// tf(k,T): occurrences of `keyword` within T-typed subtrees.
  uint64_t tf(std::string_view keyword, xml::TypeId type) const;

  /// N_T: number of nodes of type T.
  uint32_t node_count(xml::TypeId type) const;

  /// G_T: distinct keywords appearing within T-typed subtrees.
  uint32_t distinct_keywords(xml::TypeId type) const;

  /// Per-type stats for a keyword (nullptr when the keyword is unknown);
  /// lets the search-for-node scorer iterate only over relevant types.
  const PerTypeStats* TypeStatsFor(std::string_view keyword) const;

  /// All types with at least one node.
  std::vector<xml::TypeId> TypesWithNodes() const;

  const std::unordered_map<std::string, PerTypeStats>& per_keyword() const {
    return per_keyword_;
  }
  const std::unordered_map<xml::TypeId, uint32_t>& node_counts() const {
    return node_count_;
  }
  const std::unordered_map<xml::TypeId, uint32_t>& distinct_counts() const {
    return distinct_;
  }

  // Direct setters used when loading a persisted table.
  void SetNodeCount(xml::TypeId type, uint32_t count) {
    node_count_[type] = count;
  }
  void SetDistinctCount(xml::TypeId type, uint32_t count) {
    distinct_[type] = count;
  }

 private:
  std::unordered_map<std::string, PerTypeStats> per_keyword_;
  std::unordered_map<xml::TypeId, uint32_t> node_count_;
  std::unordered_map<xml::TypeId, uint32_t> distinct_;
};

}  // namespace xrefine::index

#endif  // XREFINE_INDEX_STATISTICS_H_
