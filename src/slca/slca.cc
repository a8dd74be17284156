#include "slca/slca.h"

namespace xrefine::slca {

void ComputeSlca(const std::vector<PostingSpan>& lists,
                 const xml::NodeTypeTable& types, SlcaAlgorithm algorithm,
                 const std::vector<TypeConfidence>* meaningful,
                 SlcaScratch* scratch, std::vector<SlcaResult>* out) {
  internal::Metrics().calls->Increment();
  switch (algorithm) {
    case SlcaAlgorithm::kStack:
      return StackSlca(lists, types, meaningful, scratch, out);
    case SlcaAlgorithm::kScanEager:
      return ScanEagerSlca(lists, types, meaningful, scratch, out);
    case SlcaAlgorithm::kIndexedLookup:
      return IndexedLookupEagerSlca(lists, types, meaningful, scratch, out);
  }
}

std::vector<SlcaResult> ComputeSlca(const std::vector<PostingSpan>& lists,
                                    const xml::NodeTypeTable& types,
                                    SlcaAlgorithm algorithm) {
  SlcaScratch scratch;
  std::vector<SlcaResult> out;
  ComputeSlca(lists, types, algorithm, nullptr, &scratch, &out);
  return out;
}

StatusOr<std::vector<SlcaResult>> ComputeSlcaForQuery(
    const std::vector<std::string>& query, const index::IndexSource& source,
    const xml::NodeTypeTable& types, SlcaAlgorithm algorithm) {
  // The handles pin every fetched list until the spans are done scanning.
  std::vector<index::PostingListHandle> pins;
  std::vector<PostingSpan> lists;
  pins.reserve(query.size());
  lists.reserve(query.size());
  for (const std::string& k : query) {
    auto handle_or = source.FetchList(k);
    if (!handle_or.ok()) return handle_or.status();
    index::PostingListHandle handle = std::move(handle_or).value();
    if (!handle) return std::vector<SlcaResult>{};  // conjunctive semantics
    lists.emplace_back(*handle);
    pins.push_back(std::move(handle));
  }
  return ComputeSlca(lists, types, algorithm);
}

}  // namespace xrefine::slca
