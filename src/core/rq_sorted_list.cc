#include "core/rq_sorted_list.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace xrefine::core {

double RqSortedList::AdmissionThreshold() const {
  if (!full()) return std::numeric_limits<double>::infinity();
  if (entries_.empty()) return -std::numeric_limits<double>::infinity();
  return entries_.back().rq.dissimilarity;
}

bool RqSortedList::CanAccept(double dissimilarity) const {
  return dissimilarity <= AdmissionThreshold();
}

RqSortedList::Entry* RqSortedList::Find(const KeywordBits& key) {
  for (Entry& e : entries_) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

RqSortedList::Entry* RqSortedList::Insert(const RefinedQuery& rq,
                                          const KeywordBits& key) {
  XR_DCHECK(Find(key) == nullptr);
  if (!CanAccept(rq.dissimilarity)) return nullptr;
  // Insert sorted by dissimilarity.
  auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), rq.dissimilarity,
      [](double d, const Entry& e) { return d < e.rq.dissimilarity; });
  size_t index = static_cast<size_t>(pos - entries_.begin());
  entries_.insert(pos, Entry{rq, key, {}});
  if (entries_.size() > capacity_) {
    entries_.pop_back();
    if (index >= entries_.size()) return nullptr;  // evicted immediately
  }
  return &entries_[index];
}

}  // namespace xrefine::core
