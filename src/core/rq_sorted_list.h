// RQSortedList (Section VI-B): the bounded candidate list the Partition and
// SLE algorithms maintain while scanning — up to `capacity` refined queries
// ordered by dissimilarity, keyed by their keyword sets as keyword-id
// bitsets, each accumulating its per-partition SLCA results.
#ifndef XREFINE_CORE_RQ_SORTED_LIST_H_
#define XREFINE_CORE_RQ_SORTED_LIST_H_

#include <cstdint>
#include <vector>

#include "core/refined_query.h"

namespace xrefine::core {

/// A set of keyword ids — positions in RefineInput::keywords — in
/// ⌈m/64⌉ 64-bit words for m keywords. Partition and SLE key witnessed sets
/// and candidate RQs by it, so set identity is a word compare instead of a
/// sorted, joined keyword string.
class KeywordBits {
 public:
  explicit KeywordBits(size_t m) : words_((m + 63) / 64, 0) {}

  void Set(size_t id) { words_[id / 64] |= uint64_t{1} << (id % 64); }
  bool Test(size_t id) const {
    return (words_[id / 64] >> (id % 64)) & uint64_t{1};
  }
  void Clear() { words_.assign(words_.size(), 0); }

  // Word by word: a set of at most 64 keywords is one compare, not a
  // vector comparison's out-of-line memcmp.
  bool operator==(const KeywordBits& other) const {
    if (words_.size() != other.words_.size()) return false;
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] != other.words_[i]) return false;
    }
    return true;
  }

  struct Hash {
    size_t operator()(const KeywordBits& bits) const {
      uint64_t h = 0;
      for (uint64_t w : bits.words_) h = (h ^ w) * 0x9e3779b97f4a7c15ull;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

 private:
  std::vector<uint64_t> words_;
};

class RqSortedList {
 public:
  struct Entry {
    RefinedQuery rq;
    KeywordBits key;  // rq.keywords as keyword ids
    std::vector<slca::SlcaResult> results;
  };

  explicit RqSortedList(size_t capacity) : capacity_(capacity) {}

  size_t size() const { return entries_.size(); }
  bool full() const { return entries_.size() >= capacity_; }

  /// Dissimilarity of the worst retained candidate (infinity when not yet
  /// full; minus infinity at capacity 0, where nothing may enter) — the
  /// admission threshold of Algorithm 2 line 12 and the early-stop bound of
  /// Algorithm 3.
  double AdmissionThreshold() const;

  /// True when a candidate with this dissimilarity could enter (or already
  /// is in) the list.
  bool CanAccept(double dissimilarity) const;

  /// The entry of the keyword set `key`, or nullptr when it has none. The
  /// pointer stays valid until the next Insert.
  Entry* Find(const KeywordBits& key);

  /// Inserts `rq`, whose keyword set `key` has no entry yet, by
  /// dissimilarity (evicting the worst when over capacity). Returns the new
  /// entry, or nullptr iff the candidate was rejected. The caller appends
  /// SLCA results to the returned entry.
  Entry* Insert(const RefinedQuery& rq, const KeywordBits& key);

  /// Entries by ascending dissimilarity.
  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<Entry>& mutable_entries() { return entries_; }

 private:
  size_t capacity_;
  // Kept sorted by rq.dissimilarity; at most `capacity_` (2K) entries, so
  // a linear scan over one-word keys is the membership test.
  std::vector<Entry> entries_;
};

}  // namespace xrefine::core

#endif  // XREFINE_CORE_RQ_SORTED_LIST_H_
