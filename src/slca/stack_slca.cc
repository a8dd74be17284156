#include "slca/stack_slca.h"

#include <algorithm>

#include "common/logging.h"

namespace xrefine::slca {

namespace {

// Document-order merge over the posting spans, with its per-list heads in
// caller-owned storage.
class MergedStream {
 public:
  MergedStream(const std::vector<PostingSpan>& lists,
               std::vector<size_t>* cursors)
      : lists_(lists), cursors_(*cursors) {
    cursors_.assign(lists.size(), 0);
  }

  // Returns the list index of the smallest head (advancing its cursor and
  // storing the popped posting's index in *pos), or -1 when exhausted.
  int Pop(size_t* pos) {
    int best = -1;
    for (size_t i = 0; i < lists_.size(); ++i) {
      if (cursors_[i] >= lists_[i].size) continue;
      if (best < 0 ||
          lists_[i].label(cursors_[i]) <
              lists_[static_cast<size_t>(best)].label(
                  cursors_[static_cast<size_t>(best)])) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) return -1;
    *pos = cursors_[static_cast<size_t>(best)]++;
    return best;
  }

 private:
  const std::vector<PostingSpan>& lists_;
  std::vector<size_t>& cursors_;
};

}  // namespace

void StackSlca(const std::vector<PostingSpan>& lists,
               const xml::NodeTypeTable& types,
               const std::vector<TypeConfidence>* meaningful,
               SlcaScratch* scratch, std::vector<SlcaResult>* out) {
  if (lists.empty()) return;
  for (const auto& span : lists) {
    if (span.empty()) return;
  }
  // Entry e's mask is masks[e * words, (e + 1) * words); every word but the
  // last is full when all lists are witnessed.
  const size_t words = (lists.size() + 63) / 64;
  const uint64_t last_full =
      ~uint64_t{0} >> (words * 64 - lists.size());
  std::vector<internal::StackEntry>& stack = scratch->stack;
  std::vector<uint64_t>& masks = scratch->masks;
  stack.clear();
  masks.clear();
  const size_t first_result = out->size();

  auto full = [&](const uint64_t* mask) {
    for (size_t w = 0; w + 1 < words; ++w) {
      if (mask[w] != ~uint64_t{0}) return false;
    }
    return mask[words - 1] == last_full;
  };

  // Pops the top entry, possibly emitting it, and folds its state into the
  // new top.
  auto pop = [&]() {
    const size_t top = stack.size() - 1;
    internal::StackEntry& e = stack[top];
    const uint64_t* mask = masks.data() + top * words;
    if (full(mask) && !e.slca_below) {
      const size_t depth = stack.size();
      const xml::TypeId type = AncestorTypeAtDepth(types, e.witness, depth);
      if (meaningful == nullptr || IsMeaningfulType(type, *meaningful, types)) {
        std::vector<uint32_t> components;
        components.reserve(depth);
        for (const internal::StackEntry& se : stack) {
          components.push_back(se.component);
        }
        out->push_back(SlcaResult{xml::Dewey(std::move(components)), type});
      }
      e.slca_below = true;
    }
    if (top > 0) {
      internal::StackEntry& parent = stack[top - 1];
      uint64_t* parent_mask = masks.data() + (top - 1) * words;
      for (size_t w = 0; w < words; ++w) parent_mask[w] |= mask[w];
      parent.slca_below |= e.slca_below;
      if (parent.witness == xml::kInvalidTypeId) parent.witness = e.witness;
    }
    stack.pop_back();
    masks.resize(top * words);
  };

  MergedStream stream(lists, &scratch->cursors);
  uint64_t scanned = 0;
  size_t pos = 0;
  int list_index;
  while ((list_index = stream.Pop(&pos)) >= 0) {
    ++scanned;
    const xml::DeweyRef label = lists[static_cast<size_t>(list_index)].label(pos);
    // A depth-0 (root) label has no stack entry to mark: the eager
    // algorithms drop those anchors too ("no common ancestor below
    // nothing"), so skipping keeps all three algorithms in agreement —
    // indexing stack.back() here would be UB on an empty stack.
    if (label.empty()) continue;
    // Longest common prefix with the current stack path.
    size_t p = 0;
    while (p < stack.size() && p < label.depth() &&
           stack[p].component == label[p]) {
      ++p;
    }
    while (stack.size() > p) pop();
    for (size_t i = p; i < label.depth(); ++i) {
      stack.push_back(internal::StackEntry{label[i]});
    }
    masks.resize(stack.size() * words, 0);
    XR_DCHECK(!stack.empty());
    const size_t bit = static_cast<size_t>(list_index);
    masks[(stack.size() - 1) * words + bit / 64] |= uint64_t{1} << (bit % 64);
    if (stack.back().witness == xml::kInvalidTypeId) {
      stack.back().witness = lists[static_cast<size_t>(list_index)].type(pos);
    }
  }
  while (!stack.empty()) pop();
  internal::Metrics().elements_scanned->Increment(scanned);

  std::sort(out->begin() + static_cast<ptrdiff_t>(first_result), out->end(),
            [](const SlcaResult& a, const SlcaResult& b) {
              return a.dewey < b.dewey;
            });
}

}  // namespace xrefine::slca
