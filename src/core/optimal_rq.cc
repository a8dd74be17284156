// The beam DP of Formula 11 over back-pointers. A state is a small node —
// dissimilarity, parent, operation, keyword count — whose keyword set is a
// bitmask over the call's witnessed words, so building, ranking and
// deduplicating states copies no strings. The keywords and applied_ops of
// a state are rebuilt by walking its parents, and only for the candidates
// the call returns.
#include "core/optimal_rq.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>

namespace xrefine::core {

namespace {

constexpr uint32_t kAbsent = UINT32_MAX;  // a word T does not witness
constexpr uint32_t kKeep = UINT32_MAX;
constexpr uint32_t kDelete = UINT32_MAX - 1;

// A rule that can fire at some Q position: its LHS equals the |LHS| terms
// ending there and every RHS word is in T. Its RHS words' mask bits are
// `bits[rhs_begin, rhs_end)` of the plan.
struct Step {
  uint32_t rule;
  uint32_t len;
  uint32_t rhs_begin;
  uint32_t rhs_end;
};

// What one call can do, with every string lookup done up front: each word
// of Q and of a matching rule's RHS is interned once and tested against T
// once. The witnessed words get mask bits 0..width-1; the rest are
// kAbsent.
struct Plan {
  std::vector<uint32_t> bits;          // q's terms first, then RHS words
  std::vector<Step> steps;             // by position, RulesEndingWith order
  std::vector<uint32_t> step_bounds;   // position i's steps: [b[i-1], b[i])
  size_t width = 0;                    // witnessed words
};

Plan MakePlan(const Query& q, const KeywordSet& t, const RuleSet& rules) {
  const size_t n = q.size();
  Plan plan;
  // Room for every rule indexed under a term of Q, matching or not, so
  // each vector is allocated once.
  size_t max_steps = 0;
  size_t max_words = n;
  for (const std::string& k : q) {
    if (const auto* rule_ids = rules.RulesEndingWith(k)) {
      max_steps += rule_ids->size();
      for (size_t rid : *rule_ids) max_words += rules.rule(rid).rhs.size();
    }
  }
  std::vector<const std::string*> words;
  words.reserve(max_words);
  for (const std::string& k : q) words.push_back(&k);
  plan.steps.reserve(max_steps);
  plan.step_bounds.reserve(n + 1);
  plan.step_bounds.push_back(0);
  for (size_t i = 1; i <= n; ++i) {
    if (const auto* rule_ids = rules.RulesEndingWith(q[i - 1])) {
      for (size_t rid : *rule_ids) {
        const RefinementRule& r = rules.rule(rid);
        const size_t len = r.lhs.size();
        if (len > i ||
            !std::equal(r.lhs.begin(), r.lhs.end(),
                        q.begin() + static_cast<ptrdiff_t>(i - len))) {
          continue;
        }
        const auto begin = static_cast<uint32_t>(words.size());
        for (const std::string& w : r.rhs) words.push_back(&w);
        plan.steps.push_back(Step{static_cast<uint32_t>(rid),
                                  static_cast<uint32_t>(len), begin,
                                  static_cast<uint32_t>(words.size())});
      }
    }
    plan.step_bounds.push_back(static_cast<uint32_t>(plan.steps.size()));
  }

  // Intern by sorting: equal words form one run, looked up in T once.
  std::vector<uint32_t> order(words.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return *words[a] < *words[b]; });
  plan.bits.assign(words.size(), kAbsent);
  for (size_t r = 0; r < order.size();) {
    size_t run_end = r + 1;
    while (run_end < order.size() &&
           *words[order[run_end]] == *words[order[r]]) {
      ++run_end;
    }
    if (t.count(*words[order[r]]) > 0) {
      for (size_t j = r; j < run_end; ++j) {
        plan.bits[order[j]] = static_cast<uint32_t>(plan.width);
      }
      ++plan.width;
    }
    r = run_end;
  }

  // Keep only the rules whose RHS is fully witnessed, in order.
  size_t kept = 0;
  size_t step = 0;
  for (size_t i = 1; i <= n; ++i) {
    for (; step < plan.step_bounds[i]; ++step) {
      const Step& s = plan.steps[step];
      if (std::all_of(plan.bits.begin() + s.rhs_begin,
                      plan.bits.begin() + s.rhs_end,
                      [](uint32_t b) { return b != kAbsent; })) {
        plan.steps[kept++] = s;
      }
    }
    plan.step_bounds[i] = static_cast<uint32_t>(kept);
  }
  plan.steps.resize(kept);
  return plan;
}

// Whether position i (1-based) may keep, or delete, its term k_i.
bool MayKeep(const Plan& plan, size_t i) {
  return plan.bits[i - 1] != kAbsent;
}

bool MayDelete(const Plan& plan, size_t i, const OptimalRqOptions& options) {
  return !MayKeep(plan, i) || options.explore_deletions_of_present_terms;
}

// Upper bounds on what one call builds, so each arena is allocated once:
// position i extends at most the kept states of each position it reads,
// and keeps at most `beam` of what it builds.
struct Capacity {
  size_t nodes = 1;   // states built, the root included
  size_t kept = 1;    // states kept over all positions, the root included
  size_t widest = 0;  // states built at one position
};

Capacity Bound(const Plan& plan, size_t n, const OptimalRqOptions& options) {
  std::vector<size_t> kept(n + 1);
  kept[0] = 1;
  Capacity cap;
  for (size_t i = 1; i <= n; ++i) {
    size_t built = kept[i - 1] * (size_t{MayKeep(plan, i)} +
                                  size_t{MayDelete(plan, i, options)});
    for (uint32_t s = plan.step_bounds[i - 1]; s < plan.step_bounds[i]; ++s) {
      built += kept[i - plan.steps[s].len];
    }
    kept[i] = std::min(options.beam_width, built);
    cap.nodes += built;
    cap.kept += kept[i];
    cap.widest = std::max(cap.widest, built);
  }
  return cap;
}

// One beam state: a refinement of Q's first `end` terms, stored as the
// operation that extended its `parent` state (kKeep, kDelete, or a rule
// id). Its keyword set is the mask at the same index of the mask arena.
struct Node {
  double dsim;
  uint32_t parent;
  uint32_t end;
  uint32_t op;
  uint32_t size;  // distinct keywords
};

class BeamDp {
 public:
  BeamDp(const Query& q, const KeywordSet& t, const RuleSet& rules,
         const OptimalRqOptions& options)
      : q_(q),
        rules_(rules),
        plan_(MakePlan(q, t, rules)),
        mask_words_((plan_.width + 63) / 64) {
    const size_t n = q.size();
    const Capacity cap = Bound(plan_, n, options);
    nodes_.reserve(cap.nodes);
    masks_.reserve(cap.nodes * mask_words_);
    beam_.reserve(cap.kept);
    beam_bounds_.reserve(n + 2);
    order_.reserve(cap.widest);
    nodes_.push_back(Node{0.0, 0, 0, kKeep, 0});  // C[0]: the empty RQ
    masks_.resize(mask_words_, 0);
    beam_.push_back(0);
    beam_bounds_ = {0, 1};

    for (size_t i = 1; i <= n; ++i) {
      const uint32_t first = static_cast<uint32_t>(nodes_.size());
      const uint32_t* ki = &plan_.bits[i - 1];
      // Option 1: keep k_i when the data witnesses it.
      if (MayKeep(plan_, i)) {
        for (uint32_t p : State(i - 1)) Extend(p, kKeep, i, 0.0, ki, ki + 1);
      }
      // Option 2: delete k_i.
      if (MayDelete(plan_, i, options)) {
        for (uint32_t p : State(i - 1)) {
          Extend(p, kDelete, i, rules.deletion_cost(), nullptr, nullptr);
        }
      }
      // Option 3: a rule whose LHS ends at i and whose RHS is witnessed.
      for (uint32_t s = plan_.step_bounds[i - 1]; s < plan_.step_bounds[i];
           ++s) {
        const Step& step = plan_.steps[s];
        const uint32_t* rhs = plan_.bits.data();
        for (uint32_t p : State(i - step.len)) {
          Extend(p, step.rule, i, rules.rule(step.rule).ds,
                 rhs + step.rhs_begin, rhs + step.rhs_end);
        }
      }
      Prune(first, options.beam_width);
    }
  }

  // The final states, best first, rebuilt as refined queries: the empty
  // query (which has no SLCA) is skipped, at most `k` are returned.
  std::vector<RefinedQuery> Top(size_t k) const {
    const std::span<const uint32_t> final_states = State(q_.size());
    std::vector<RefinedQuery> out;
    out.reserve(std::min(k, final_states.size()));
    std::vector<uint32_t> path;  // leaf to root; every step consumes a term
    path.reserve(q_.size());
    for (uint32_t index : final_states) {
      if (nodes_[index].size == 0) continue;
      if (out.size() >= k) break;
      path.clear();
      size_t ops = 0;
      for (uint32_t j = index; j != 0; j = nodes_[j].parent) {
        path.push_back(j);
        ops += nodes_[j].op != kKeep;
      }
      RefinedQuery rq;
      rq.dissimilarity = nodes_[index].dsim;
      rq.keywords.reserve(nodes_[index].size);
      rq.applied_ops.reserve(ops);
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        const Node& node = nodes_[*it];
        const std::string& ki = q_[node.end - 1];
        if (node.op == kKeep) {
          AppendKeywordUnique(&rq.keywords, ki);
        } else if (node.op == kDelete) {
          std::string op;
          op.reserve(ki.size() + 10);
          op.append("delete \"").append(ki).push_back('"');
          rq.applied_ops.push_back(std::move(op));
        } else {
          const RefinementRule& r = rules_.rule(node.op);
          for (const std::string& w : r.rhs) {
            AppendKeywordUnique(&rq.keywords, w);
          }
          rq.applied_ops.push_back(r.DebugString());
        }
      }
      out.push_back(std::move(rq));
    }
    return out;
  }

 private:
  // The beam kept at position i (C[i]'s states), best first.
  std::span<const uint32_t> State(size_t i) const {
    return std::span<const uint32_t>(beam_).subspan(
        beam_bounds_[i], beam_bounds_[i + 1] - beam_bounds_[i]);
  }

  static void AppendKeywordUnique(Query* keywords, const std::string& k) {
    if (std::find(keywords->begin(), keywords->end(), k) == keywords->end()) {
      keywords->push_back(k);
    }
  }

  // Appends the state reached from `parent` by `op`, covering Q's first
  // `end` terms, costing `ds` more, and adding the words of bits [b, e).
  void Extend(uint32_t parent, uint32_t op, size_t end, double ds,
              const uint32_t* b, const uint32_t* e) {
    const Node& from = nodes_[parent];
    // Keeping a term is free: the dsim is copied, not summed with 0.
    Node node{op == kKeep ? from.dsim : from.dsim + ds, parent,
              static_cast<uint32_t>(end), op, from.size};
    const size_t at = masks_.size();
    masks_.resize(at + mask_words_);
    uint64_t* mask = masks_.data() + at;
    std::copy_n(masks_.data() + parent * mask_words_, mask_words_, mask);
    for (; b != e; ++b) {
      uint64_t& word = mask[*b / 64];
      const uint64_t bit = uint64_t{1} << (*b % 64);
      if ((word & bit) == 0) {
        word |= bit;
        ++node.size;
      }
    }
    nodes_.push_back(node);
  }

  // Keeps the `beam` best of the states appended since `first`,
  // deduplicated by keyword set (the cheaper refinement path to the same
  // RQ wins), as position i's beam.
  void Prune(uint32_t first, size_t beam) {
    order_.resize(nodes_.size() - first);
    std::iota(order_.begin(), order_.end(), first);
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      if (nodes_[a].dsim != nodes_[b].dsim) {
        return nodes_[a].dsim < nodes_[b].dsim;
      }
      return nodes_[a].size > nodes_[b].size;
    });
    const size_t kept_begin = beam_.size();
    for (uint32_t c : order_) {
      if (beam_.size() - kept_begin >= beam) break;
      const uint64_t* mask = masks_.data() + size_t{c} * mask_words_;
      const bool seen = std::any_of(
          beam_.begin() + static_cast<ptrdiff_t>(kept_begin), beam_.end(),
          [&](uint32_t k) {
            return std::equal(mask, mask + mask_words_,
                              masks_.data() + size_t{k} * mask_words_);
          });
      if (!seen) beam_.push_back(c);
    }
    beam_bounds_.push_back(static_cast<uint32_t>(beam_.size()));
  }

  const Query& q_;
  const RuleSet& rules_;
  const Plan plan_;
  const size_t mask_words_;            // ⌈witnessed words / 64⌉
  std::vector<Node> nodes_;            // every state built, pruned or not
  std::vector<uint64_t> masks_;        // mask_words_ per node
  std::vector<uint32_t> beam_;         // kept nodes, position by position
  std::vector<uint32_t> beam_bounds_;  // position i: [b[i], b[i+1])
  std::vector<uint32_t> order_;        // Prune's sort buffer
};

}  // namespace

std::optional<RefinedQuery> GetOptimalRq(const Query& q, const KeywordSet& t,
                                         const RuleSet& rules,
                                         const OptimalRqOptions& options) {
  std::vector<RefinedQuery> top = GetTopOptimalRqs(q, t, rules, 1, options);
  if (top.empty()) return std::nullopt;
  return std::move(top.front());
}

std::vector<RefinedQuery> GetTopOptimalRqs(const Query& q, const KeywordSet& t,
                                           const RuleSet& rules, size_t k,
                                           const OptimalRqOptions& options) {
  if (q.empty() || k == 0) return {};
  OptimalRqOptions effective = options;
  effective.beam_width = std::max(effective.beam_width, 2 * k);
  return BeamDp(q, t, rules, effective).Top(k);
}

}  // namespace xrefine::core
