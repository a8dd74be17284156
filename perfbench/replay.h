// The in-process replay behind the traced breakdown: a workload's requests
// run through the same public calls the daemon makes for them, in the same
// order, on one thread, with or without spans.
#ifndef XREFINE_PERFBENCH_REPLAY_H_
#define XREFINE_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/xrefine.h"
#include "index/index_source.h"
#include "perfbench/bench_env.h"
#include "perfbench/tracing.h"
#include "server/admission.h"
#include "server/server.h"
#include "text/lexicon.h"

namespace xrefine::perfbench {

/// One replay pass: a fresh engine with the daemon's options over its own
/// source, answering requests one at a time. The engine first answers
/// kSetupProbe and, for zipf_hot, the whole pool (filling its result
/// cache), as the serving process did before the window; neither counts.
class ReplayPass {
 public:
  /// `source`, `lexicon` and `trace` must outlive the pass.
  ReplayPass(const index::IndexSource* source, const text::Lexicon* lexicon,
             const Trace* trace, Workload workload, bool traced);
  ReplayPass(const ReplayPass&) = delete;
  ReplayPass& operator=(const ReplayPass&) = delete;

  /// Replays the trace's request at `position`.
  void Run(size_t position);

  /// Wall time of each replayed request, frame decode to frame encode.
  const std::vector<int64_t>& request_ns() const { return request_ns_; }
  int64_t TotalNs() const;
  /// Canonical answer bytes of each replayed request.
  const std::vector<std::string>& answers() const { return answers_; }
  /// Span self times (zero untraced).
  SelfTimes Self() const { return ComputeSelfTimes(tracer_.spans()); }
  uint64_t engine_runs() const { return engine_runs_; }  // cache misses
  uint64_t rules() const { return rules_; }  // prepared across those runs
  const TracingIndexSource& index() const { return tracing_source_; }
  /// A registry counter or histogram sum, summed over this pass's
  /// requests: each request's delta is read around it, so a pass
  /// interleaved with another counts only its own work. Only the names the
  /// breakdown uses are watched (replay.cc).
  uint64_t Count(const std::string& name) const;

 private:
  const Trace* trace_;
  Tracer tracer_;
  TracingIndexSource tracing_source_;
  core::XRefine engine_;
  const server::ServerOptions server_options_;
  server::AdmissionController admission_;
  std::vector<int64_t> request_ns_;
  std::vector<std::string> answers_;
  uint64_t engine_runs_ = 0;
  uint64_t rules_ = 0;
  std::vector<uint64_t> counts_;  // parallel to the watched names
};

}  // namespace xrefine::perfbench

#endif  // XREFINE_PERFBENCH_REPLAY_H_
