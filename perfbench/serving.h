// The served half of a benchmark run: the serving process (started from
// this same executable with the "serve" command), and the load generator
// that drives it over loopback.
#ifndef XREFINE_PERFBENCH_SERVING_H_
#define XREFINE_PERFBENCH_SERVING_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "perfbench/bench_env.h"

namespace xrefine::perfbench {

/// Wall time of the serving process's set-up phases.
struct SetupPhases {
  double generate_s = 0;
  double index_build_s = 0;
  double save_s = 0;  // store_cold only: SaveCorpus into the store file
  double open_s = 0;  // store_cold only: KVStore + StoreBackedIndexSource
};
std::string FormatSetupPhases(const SetupPhases& phases);
bool ParseSetupPhases(std::string_view line, SetupPhases* out);

/// Entry point of the serving process; serves from the store file at
/// `store_path` when it is non-empty.
int ServeMain(const std::string& store_path);

/// A running serving process. Stopping sends SIGTERM and waits for it.
class ServerProcess {
 public:
  /// Starts `exe serve [--store store_path]` and waits for its port line.
  static StatusOr<std::unique_ptr<ServerProcess>> Start(
      const std::string& exe, const std::string& store_path);
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  void Stop();
  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  const SetupPhases& phases() const { return phases_; }

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  SetupPhases phases_;
};

/// The timed window is cut into slices of this many consecutive answers
/// (about 4 s cold, 25 ms hot); each end-to-end metric is the median of its
/// per-slice values, so a burst of host noise that slows some slices does
/// not move it. A slice is the smallest that holds a p99 with at least 10
/// answers beyond it, with some margin.
inline constexpr uint64_t kColdSliceAnswers = 1200;
inline constexpr uint64_t kHotSliceAnswers = 5000;

/// Serving processes a --trace 0 run starts one after another; set-up time
/// is taken from each, setup_s is their median, and the last one serves
/// the timed window.
inline constexpr size_t kSetups = 9;

struct ServedOptions {
  Workload workload = Workload::kColdMem;
  double seconds = 20;
  size_t setups = kSetups;
  std::string exe;         // this executable
  std::string store_path;  // store_cold's store file
};

/// One request of the timed window.
struct Timing {
  uint32_t position = 0;  // request index in the trace
  /// Answered with its reference answer. Set by the load loop for any refine
  /// response (not an error or RETRY_AFTER); cold answers are checked
  /// against their references after the window.
  bool correct = false;
  int64_t rtt_ns = 0;     // client round trip
  int64_t done_ns = 0;    // completion, from the window's start
};

/// One slice of the timed window.
struct Slice {
  int64_t start_ns = 0;  // from the window's start
  int64_t end_ns = 0;
  uint64_t answers = 0;     // answers completed within the slice
  double server_cpu_s = 0;  // serving process CPU used within the slice
};

/// CPUs a run pins the generator and every serving process to: as many as
/// the workload keeps busy. zipf_hot's load thread and the session's reader
/// thread hand its pipeline back and forth every few microseconds, so they
/// share one; the cold workloads keep two queries in flight, one per CPU.
/// Left free to use every CPU, the scheduler keeps waking idle vCPUs, and
/// the shared host takes CPU back from the VM (steal) far more often
/// (NOTES.md, Steadiness).
inline size_t CpusFor(Workload w) { return IsHot(w) ? 1 : kColdConnections; }

struct ServedRun {
  std::vector<int> cpus;  // the CPUs it ran on (empty: not pinned)
  std::vector<double> setup_s;
  SetupPhases phases;  // of the serving process that served the window
  std::vector<Timing> timings;  // in trace order
  std::vector<Slice> slices;
  /// Cold workloads: canonical answer bytes by trace position, for the
  /// check against references computed after the window.
  std::vector<std::string> answer_bytes;
  uint64_t attempted = 0;  // requests sent in the window, answered or not
  uint64_t transport_errors = 0;
  uint64_t mismatched = 0;  // answers that differ from their reference
  double window_s = 0;
  double gen_cpu_s = 0;
  double rss_mib = 0;
  double steal_pct = 0;
  /// The daemon's metrics registry around the timed window.
  std::string stats_before;
  std::string stats_after;
  std::vector<std::string> problems;  // anything that makes the run invalid
};

/// Starts the serving process(es), sends the warm-up, drives the timed
/// window and collects the answers and the serving process's counters.
/// `pool_answers` (zipf_hot) are the references answers are checked
/// against inline; `probe_answer` is the reference for kSetupProbe.
ServedRun RunServed(const ServedOptions& options, const Trace& trace,
                    const std::string& probe_answer,
                    const std::vector<std::string>& pool_answers);

}  // namespace xrefine::perfbench

#endif  // XREFINE_PERFBENCH_SERVING_H_
