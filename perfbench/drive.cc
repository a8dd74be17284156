// The load generator: starts the serving process, drives it over loopback
// from at most two threads and two connections, and measures the timed
// window from outside the serving process.
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "perfbench/serving.h"
#include "perfbench/stats.h"
#include "server/client.h"

extern char** environ;

namespace xrefine::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

Status ConnectTo(uint16_t port, server::Client* client) {
  return client->Connect("127.0.0.1", port);
}

// Pins the calling thread, and so every thread and process it starts from
// then on, to the first `n` CPUs it may use; restores its CPU mask when it
// goes out of scope. A run uses as many CPUs as it keeps busy (CpusFor).
class PinnedCpus {
 public:
  explicit PinnedCpus(size_t n) {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c = 0; c < CPU_SETSIZE && cpus_.size() < n; ++c) {
      if (!CPU_ISSET(c, &saved_)) continue;
      CPU_SET(c, &set);
      cpus_.push_back(c);
    }
    if (::sched_setaffinity(0, sizeof set, &set) != 0) cpus_.clear();
  }
  ~PinnedCpus() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedCpus(const PinnedCpus&) = delete;
  PinnedCpus& operator=(const PinnedCpus&) = delete;

  const std::vector<int>& cpus() const { return cpus_; }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
};

// Cuts the timed window into slices of `per_slice` consecutive answers and
// samples the serving process's CPU time at each boundary. The load thread
// whose answer completes a slice takes the sample, so no extra thread runs
// and no timer fires. A last, partial slice joins the one before it.
class SliceSampler {
 public:
  SliceSampler(pid_t pid, Clock::time_point start, uint64_t per_slice)
      : pid_(pid),
        start_(start),
        per_slice_(per_slice),
        last_cpu_s_(ProcessCpuSeconds(pid)) {}

  Clock::time_point start() const { return start_; }

  /// Counts one answer, completed at `now`.
  void Count(Clock::time_point now) {
    if ((answers_.fetch_add(1) + 1) % per_slice_ != 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    Close(now, per_slice_);
  }

  /// Ends the last slice at the window's last answer, `end_ns` after its
  /// start; call once every load thread has stopped.
  std::vector<Slice> Finish(int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t closed = 0;
    for (const Slice& slice : slices_) closed += slice.answers;
    Close(start_ + std::chrono::nanoseconds(end_ns), answers_.load() - closed);
    if (slices_.size() > 1 && slices_.back().answers < per_slice_) {
      Slice tail = slices_.back();
      slices_.pop_back();
      slices_.back().end_ns = tail.end_ns;
      slices_.back().answers += tail.answers;
      slices_.back().server_cpu_s += tail.server_cpu_s;
    }
    return slices_;
  }

 private:
  void Close(Clock::time_point now, uint64_t answers) {
    double cpu_s = ProcessCpuSeconds(pid_);
    Slice slice;
    slice.start_ns = slices_.empty() ? 0 : slices_.back().end_ns;
    slice.end_ns = Nanos(now - start_);
    slice.answers = answers;
    slice.server_cpu_s = cpu_s - last_cpu_s_;
    last_cpu_s_ = cpu_s;
    slices_.push_back(slice);
  }

  const pid_t pid_;
  const Clock::time_point start_;
  const uint64_t per_slice_;
  std::atomic<uint64_t> answers_{0};
  std::mutex mu_;
  double last_cpu_s_;
  std::vector<Slice> slices_;
};

// Sends `queries` over `connections` closed-loop connections, one request
// outstanding on each, until every query is sent or `deadline` passes
// (Clock::time_point::max() = no deadline). Positions 0..attempted-1 are
// all sent; timings and canonical answer bytes come back by position.
// `sampler` (may be null) sees every answer of a timed window.
struct ClosedLoop {
  std::vector<Timing> timings;
  std::vector<std::string> bytes;
  uint64_t transport_errors = 0;
  bool exhausted = false;
};

ClosedLoop DriveClosedLoop(uint16_t port,
                           const std::vector<std::string>& queries,
                           size_t connections, Clock::time_point deadline,
                           SliceSampler* sampler) {
  ClosedLoop out;
  out.timings.resize(queries.size());
  out.bytes.resize(queries.size());
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<bool> exhausted{false};
  std::vector<server::Client> clients(connections);
  for (server::Client& client : clients) {
    if (!ConnectTo(port, &client).ok()) transport_errors.fetch_add(1);
  }
  std::vector<std::thread> threads;
  const Clock::time_point window_start =
      sampler != nullptr ? sampler->start() : Clock::now();
  for (server::Client& client : clients) {
    threads.emplace_back([&, client = &client] {
      while (client->connected() && Clock::now() < deadline) {
        size_t i = next.fetch_add(1);
        if (i >= queries.size()) {
          if (deadline != Clock::time_point::max()) exhausted = true;
          break;
        }
        server::Client::RefineResult result;
        Clock::time_point start = Clock::now();
        Status st = client->Refine(queries[i], 0, &result);
        Clock::time_point done = Clock::now();
        Timing& timing = out.timings[i];
        timing.position = static_cast<uint32_t>(i);
        timing.rtt_ns = Nanos(done - start);
        timing.done_ns = Nanos(done - window_start);
        if (sampler != nullptr) sampler->Count(done);
        if (!st.ok()) {
          transport_errors.fetch_add(1);
          client->Close();
        } else if (result.kind ==
                   server::Client::RefineResult::Kind::kRefined) {
          timing.correct = true;
          out.bytes[i] = CanonicalBytes(result.response);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  size_t attempted = std::min(next.load(), queries.size());
  out.timings.resize(attempted);
  out.bytes.resize(attempted);
  out.transport_errors = transport_errors.load();
  out.exhausted = exhausted.load();
  return out;
}

// zipf_hot: one connection pipelined to kHotDepth, refilled whenever half
// the window has been answered. Every answer is checked inline against its
// pool query's reference, decoded once up front, field by field: this thread
// is on every round trip, so its per-answer work is kept small. Timings come
// back in completion order.
struct Pipelined {
  std::vector<Timing> timings;
  uint64_t sent = 0;  // answered or not
  uint64_t transport_errors = 0;
  uint64_t mismatched = 0;
};

Pipelined DrivePipelined(uint16_t port, const Trace& trace, size_t requests,
                         Clock::time_point deadline,
                         const std::vector<server::RefineResponse>& expected,
                         SliceSampler* sampler) {
  Pipelined out;
  const Clock::time_point window_start =
      sampler != nullptr ? sampler->start() : Clock::now();
  server::Client client;
  if (!ConnectTo(port, &client).ok()) {
    out.transport_errors = 1;
    return out;
  }
  client.set_pipeline_depth(kHotDepth);
  // Request ids are consecutive and at most kHotDepth are outstanding, so
  // id % kSlots never collides.
  constexpr size_t kSlots = 4 * kHotDepth;
  struct Slot {
    uint32_t position = 0;
    Clock::time_point sent;
  };
  std::vector<Slot> slots(kSlots);
  size_t position = 0;
  auto more = [&] { return position < requests && Clock::now() < deadline; };
  while (more() || client.pending() > 0) {
    size_t first_new = position;
    while (client.pending() < kHotDepth && more()) {
      uint64_t id = 0;
      if (!client.SendNowait(trace.Request(position), 0, &id).ok()) {
        ++out.transport_errors;
        return out;
      }
      slots[id % kSlots].position = static_cast<uint32_t>(position);
      out.sent = ++position;
    }
    Clock::time_point sent = Clock::now();
    if (position > first_new && !client.Flush().ok()) {
      ++out.transport_errors;
      return out;
    }
    for (Slot& slot : slots) {
      if (slot.position >= first_new && slot.position < position) {
        slot.sent = sent;
      }
    }
    size_t target = more() ? kHotDepth / 2 : 0;
    while (client.pending() > target) {
      server::Client::PipelinedResult got;
      if (!client.Poll(&got).ok()) {
        ++out.transport_errors;
        return out;
      }
      Clock::time_point now = Clock::now();
      const Slot& slot = slots[got.request_id % kSlots];
      Timing timing;
      timing.position = slot.position;
      timing.rtt_ns = Nanos(now - slot.sent);
      timing.done_ns = Nanos(now - window_start);
      if (sampler != nullptr) sampler->Count(now);
      if (got.result.kind == server::Client::RefineResult::Kind::kRefined) {
        timing.correct = SameAnswer(
            got.result.response, expected[trace.PoolIndex(slot.position)]);
        if (!timing.correct) ++out.mismatched;
      }
      out.timings.push_back(timing);
    }
  }
  return out;
}

std::string FetchStats(uint16_t port) {
  server::Client client;
  std::string json;
  if (!ConnectTo(port, &client).ok() || !client.StatsJson(&json).ok()) {
    return "";
  }
  return json;
}

}  // namespace

std::string FormatSetupPhases(const SetupPhases& p) {
  char line[256];
  std::snprintf(line, sizeof line,
                "setup generate_s=%.6f index_build_s=%.6f save_s=%.6f "
                "open_s=%.6f",
                p.generate_s, p.index_build_s, p.save_s, p.open_s);
  return line;
}

bool ParseSetupPhases(std::string_view line, SetupPhases* out) {
  std::string copy(line);
  return std::sscanf(copy.c_str(),
                     "setup generate_s=%lf index_build_s=%lf save_s=%lf "
                     "open_s=%lf",
                     &out->generate_s, &out->index_build_s, &out->save_s,
                     &out->open_s) == 4;
}

StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& exe, const std::string& store_path) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::IoError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {exe, "serve"};
  if (!store_path.empty()) {
    args.push_back("--store");
    args.push_back(store_path);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::unique_ptr<ServerProcess> process(new ServerProcess());
  int rc = ::posix_spawn(&process->pid_, exe.c_str(), &actions, nullptr,
                         argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    process->pid_ = -1;
    return Status::IoError("posix_spawn failed");
  }
  process->stdout_fd_ = fds[0];

  // Read lines until the port line; EOF means the child died.
  std::string buffer;
  while (true) {
    size_t eol = buffer.find('\n');
    if (eol != std::string::npos) {
      std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      unsigned port = 0;
      if (std::sscanf(line.c_str(), "listening on port %u", &port) == 1) {
        process->port_ = static_cast<uint16_t>(port);
        return process;
      }
      ParseSetupPhases(line, &process->phases_);
      continue;
    }
    char chunk[512];
    ssize_t n = ::read(process->stdout_fd_, chunk, sizeof chunk);
    if (n > 0) {
      buffer.append(chunk, static_cast<size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return Status::IoError("serving process exited during set-up");
    }
  }
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

ServedRun RunServed(const ServedOptions& options, const Trace& trace,
                    const std::string& probe_answer,
                    const std::vector<std::string>& pool_answers) {
  ServedRun run;
  const PinnedCpus pinned(CpusFor(options.workload));
  run.cpus = pinned.cpus();
  std::unique_ptr<ServerProcess> process;
  for (size_t i = 0; i < options.setups; ++i) {
    if (process != nullptr) process->Stop();
    Clock::time_point start = Clock::now();
    auto started = ServerProcess::Start(options.exe, options.store_path);
    if (!started.ok()) {
      run.problems.push_back(started.status().ToString());
      return run;
    }
    process = std::move(started).value();
    server::Client client;
    server::Client::RefineResult result;
    Status st = ConnectTo(process->port(), &client);
    if (st.ok()) st = client.Refine(std::string(kSetupProbe), 0, &result);
    run.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    if (!st.ok() ||
        result.kind != server::Client::RefineResult::Kind::kRefined ||
        CanonicalBytes(result.response) != probe_answer) {
      run.problems.push_back("set-up probe was not answered correctly");
      return run;
    }
  }
  run.phases = process->phases();
  const uint16_t port = process->port();

  // zipf_hot's references, decoded once for the load thread's check.
  std::vector<server::RefineResponse> expected;
  for (const std::string& answer : pool_answers) {
    auto decoded = DecodeCanonical(answer);
    if (!decoded.ok()) {
      run.problems.push_back("a reference answer does not decode");
      return run;
    }
    expected.push_back(std::move(decoded).value());
  }

  // Warm-up: cold workloads send queries of their own, never timed;
  // zipf_hot computes its whole pool (filling the result cache) and then
  // serves a burst of hits.
  if (IsHot(options.workload)) {
    ClosedLoop warm = DriveClosedLoop(port, trace.queries, kColdConnections,
                                      Clock::time_point::max(), nullptr);
    if (warm.bytes != pool_answers) {
      run.problems.push_back("zipf_hot warm-up answers differ");
      return run;
    }
    DrivePipelined(port, trace, trace.order.size() / 8,
                   Clock::time_point::max(), expected, nullptr);
  } else {
    DriveClosedLoop(port, trace.warmup, kColdConnections,
                    Clock::time_point::max(), nullptr);
  }

  run.stats_before = FetchStats(port);
  const pid_t pid = process->pid();
  const HostCpu host_before = ReadHostCpu();
  const double gen_cpu_before = SelfCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  SliceSampler sampler(pid, start,
                       IsHot(options.workload) ? kHotSliceAnswers
                                               : kColdSliceAnswers);
  if (IsHot(options.workload)) {
    Pipelined hot = DrivePipelined(port, trace, SIZE_MAX, deadline, expected,
                                   &sampler);
    run.timings = std::move(hot.timings);
    run.attempted = hot.sent;
    run.transport_errors = hot.transport_errors;
    run.mismatched = hot.mismatched;
  } else {
    ClosedLoop cold = DriveClosedLoop(port, trace.queries, kColdConnections,
                                      deadline, &sampler);
    if (cold.exhausted) {
      run.problems.push_back("the trace ran out before the window ended");
    }
    run.timings = std::move(cold.timings);
    run.attempted = run.timings.size();
    run.answer_bytes = std::move(cold.bytes);
    run.transport_errors = cold.transport_errors;
  }
  int64_t end_ns = 0;
  for (const Timing& t : run.timings) end_ns = std::max(end_ns, t.done_ns);
  run.slices = sampler.Finish(end_ns);
  run.window_s = run.slices.back().end_ns / 1e9;
  run.gen_cpu_s = SelfCpuSeconds() - gen_cpu_before;
  run.steal_pct = StealPercent(host_before, ReadHostCpu());
  run.stats_after = FetchStats(port);
  run.rss_mib = PeakRssMib(pid);
  process->Stop();
  // Pipelined answers arrive in completion order.
  std::sort(run.timings.begin(), run.timings.end(),
            [](const Timing& a, const Timing& b) {
              return a.position < b.position;
            });
  if (run.stats_before.empty() || run.stats_after.empty()) {
    run.problems.push_back("could not read the serving process's metrics");
  }
  return run;
}

}  // namespace xrefine::perfbench
