// The serving benchmark. One run of one workload:
//
//   perfbench run --workload cold_mem|zipf_hot|store_cold --seed N
//                 --seconds S --trace 0|1 --run-dir DIR
//
// generates the workload's trace from the seed, starts the daemon in its own
// serving process (this executable, "serve" command), drives it over
// loopback, checks every answer against an in-process reference, and prints
// one JSON line last: the end-to-end metrics with --trace 0, or with
// --trace 1 the per-layer breakdown from an in-process replay of the same
// requests. See NOTES.md for the workloads and how to read the numbers.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench_env.h"
#include "perfbench/replay.h"
#include "perfbench/serving.h"
#include "perfbench/stats.h"

namespace xrefine::perfbench {
namespace {

// Answers the digest covers: a prefix every run reaches, so runs and
// commits can compare it.
constexpr size_t kDigestAnswers = 1000;
// Requests the traced breakdown replays (twice: untraced and traced),
// spread evenly over the timed window's requests.
constexpr size_t kReplayColdRequests = 400;
constexpr size_t kReplayHotRequests = 200000;

struct Args {
  Workload workload = Workload::kColdMem;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string run_dir = ".";
};

// One metric of the final JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

// Threads computing references. They run only while no serving process
// is up, so they never compete with a measurement.
constexpr size_t kReferenceThreads = 4;

// References for queries[0..count).
std::vector<std::string> ComputeReferences(
    const core::XRefine& engine, const std::vector<std::string>& queries,
    size_t count) {
  std::vector<std::string> out(count);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < count; i += kReferenceThreads) {
        out[i] = ReferenceAnswer(engine, queries[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

// Change of one daemon or replay registry value between two dumps.
uint64_t Delta(const std::string& before, const std::string& after,
               const char* name, const char* field = "") {
  return RegistryValue(after, name, field) - RegistryValue(before, name, field);
}

// Deletes a temporary file when the run ends, however it ends.
struct TempFile {
  std::string path;
  ~TempFile() { ::unlink(path.c_str()); }
};

std::string ExePath() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  return std::string(buf, static_cast<size_t>(n));
}

// A fresh source for one replay pass: its caches start empty, as the
// serving process's did.
struct ReplaySource {
  Corpus corpus;
  StoreSource store;
  const index::IndexSource* get() const {
    return store.source != nullptr
               ? static_cast<const index::IndexSource*>(store.source.get())
               : corpus.index.get();
  }
};

std::unique_ptr<ReplaySource> OpenReplaySource(const std::string& store_path) {
  auto source = std::make_unique<ReplaySource>();
  if (store_path.empty()) {
    source->corpus = BuildCorpus(nullptr, nullptr);
    return source;
  }
  auto store = OpenStoreSource(store_path);
  if (!store.ok()) return nullptr;
  source->store = std::move(store).value();
  return source;
}

// The per-layer breakdown (see NOTES.md for what each metric means and
// which end-to-end metric it should move).
std::vector<Metric> LayerMetrics(const ServedRun& served,
                                 const std::vector<size_t>& positions,
                                 const ReplayPass& plain,
                                 const ReplayPass& traced) {
  auto served_delta = [&](const char* name, const char* field = "") {
    return static_cast<double>(
        Delta(served.stats_before, served.stats_after, name, field));
  };
  auto replay_delta = [&](const char* name) {
    return static_cast<double>(traced.Count(name));
  };
  const double n = static_cast<double>(traced.request_ns().size());
  const double runs = static_cast<double>(traced.engine_runs());
  const SelfTimes self = traced.Self();
  auto per_request_us = [&](SpanName s) { return Div(self.of(s) / 1e3, n); };
  auto per_run_us = [&](SpanName s) { return Div(self.of(s) / 1e3, runs); };

  double transport_ns = 0;
  for (size_t i = 0; i < positions.size(); ++i) {
    transport_ns += static_cast<double>(
        served.timings[positions[i]].rtt_ns - plain.request_ns()[i]);
  }
  // Worker-served requests only: request_us counts accept-to-send, the
  // engine's total_us the run itself. Inline hits never queue.
  const double worker_runs = served_delta("query.total_us", "count");
  const double queue_wait_us =
      served_delta("server.inline_hits") == 0 && worker_runs > 0
          ? Div(served_delta("server.request_us", "sum"),
                served_delta("server.request_us", "count")) -
                Div(served_delta("query.total_us", "sum"), worker_runs)
          : 0;
  const double cache_hits = served_delta("cache.hits");
  const double index_hits = replay_delta("index.cache_hits");
  const double cooccur_hits =
      replay_delta("cooccur.pair_hits") + replay_delta("cooccur.anchor_hits");
  const double pager_hits = replay_delta("pager.cache_hits");

  return {
      {"server.decode_us", per_request_us(SpanName::kDecode), "us"},
      {"server.tokenize_us", per_request_us(SpanName::kTokenize), "us"},
      {"server.admission_us", per_request_us(SpanName::kAdmission), "us"},
      {"server.encode_us", per_request_us(SpanName::kEncode), "us"},
      {"server.transport_us",
       Div(transport_ns / 1e3, static_cast<double>(positions.size())),
       "us"},
      {"server.queue_wait_us", queue_wait_us, "us"},
      {"server.inline_hit_ratio",
       Div(served_delta("server.inline_hits"), served_delta("server.requests")),
       "ratio"},
      {"server.refused",
       served_delta("server.shed") + served_delta("server.rejected") +
           served_delta("server.degraded"),
       "count"},
      {"cache.probe_us",
       per_request_us(SpanName::kCacheTryGet) +
           per_request_us(SpanName::kCacheCompute),
       "us"},
      {"cache.hit_ratio",
       Div(cache_hits, cache_hits + served_delta("cache.misses")), "ratio"},
      {"cache.evictions", served_delta("cache.evictions"), "count"},
      {"cache.coalesced_waits", served_delta("cache.coalesced_waits"),
       "count"},
      {"core.prepare_self_us", per_run_us(SpanName::kPrepare), "us"},
      {"rules.per_query", Div(static_cast<double>(traced.rules()), runs),
       "count"},
      {"rules.spelling_probe_us",
       Div(replay_delta("rules.spelling_probe_us"), runs), "us"},
      {"index.fetch_us",
       per_run_us(SpanName::kIndexFetch) + per_run_us(SpanName::kIndexPrefetch),
       "us"},
      {"index.lists_per_query",
       Div(static_cast<double>(traced.index().fetches()), runs), "count"},
      {"index.cache_hit_ratio",
       Div(index_hits, index_hits + replay_delta("index.cache_misses")),
       "ratio"},
      {"index.list_bytes_per_query",
       Div(static_cast<double>(traced.index().list_bytes()), runs), "bytes"},
      {"index.distinct_lists",
       static_cast<double>(traced.index().distinct_lists()), "count"},
      {"index.distinct_list_bytes",
       static_cast<double>(traced.index().distinct_list_bytes()), "bytes"},
      {"cooccur.hit_ratio",
       Div(cooccur_hits, cooccur_hits + replay_delta("cooccur.pair_misses") +
                             replay_delta("cooccur.anchor_misses")),
       "ratio"},
      {"pager.reads_per_query", Div(replay_delta("pager.page_reads"), runs),
       "count"},
      {"pager.hit_ratio",
       Div(pager_hits, pager_hits + replay_delta("pager.cache_misses")),
       "ratio"},
      {"pager.fetch_us", Div(replay_delta("pager.fetch_us"), runs),
       "us"},
      {"btree.node_reads_per_query",
       Div(replay_delta("btree.node_reads"), runs), "count"},
      {"setup.save_s", served.phases.save_s, "s"},
      {"setup.open_s", served.phases.open_s, "s"},
      {"core.scan_us", per_run_us(SpanName::kScan), "us"},
      {"slca.calls_per_query", Div(replay_delta("slca.calls"), runs),
       "count"},
      {"slca.elements_per_query",
       Div(replay_delta("slca.elements_scanned"), runs), "count"},
      {"core.candidates_per_query",
       Div(replay_delta("query.candidates_enumerated"), runs), "count"},
      {"core.rank_us", per_run_us(SpanName::kRank), "us"},
      {"setup.generate_s", served.phases.generate_s, "s"},
      {"setup.index_build_s", served.phases.index_build_s, "s"},
      {"trace.request_us",
       Div(static_cast<double>(plain.TotalNs()) / 1e3, n), "us"},
      {"trace.coverage_pct",
       Div(100.0 * static_cast<double>(self.Total()),
           static_cast<double>(traced.TotalNs())),
       "%"},
      {"tracing.overhead_pct",
       Div(100.0 * static_cast<double>(traced.TotalNs() - plain.TotalNs()),
           static_cast<double>(plain.TotalNs())),
       "%"},
      {"host.steal_pct", served.steal_pct, "%"},
      {"gen.cpu_pct", Div(100.0 * served.gen_cpu_s, served.window_s), "%"},
  };
}

// End-to-end figures of one slice of the timed window, over its correct
// answers.
struct SliceMetrics {
  double goodput_qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double cpu_ms_per_req = 0;
  Percentile p99;
};

std::vector<SliceMetrics> MeasureSlices(const ServedRun& served) {
  std::vector<const Timing*> by_completion;
  for (const Timing& t : served.timings) by_completion.push_back(&t);
  std::sort(by_completion.begin(), by_completion.end(),
            [](const Timing* a, const Timing* b) {
              return a->done_ns < b->done_ns;
            });
  std::vector<SliceMetrics> out;
  size_t next = 0;
  for (const Slice& slice : served.slices) {
    std::vector<int64_t> sorted;
    for (uint64_t i = 0; i < slice.answers && next < by_completion.size();
         ++i, ++next) {
      if (by_completion[next]->correct) {
        sorted.push_back(by_completion[next]->rtt_ns);
      }
    }
    std::sort(sorted.begin(), sorted.end());
    SliceMetrics m;
    const double answers = static_cast<double>(sorted.size());
    m.goodput_qps = Div(answers, (slice.end_ns - slice.start_ns) / 1e9);
    m.p50_ms = sorted.empty() ? 0 : NearestRank(sorted, 0.5) / 1e6;
    m.p99 = TailPercentile(sorted);
    m.p99_ms = m.p99.value / 1e6;
    m.cpu_ms_per_req = Div(slice.server_cpu_s * 1e3, answers);
    out.push_back(m);
  }
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int RunMain(const Args& args) {
  const char* name = WorkloadName(args.workload);
  const std::string exe = ExePath();
  Corpus corpus = BuildCorpus(nullptr, nullptr);
  const text::Lexicon lexicon = text::Lexicon::BuiltIn();
  const Trace trace = MakeTrace(corpus, lexicon, args.workload, args.seed);

  core::XRefineOptions reference_options = ServingEngineOptions();
  reference_options.result_cache.enabled = false;
  const core::XRefine reference(corpus.index.get(), &lexicon,
                                reference_options);
  const std::string probe_answer =
      ReferenceAnswer(reference, std::string(kSetupProbe));
  std::vector<std::string> pool_answers;
  if (IsHot(args.workload)) {
    pool_answers =
        ComputeReferences(reference, trace.queries, trace.queries.size());
  }

  const std::string prefix = args.run_dir + "/" + name + "-" +
                             std::to_string(::getpid());
  ServedOptions options;
  options.workload = args.workload;
  options.seconds = args.seconds;
  if (args.trace) options.setups = 1;
  options.exe = exe;
  const TempFile served_store{prefix + ".xrdb"};
  const TempFile replay_store{prefix + "-replay.xrdb"};
  if (IsStoreBacked(args.workload)) options.store_path = served_store.path;
  ServedRun served = RunServed(options, trace, probe_answer, pool_answers);
  std::vector<std::string>& problems = served.problems;
  if (served.timings.empty()) {
    // Nothing was measured: the serving process failed to start or to
    // answer its set-up or warm-up correctly.
    problems.push_back("no timed request was sent");
    for (const std::string& p : problems) {
      std::fprintf(stderr, "%s: %s\n", name, p.c_str());
    }
    return 1;
  }

  // Cold answers are checked now, against references computed outside the
  // timed window; zipf_hot's were checked inline against its pool.
  std::vector<std::string> references;
  if (!IsHot(args.workload)) {
    references = ComputeReferences(reference, trace.queries,
                                   served.answer_bytes.size());
    for (size_t i = 0; i < references.size(); ++i) {
      Timing& timing = served.timings[i];
      if (timing.correct && served.answer_bytes[i] != references[i]) {
        timing.correct = false;
        ++served.mismatched;
      }
    }
  }
  uint64_t correct_answers = 0;
  for (const Timing& t : served.timings) correct_answers += t.correct ? 1 : 0;
  const uint64_t failed = served.attempted - correct_answers;
  if (failed != 0) {
    std::printf("failed ops: %llu (transport %llu, wrong answer %llu, "
                "refused or unanswered %llu)\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(served.transport_errors),
                static_cast<unsigned long long>(served.mismatched),
                static_cast<unsigned long long>(
                    failed - served.transport_errors - served.mismatched));
  }

  uint64_t digest = kFnvOffset;
  const std::vector<std::string>& digested =
      IsHot(args.workload) ? pool_answers : references;
  const size_t digest_count = std::min(digested.size(), kDigestAnswers);
  for (size_t i = 0; i < digest_count; ++i) {
    digest = Fnv1a(digest, digested[i]);
  }

  // Counter self-checks: the run did what its workload claims.
  auto delta = [&](const char* metric) {
    return Delta(served.stats_before, served.stats_after, metric);
  };
  const uint64_t refused =
      delta("server.shed") + delta("server.rejected") + delta("server.degraded");
  if (refused != 0) {
    problems.push_back(std::to_string(refused) + " requests refused");
  }
  if (IsHot(args.workload)) {
    if (delta("server.inline_hits") != delta("server.requests")) {
      problems.push_back("a timed request missed the inline cache path");
    }
    if (delta("query.count") != 0 || delta("cache.misses") != 0) {
      problems.push_back("the engine ran inside the timed window");
    }
  } else if (delta("cache.hits") != 0) {
    problems.push_back("a cold request hit the result cache");
  }
  if (IsStoreBacked(args.workload) &&
      (delta("pager.page_reads") == 0 || delta("index.cache_misses") == 0)) {
    problems.push_back("the store path served without page reads or misses");
  }

  const std::vector<SliceMetrics> slices = MeasureSlices(served);
  size_t min_beyond = SIZE_MAX;
  for (const SliceMetrics& slice : slices) {
    min_beyond = std::min(min_beyond, slice.p99.beyond);
    if (slice.p99.q != 0.99) {
      problems.push_back("a slice has too few answers for a p99");
      break;
    }
  }
  auto median_of = [&](double SliceMetrics::*field) {
    std::vector<double> values;
    for (const SliceMetrics& slice : slices) values.push_back(slice.*field);
    return Median(values);
  };

  std::printf("workload %s, seed %llu: %llu requests in %.3f s (%s)\n", name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(served.attempted),
              served.window_s,
              IsHot(args.workload)
                  ? "closed loop, 1 connection pipelined to depth 8"
                  : "closed loop, 2 connections, 1 request outstanding each");
  std::printf("generator and serving process on CPUs:");
  for (int cpu : served.cpus) std::printf(" %d", cpu);
  std::printf("%s\n", served.cpus.empty() ? " any (not pinned)" : "");
  std::printf("%zu slices of at least %zu answers, p99 with at least %zu "
              "beyond; per-slice min / quartiles / max:\n",
              slices.size(), slices.front().p99.count, min_beyond);
  for (const auto& [label, field] :
       {std::pair{"goodput_qps", &SliceMetrics::goodput_qps},
        std::pair{"p50_ms", &SliceMetrics::p50_ms},
        std::pair{"p99_ms", &SliceMetrics::p99_ms},
        std::pair{"cpu_ms_per_req", &SliceMetrics::cpu_ms_per_req}}) {
    std::vector<double> v;
    for (const SliceMetrics& slice : slices) v.push_back(slice.*field);
    std::sort(v.begin(), v.end());
    std::printf("  %-15s %.6g / %.6g %.6g %.6g / %.6g\n", label, v.front(),
                v[v.size() / 4], v[v.size() / 2], v[3 * v.size() / 4],
                v.back());
  }
  std::printf("set-ups (s):");
  for (double s : served.setup_s) std::printf(" %.4f", s);
  std::printf("\nanswers digest: %016llx over the first %zu answers\n",
              static_cast<unsigned long long>(digest), digest_count);
  std::printf("diagnostics: host.steal_pct=%.3f gen.cpu_pct=%.1f\n",
              served.steal_pct, Div(100.0 * served.gen_cpu_s, served.window_s));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(served.setup_s), "s"},
        {"goodput_qps", median_of(&SliceMetrics::goodput_qps), "1/s"},
        {"p50_ms", median_of(&SliceMetrics::p50_ms), "ms"},
        {"p99_ms", median_of(&SliceMetrics::p99_ms), "ms"},
        {"cpu_ms_per_req", median_of(&SliceMetrics::cpu_ms_per_req), "ms"},
        {"rss_mb", served.rss_mib, "MB"},
    };
  } else {
    // The replay: the same requests in-process, from fresh sources, once
    // without and once with spans.
    std::string replay_store_path;
    if (IsStoreBacked(args.workload)) {
      replay_store_path = replay_store.path;
      if (!WriteStore(*corpus.index, replay_store_path).ok()) {
        std::fprintf(stderr, "%s: cannot write the replay store\n", name);
        return 1;
      }
    }
    const size_t requests = std::min(
        served.timings.size(),
        IsHot(args.workload) ? kReplayHotRequests : kReplayColdRequests);
    std::vector<size_t> positions;
    for (size_t i = 0; i < requests; ++i) {
      positions.push_back(i * served.timings.size() / requests);
    }
    // Fresh sources, so each pass's caches start empty as the serving
    // process's did. The passes alternate request by request, each taking
    // the lead in turn, so both see the same host and neither gains from
    // the other's warm caches on average.
    std::unique_ptr<ReplaySource> sources[2] = {
        OpenReplaySource(replay_store_path),
        OpenReplaySource(replay_store_path)};
    if (sources[0] == nullptr || sources[1] == nullptr) {
      std::fprintf(stderr, "%s: cannot open the replay source\n", name);
      return 1;
    }
    ReplayPass plain(sources[0]->get(), &lexicon, &trace, args.workload,
                     false);
    ReplayPass traced(sources[1]->get(), &lexicon, &trace, args.workload,
                      true);
    for (size_t i = 0; i < requests; ++i) {
      ReplayPass& first = i % 2 == 0 ? plain : traced;
      ReplayPass& second = i % 2 == 0 ? traced : plain;
      first.Run(positions[i]);
      second.Run(positions[i]);
    }
    for (const ReplayPass* pass : {&plain, &traced}) {
      for (size_t i = 0; i < requests; ++i) {
        const size_t p = positions[i];
        const std::string& expected =
            IsHot(args.workload) ? pool_answers[trace.PoolIndex(p)]
                                 : references[p];
        if (pass->answers()[i] != expected) {
          problems.push_back("a replayed answer differs from its reference");
          break;
        }
      }
    }
    metrics = LayerMetrics(served, positions, plain, traced);
    const SelfTimes self = traced.Self();
    std::printf("replayed %zu requests; span self time per request (us):",
                requests);
    for (size_t s = 0; s < static_cast<size_t>(SpanName::kCount); ++s) {
      std::printf(" %s=%.2f", SpanNameString(static_cast<SpanName>(s)),
                  Div(self.ns[s] / 1e3, static_cast<double>(requests)));
    }
    std::printf("\n");
  }

  for (const std::string& p : problems) {
    std::printf("self-check failed: %s\n", p.c_str());
  }
  PrintResult(problems.empty() && failed == 0, served.attempted, failed,
              metrics);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload cold_mem|zipf_hot|store_cold"
               " --seed N --seconds S --trace 0|1 [--run-dir DIR]\n"
               "       perfbench serve [--store FILE]\n");
  return 2;
}

}  // namespace
}  // namespace xrefine::perfbench

int main(int argc, char** argv) {
  using namespace xrefine::perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 0) return Usage();
  if (command == "serve") return ServeMain(flags["store"]);
  if (command != "run") return Usage();
  Args args;
  if (!ParseWorkload(flags["workload"], &args.workload)) return Usage();
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = std::atof(flags["seconds"].c_str());
  args.trace = flags["trace"] == "1";
  if (flags.count("run-dir") != 0) args.run_dir = flags["run-dir"];
  if (args.seconds <= 0) return Usage();
  return RunMain(args);
}
