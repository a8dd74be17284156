// The benchmark's own tests:
//   perfbench_selftest [DIR]
// checks that traces are a pure function of the seed, that the percentile
// helper only reports tails it has the samples for, that span self times
// add up, that the load thread's answer check agrees with canonical bytes,
// and that tracing a source changes no answer. Exits non-zero if
// any check fails.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/xrefine.h"
#include "perfbench/bench_env.h"
#include "perfbench/stats.h"
#include "perfbench/tracing.h"

namespace xrefine::perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                              \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

bool SameTrace(const Trace& a, const Trace& b) {
  return a.warmup == b.warmup && a.queries == b.queries && a.order == b.order;
}

void TestTraceIsAFunctionOfTheSeed(const Corpus& corpus,
                                   const text::Lexicon& lexicon) {
  for (Workload w : {Workload::kColdMem, Workload::kZipfHot}) {
    Trace a = MakeTrace(corpus, lexicon, w, 7);
    Trace b = MakeTrace(corpus, lexicon, w, 7);
    Trace c = MakeTrace(corpus, lexicon, w, 8);
    EXPECT(SameTrace(a, b));
    EXPECT(!SameTrace(a, c));
    EXPECT(a.queries.size() ==
           (IsHot(w) ? kHotPoolSize : kColdTraceLength));
    EXPECT(IsHot(w) == !a.order.empty());
  }
  // store_cold replays cold_mem's trace.
  EXPECT(SameTrace(MakeTrace(corpus, lexicon, Workload::kColdMem, 3),
                   MakeTrace(corpus, lexicon, Workload::kStoreCold, 3)));
}

std::vector<int64_t> OneTo(int64_t n) {
  std::vector<int64_t> v;
  for (int64_t i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestTailPercentile() {
  Percentile p = TailPercentile(OneTo(1000));
  EXPECT(p.q == 0.99 && p.value == 990 && p.beyond == 10 && p.count == 1000);
  // 999 samples leave only 9 above the 99th percentile: report the 95th.
  p = TailPercentile(OneTo(999));
  EXPECT(p.q == 0.95 && p.value == 950 && p.beyond == 49 && p.count == 999);
  p = TailPercentile(OneTo(100000));
  EXPECT(p.q == 0.99 && p.value == 99000 && p.beyond == 1000);
  p = TailPercentile(OneTo(20));
  EXPECT(p.q == 0.5 && p.value == 10 && p.beyond == 10);
  p = TailPercentile(OneTo(19));
  EXPECT(p.q == 0 && p.count == 19);
  EXPECT(NearestRank(OneTo(10), 0.5) == 5);
}

void TestSelfTimes() {
  // request 0: a [0, 100) holding b [10, 40) and c [50, 60); d [100, 120).
  std::vector<Span> spans = {
      {0, 1, 0, SpanName::kCacheCompute, 0, 100},
      {0, 2, 1, SpanName::kPrepare, 10, 40},
      {0, 3, 1, SpanName::kRunPrepared, 50, 60},
      {0, 4, 0, SpanName::kEncode, 100, 120},
  };
  SelfTimes self = ComputeSelfTimes(spans);
  EXPECT(self.of(SpanName::kCacheCompute) == 60);
  EXPECT(self.of(SpanName::kPrepare) == 30);
  EXPECT(self.of(SpanName::kRunPrepared) == 10);
  EXPECT(self.Total() == 120);

  Tracer tracer(true);
  {
    Tracer::Scope outer(&tracer, SpanName::kRunPrepared);
    tracer.AddChild(outer.id(), SpanName::kScan, 0);
    Tracer::Scope inner(&tracer, SpanName::kRank);
  }
  Tracer::Scope after(&tracer, SpanName::kEncode);
  EXPECT(tracer.spans().size() == 4);
  EXPECT(tracer.spans()[1].parent == 1 && tracer.spans()[2].parent == 1);
  EXPECT(tracer.spans()[3].parent == 0);
}

// The load thread's field-by-field check agrees with canonical bytes, which
// leave out the stage timings and nothing else.
void TestSameAnswerMatchesCanonicalBytes(const Corpus& corpus,
                                         const text::Lexicon& lexicon) {
  Trace trace = MakeTrace(corpus, lexicon, Workload::kZipfHot, 5);
  core::XRefineOptions options = ServingEngineOptions();
  options.result_cache.enabled = false;
  core::XRefine engine(corpus.index.get(), &lexicon, options);
  std::vector<server::RefineResponse> answers;
  for (size_t i = 0; i < 20; ++i) {
    const std::string bytes = ReferenceAnswer(engine, trace.queries[i]);
    auto decoded = DecodeCanonical(bytes);
    EXPECT(decoded.ok());
    if (!decoded.ok()) return;
    EXPECT(CanonicalBytes(decoded.value()) == bytes);
    answers.push_back(std::move(decoded).value());
  }
  for (const server::RefineResponse& a : answers) {
    for (const server::RefineResponse& b : answers) {
      EXPECT(SameAnswer(a, b) == (CanonicalBytes(a) == CanonicalBytes(b)));
    }
    server::RefineResponse changed = a;
    changed.scan_us += 5;
    EXPECT(SameAnswer(changed, a));
    changed.needs_refinement = !changed.needs_refinement;
    EXPECT(!SameAnswer(changed, a));
    if (!a.refined.empty()) {
      changed = a;
      changed.refined.back().score =
          std::nextafter(changed.refined.back().score, 1e300);
      EXPECT(!SameAnswer(changed, a));
    }
  }
}

// Tracing must be invisible to answers, over both kinds of source, and
// the store-backed source must answer exactly like the in-memory one (the
// benchmark checks store_cold against in-memory references).
void TestTracingSourceKeepsAnswers(const Corpus& corpus,
                                   const text::Lexicon& lexicon,
                                   const std::string& dir) {
  Trace trace = MakeTrace(corpus, lexicon, Workload::kColdMem, 11);
  const std::string path = dir + "/perfbench_selftest_" +
                           std::to_string(::getpid()) + ".xrdb";
  EXPECT(WriteStore(*corpus.index, path).ok());
  auto store = OpenStoreSource(path);
  EXPECT(store.ok());
  if (!store.ok()) return;

  core::XRefineOptions engine_options = ServingEngineOptions();
  engine_options.result_cache.enabled = false;
  Tracer tracer(true);
  const index::IndexSource* plain_sources[] = {corpus.index.get(),
                                               store.value().source.get()};
  core::XRefine reference(corpus.index.get(), &lexicon, engine_options);
  for (const index::IndexSource* plain : plain_sources) {
    TracingIndexSource traced(plain, &tracer);
    core::XRefine plain_engine(plain, &lexicon, engine_options);
    core::XRefine traced_engine(&traced, &lexicon, engine_options);
    for (size_t i = 0; i < 40; ++i) {
      const std::string& q = trace.queries[i];
      std::string expected = ReferenceAnswer(reference, q);
      EXPECT(expected.rfind("error", 0) != 0);
      EXPECT(ReferenceAnswer(plain_engine, q) == expected);
      EXPECT(ReferenceAnswer(traced_engine, q) == expected);
    }
    EXPECT(traced.fetches() > 0);
  }
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace xrefine::perfbench

int main(int argc, char** argv) {
  using namespace xrefine::perfbench;
  const std::string dir = argc > 1 ? argv[1] : ".";
  Corpus corpus = BuildCorpus(nullptr, nullptr);
  const xrefine::text::Lexicon lexicon = xrefine::text::Lexicon::BuiltIn();
  TestTailPercentile();
  TestSelfTimes();
  TestTraceIsAFunctionOfTheSeed(corpus, lexicon);
  TestSameAnswerMatchesCanonicalBytes(corpus, lexicon);
  TestTracingSourceKeepsAnswers(corpus, lexicon, dir);
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failures\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
