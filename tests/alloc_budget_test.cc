// Heap budget of the cold scan. This binary replaces the global operator
// new with a counting one and runs the daemon's default engine (Partition
// over Indexed Lookup Eager) through XRefine::RunPrepared on the pinned
// refinement workload of refine_test (four DBLP seeds, 50 corrupted queries
// each). Prepare runs outside the count, so the figure is the scan and rank
// stages alone: the DP, the SLCA kernels, the candidate list and the
// outcome. The scan path once made 1,155 allocations per query here;
// back-pointer DP states and caller-owned SLCA scratch cut that by more
// than half, and the budget keeps the cut from eroding one vector at a
// time.
//
// The replacement forwards to malloc and free, so under AddressSanitizer and
// ThreadSanitizer the heap is still checked (the sanitizers intercept
// malloc); only their new/delete mismatch reports are lost in this binary.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/xrefine.h"
#include "text/lexicon.h"
#include "workload/corruption.h"
#include "workload/dblp_generator.h"
#include "workload/query_generator.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Once inlined into a caller that used new, GCC takes the free below for a
// mismatched deallocation; it is this replacement's own pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace xrefine::core {
namespace {

// Allocations per query RunPrepared made on this workload with the string
// DP and per-call kernel buffers (1154.9, 73.6 KB).
constexpr double kAllocationsPerQueryBefore = 1155;

TEST(AllocBudgetTest, ColdScanAllocatesLessThanHalfOfItsFormerCount) {
  auto lexicon = text::Lexicon::BuiltIn();
  uint64_t allocations = 0;
  uint64_t bytes = 0;
  size_t queries = 0;
  for (uint64_t seed : {3, 13, 23, 33}) {
    workload::DblpOptions gen;
    gen.num_authors = 40;
    gen.seed = seed;
    auto doc = workload::GenerateDblp(gen);
    auto corpus = index::BuildIndex(doc);
    workload::Corruptor corruptor(&corpus->index(), &lexicon);
    workload::QueryGeneratorOptions qg;
    qg.seed = seed * 31 + 1;
    workload::QueryGenerator qgen(&doc, corpus.get(), &corruptor, qg);
    const XRefine engine(corpus.get(), &lexicon, XRefineOptions{});
    ASSERT_EQ(engine.options().algorithm, RefineAlgorithm::kPartition);
    ASSERT_EQ(engine.options().slca_algorithm,
              slca::SlcaAlgorithm::kIndexedLookup);
    for (const auto& cq : qgen.GeneratePool(50)) {
      const RefineInput input = engine.Prepare(cq.corrupted);
      ASSERT_TRUE(input.status.ok());
      g_allocations = 0;
      g_bytes = 0;
      g_counting = true;
      const RefineOutcome outcome = engine.RunPrepared(input);
      g_counting = false;
      allocations += g_allocations;
      bytes += g_bytes;
      ++queries;
      ASSERT_TRUE(outcome.status.ok());
    }
  }
  ASSERT_EQ(queries, 200u);
  const double per_query = static_cast<double>(allocations) / queries;
  std::printf("RunPrepared: %.1f allocations (%.1f KB) per query\n", per_query,
              static_cast<double>(bytes) / queries / 1024.0);
  EXPECT_LT(per_query, kAllocationsPerQueryBefore / 2);
}

}  // namespace
}  // namespace xrefine::core
