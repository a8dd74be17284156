// Summary statistics and process/host counters for the serving benchmark.
#ifndef XREFINE_PERFBENCH_STATS_H_
#define XREFINE_PERFBENCH_STATS_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xrefine::perfbench {

/// A nearest-rank percentile of a sample, with the support behind it.
struct Percentile {
  double q = 0;        // the percentile actually reported, in (0, 1)
  int64_t value = 0;   // the sample at that rank
  size_t count = 0;    // samples in the whole set
  size_t beyond = 0;   // samples ranked above `value`
};

/// Samples a reported tail must have above it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// The highest of the percentiles {99, 95, 90, 50} that has at least
/// kMinSamplesBeyond samples ranked above it. `sorted` must be ascending.
/// q = 0 when even the median lacks that support.
Percentile TailPercentile(const std::vector<int64_t>& sorted);

/// Nearest-rank value at `q` of an ascending, non-empty sample.
int64_t NearestRank(const std::vector<int64_t>& sorted, double q);

double Median(std::vector<double> values);

/// CPU seconds (user + system, all threads) used so far by the live
/// process `pid`, at nanosecond resolution; 0 when unreadable.
double ProcessCpuSeconds(pid_t pid);
/// CPU seconds used so far by this process.
double SelfCpuSeconds();
/// Peak resident set (VmHWM) of `pid`, in MiB; 0 when unreadable.
double PeakRssMib(pid_t pid);

/// The host's aggregate CPU time from /proc/stat, in clock ticks.
struct HostCpu {
  uint64_t total = 0;  // user + nice + system + idle + iowait + irq +
                       // softirq + steal
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();
/// Share of host CPU time the hypervisor took back between two readings.
double StealPercent(const HostCpu& before, const HostCpu& after);

/// Reads one value out of the metrics registry's DumpJson text: a counter
/// (`"name": 12`) or, with `field`, a histogram member (`"count"`, `"sum"`).
/// 0 when absent.
uint64_t RegistryValue(std::string_view json, std::string_view name,
                       std::string_view field = {});

}  // namespace xrefine::perfbench

#endif  // XREFINE_PERFBENCH_STATS_H_
