#include "perfbench/stats.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace xrefine::perfbench {

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// 1-based nearest rank of quantile q in a sample of n.
size_t RankOf(double q, size_t n) {
  return static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
}

}  // namespace

int64_t NearestRank(const std::vector<int64_t>& sorted, double q) {
  size_t rank = std::clamp<size_t>(RankOf(q, sorted.size()), 1, sorted.size());
  return sorted[rank - 1];
}

Percentile TailPercentile(const std::vector<int64_t>& sorted) {
  static constexpr double kCandidates[] = {0.99, 0.95, 0.90, 0.50};
  Percentile out;
  out.count = sorted.size();
  for (double q : kCandidates) {
    size_t rank = RankOf(q, sorted.size());
    if (rank == 0 || sorted.size() - rank < kMinSamplesBeyond) continue;
    out.q = q;
    out.value = sorted[rank - 1];
    out.beyond = sorted.size() - rank;
    return out;
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double ProcessCpuSeconds(pid_t pid) {
  clockid_t clock;
  timespec ts{};
  if (::clock_getcpuclockid(pid, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double SelfCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib(pid_t pid) {
  std::istringstream status(
      ReadFile("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(
                 std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0;
}

HostCpu ReadHostCpu() {
  std::istringstream stat(ReadFile("/proc/stat"));
  std::string label;
  stat >> label;
  HostCpu cpu;
  if (label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    stat >> v;
    cpu.total += v;
    if (i == 7) cpu.steal = v;
  }
  return cpu;
}

double StealPercent(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total) return 0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

uint64_t RegistryValue(std::string_view json, std::string_view name,
                       std::string_view field) {
  std::string key = "\"" + std::string(name) + "\": ";
  size_t at = json.find(key);
  if (at == std::string_view::npos) return 0;
  at += key.size();
  if (!field.empty()) {
    std::string member = "\"" + std::string(field) + "\": ";
    size_t end = json.find('}', at);
    at = json.find(member, at);
    if (at == std::string_view::npos || at > end) return 0;
    at += member.size();
  }
  return std::strtoull(std::string(json.substr(at, 24)).c_str(), nullptr, 10);
}

}  // namespace xrefine::perfbench
