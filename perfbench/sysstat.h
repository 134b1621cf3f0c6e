// Process and host statistics the benchmark reads from /proc and getrusage:
// per-thread CPU time (to charge CPU to the serving stack's own threads),
// host CPU steal, and peak resident set.
#ifndef PERFBENCH_SYSSTAT_H_
#define PERFBENCH_SYSSTAT_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Thread ids of this process, ascending.
std::vector<int> ListThreads();

/// Thread ids present now that were absent from `before`.
std::vector<int> ThreadsSince(const std::vector<int>& before);

/// Summed on-CPU time of `tids` in seconds, from
/// /proc/self/task/<tid>/schedstat (ns resolution; time the hypervisor
/// steals from the vCPU is not charged to the thread). Threads that have
/// exited contribute 0.
double ThreadsCpuSeconds(const std::vector<int>& tids);

/// Host-wide CPU counters from the first line of /proc/stat, in clock ticks.
struct HostCpu {
  std::uint64_t busy = 0;   // user + nice + system + irq + softirq + steal
  std::uint64_t steal = 0;
};
HostCpu ReadHostCpu();

/// Steal over busy time between two readings (0 when nothing was busy).
double StealShare(const HostCpu& before, const HostCpu& after);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_SYSSTAT_H_
