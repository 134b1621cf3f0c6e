#include "sysstat.h"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace perfbench {

std::vector<int> ListThreads() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    tids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<int> ThreadsSince(const std::vector<int>& before) {
  std::vector<int> now = ListThreads();
  std::vector<int> added;
  std::set_difference(now.begin(), now.end(), before.begin(), before.end(),
                      std::back_inserter(added));
  return added;
}

double ThreadsCpuSeconds(const std::vector<int>& tids) {
  double total_ns = 0.0;
  for (int tid : tids) {
    const std::string path =
        "/proc/self/task/" + std::to_string(tid) + "/schedstat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    unsigned long long run_ns = 0;
    if (std::fscanf(f, "%llu", &run_ns) == 1) {
      total_ns += static_cast<double>(run_ns);
    }
    std::fclose(f);
  }
  return total_ns * 1e-9;
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return cpu;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user,
                  &nice, &system, &idle, &iowait, &irq, &softirq,
                  &steal) == 8) {
    cpu.busy = user + nice + system + irq + softirq + steal;
    cpu.steal = steal;
  }
  std::fclose(f);
  return cpu;
}

double StealShare(const HostCpu& before, const HostCpu& after) {
  const std::uint64_t busy = after.busy - before.busy;
  if (busy == 0) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(busy);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
