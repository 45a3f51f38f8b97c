// Run environment: machine facts recorded with every result, peak memory,
// and the per-run scratch directory.
#pragma once

#include <string>

namespace perfbench {

/// Processors available to this process (sched_getaffinity).
int nproc();

/// The "model name" line of /proc/cpuinfo, or "unknown".
std::string cpu_model();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// A fresh directory under `parent` (created if missing), removed with all
/// its contents when the object is destroyed.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
