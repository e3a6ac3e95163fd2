// Shared plumbing of the end-to-end benchmark: clocks, sample sets,
// metric output, failure accounting.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <dirent.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Timed runs are cut into windows of this length (seconds). Figures are
/// read per window, and the run changes CPUs at each window boundary.
constexpr double kWindowS = 1.0;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// A set of measurements with interpolated quantiles (the same rule as
/// numpy's default and Python's statistics.quantiles "inclusive" method).
class Samples {
 public:
  void Add(double x) { v_.push_back(x); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  const std::vector<double>& values() const { return v_; }
  bool empty() const { return v_.empty(); }

  double Quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
  }
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// Metrics keyed by name, printed as the final JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Counts attempted and failed operations across threads and keeps the
/// first few failure reasons for the diagnostic output. Any wrong answer,
/// refusal, transport error or broken determinism guard is a failure.
class Outcome {
 public:
  void Attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (reasons_.size() < 8) reasons_.push_back(why);
  }
  /// A broken invariant of the run as a whole (not tied to one operation).
  void Violate(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ok_ = false;
    if (reasons_.size() < 8) reasons_.push_back(why);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return ok_ && failed_ == 0 && attempted_ > 0; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool ok_ = true;
  std::vector<std::string> reasons_;
};

/// splitmix64 finaliser: derives independent sub-seeds from (seed, salt).
inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Relative closeness for doubles computed along different evaluation
/// orders (circuit vs. direct counter).
inline bool Close(double a, double b) {
  const double scale = std::max(a < 0 ? -a : a, b < 0 ? -b : b);
  const double d = a - b;
  return (d < 0 ? -d : d) <= 1e-9 * scale + 1e-300;
}

/// Completions per second in each whole `window_s` window of a run, given
/// the completion times (seconds since the run started).
inline Samples WindowRates(const std::vector<double>& done_s, double window_s) {
  double end = 0.0;
  for (double t : done_s) end = std::max(end, t);
  const size_t windows = static_cast<size_t>(end / window_s);
  std::vector<double> counts(windows, 0.0);
  for (double t : done_s) {
    const size_t w = static_cast<size_t>(t / window_s);
    if (w < windows) counts[w] += 1.0;
  }
  Samples rates;
  for (double c : counts) rates.Add(c / window_s);
  return rates;
}

/// Moves a timed run to other CPUs every window. The shared host slows each
/// vCPU on its own, between two speeds about 1.6x apart, and a vCPU keeps
/// its speed for seconds to minutes. A run held on fixed CPUs reads
/// whatever those few happened to do; moving it every window makes each
/// run sample every CPU the process may use.
class CpuRotation {
 public:
  /// Each window's set holds `width` CPUs. Window w takes the w-th of all
  /// `width`-subsets of the allowed CPUs, in turn.
  explicit CpuRotation(size_t width) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
      }
    }
    width = std::min(width, cpus_.size());
    std::vector<size_t> pick(width);
    for (size_t i = 0; i < width; ++i) pick[i] = i;
    while (width > 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (size_t i : pick) CPU_SET(cpus_[i], &set);
      sets_.push_back(set);
      // Next subset in lexicographic order.
      size_t i = width;
      while (i > 0 && pick[i - 1] == cpus_.size() - width + i - 1) --i;
      if (i == 0) break;
      ++pick[i - 1];
      for (size_t j = i; j < width; ++j) pick[j] = pick[j - 1] + 1;
    }
  }

  /// Pins every thread of the process to the CPUs of window `w`.
  void Enter(size_t w) const {
    if (!sets_.empty()) PinAll(sets_[w % sets_.size()]);
  }

  /// Gives every thread all the allowed CPUs again.
  void Release() const {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus_) CPU_SET(c, &set);
    if (!cpus_.empty()) PinAll(set);
  }

 private:
  static void PinAll(const cpu_set_t& set) {
    DIR* d = ::opendir("/proc/self/task");
    if (d == nullptr) return;
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      // A thread that has just exited makes this fail; nothing to pin then.
      ::sched_setaffinity(static_cast<pid_t>(std::atoi(e->d_name)), sizeof(set), &set);
    }
    ::closedir(d);
  }

  std::vector<int> cpus_;
  std::vector<cpu_set_t> sets_;
};

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
