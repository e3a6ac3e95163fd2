// The benchmark's own spans, recorded around calls into the library's
// public functions (no span lives inside the program). Spans stay in
// memory and are written out once, when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one request share this id
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double DurationUs() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span on the calling thread; its parent is the innermost span
  /// the thread has open.
  uint64_t Begin(const char* name, uint64_t request);
  /// Closes the span; a non-null `name` replaces the one it opened with
  /// (for calls whose outcome, such as a cache hit or miss, names them).
  void End(uint64_t id, const char* name = nullptr);

  /// Self time (duration minus the time covered by child spans) of every
  /// span with this name, in microseconds.
  Samples SelfUs(const std::string& name) const;
  /// Self time of the named children of each root span with `root_name`,
  /// summed per root (the replayed layer sum of one request).
  Samples ChildSumUs(const std::string& root_name,
                     const std::vector<std::string>& children) const;

  /// One JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  std::map<uint64_t, double> ChildTimeUs() const;  // parent -> covered us

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;           // guarded by mu_
};

/// RAII span; a null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_, rename_);
  }
  void Rename(const char* name) { rename_ = name; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint64_t id_;
  const char* rename_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
