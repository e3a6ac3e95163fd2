#include "spans.h"

#include <fstream>

namespace perfbench {

namespace {
thread_local std::vector<uint64_t> open_spans;
}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

uint64_t SpanRecorder::Begin(const char* name, uint64_t request) {
  SpanRecord s;
  s.name = name;
  s.request = request;
  s.parent = open_spans.empty() ? 0 : open_spans.back();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.id = next_id_++;
  }
  open_spans.push_back(s.id);
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::End(uint64_t id, const char* name) {
  const int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  // Spans close in LIFO order per thread, so the open one is near the end.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = now;
      if (name != nullptr) it->name = name;
      return;
    }
  }
}

std::map<uint64_t, double> SpanRecorder::ChildTimeUs() const {
  std::map<uint64_t, double> covered;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) covered[s.parent] += s.DurationUs();
  }
  return covered;
}

Samples SpanRecorder::SelfUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::map<uint64_t, double> covered = ChildTimeUs();
  Samples out;
  for (const SpanRecord& s : spans_) {
    if (name != s.name) continue;
    auto it = covered.find(s.id);
    out.Add(s.DurationUs() - (it == covered.end() ? 0.0 : it->second));
  }
  return out;
}

Samples SpanRecorder::ChildSumUs(const std::string& root_name,
                                 const std::vector<std::string>& children) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> sums;
  for (const SpanRecord& s : spans_) {
    if (s.parent == 0 && root_name == s.name) sums[s.id] = 0.0;
  }
  for (const SpanRecord& s : spans_) {
    auto it = sums.find(s.parent);
    if (it == sums.end()) continue;
    for (const std::string& c : children) {
      if (c == s.name) it->second += s.DurationUs();
    }
  }
  Samples out;
  for (const auto& [id, sum] : sums) out.Add(sum);
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const SpanRecord& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\""
        << JsonEscape(s.name) << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
