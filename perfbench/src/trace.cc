#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

int64_t Tracer::Add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int64_t parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, Ns(start), Ns(end), parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(const std::string& name, Clock::time_point start,
                     int64_t parent, uint64_t request) {
  return Add(name, start, start, parent, request);
}

void Tracer::Close(int64_t id, Clock::time_point end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = Ns(end);
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans_[static_cast<size_t>(s.parent)];
    int64_t a = std::max(s.start_ns, p.start_ns);
    int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[static_cast<size_t>(s.parent)].push_back({a, b});
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {  // union of the children's intervals
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const SpanRecord& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

}  // namespace perfbench
