#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.query = query_;
  s.start_us = NowUs();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

double Tracer::End(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_us = NowUs();
  // Spans nest strictly; closing one closes anything still open inside it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
  return s.end_us - s.start_us;
}

std::map<std::string, double> Tracer::SelfTimeUs() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += std::max(0.0, s.end_us - s.start_us - child_us[i]);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"query\": %d}%s\n",
                 i, s.name.c_str(), s.start_us, s.end_us, s.parent, s.query,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
