#include "trace.h"

#include <cstdio>

#include "wire.h"

namespace e2e {

int32_t Tracer::Begin(const char* name, int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(s);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  spans_[id].start_ns = NowNs();
  return id;
}

void Tracer::End(int32_t id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::AddAggregate(const char* name, int32_t parent,
                          int64_t duration_ns) {
  if (!enabled_ || parent < 0) return;
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = spans_[parent].request;
  s.start_ns = spans_[parent].start_ns;
  s.end_ns = s.start_ns + duration_ns;
  spans_.push_back(s);
}

std::map<std::string, Tracer::LayerTotals> Tracer::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    LayerTotals& t = out[spans_[i].name];
    ++t.count;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\trequest\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%lld\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
