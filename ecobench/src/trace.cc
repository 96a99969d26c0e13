#include "trace.h"

namespace ecobench {

int Tracer::Begin(const char* name, int64_t query) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.query = query;
  spans_.push_back(s);
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans are scoped, so the one ending is the innermost open span.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

namespace {

// Direct-children duration per span.
std::vector<int64_t> ChildNs(const std::vector<Span>& spans) {
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  return child;
}

int RootOf(const std::vector<Span>& spans, int i) {
  while (spans[static_cast<size_t>(i)].parent >= 0) {
    i = spans[static_cast<size_t>(i)].parent;
  }
  return i;
}

}  // namespace

std::map<int, std::map<std::string, int64_t>> Tracer::SelfNsByRoot() const {
  std::vector<int64_t> child = ChildNs(spans_);
  std::map<int, std::map<std::string, int64_t>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[RootOf(spans_, static_cast<int>(i))][s.name] +=
        (s.end_ns - s.start_ns) - child[i];
  }
  return out;
}

std::string Tracer::CheckNesting() const {
  if (!open_.empty()) return "span left open";
  std::vector<int64_t> last_child_end(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) return std::string("negative span ") + s.name;
    if (s.parent < 0) continue;
    size_t p = static_cast<size_t>(s.parent);
    const Span& parent = spans_[p];
    if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns) {
      return std::string("span ") + s.name + " outside its parent";
    }
    if (s.start_ns < last_child_end[p]) {
      return std::string("span ") + s.name + " overlaps a sibling";
    }
    last_child_end[p] = s.end_ns;
  }
  // Self times telescope: under each root they must add up to the root.
  std::map<int, int64_t> self_sum;
  for (const auto& [root, by_name] : SelfNsByRoot()) {
    for (const auto& entry : by_name) self_sum[root] += entry.second;
  }
  for (const auto& [root, sum] : self_sum) {
    const Span& r = spans_[static_cast<size_t>(root)];
    if (sum != r.end_ns - r.start_ns) {
      return std::string("self times under ") + r.name +
             " do not sum to its duration";
    }
  }
  return "";
}

void Tracer::AppendJson(std::FILE* out, const std::string& workload,
                        bool* first) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"workload\": \"%s\", \"id\": %zu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                 "\"query\": %lld}",
                 *first ? "" : ",", workload.c_str(), i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.query));
    *first = false;
  }
}

}  // namespace ecobench
