// In-memory span recorder for the traced run. A span is (name, start, end,
// parent, request id); spans and named counters stay in memory and are
// written out once, when the run ends (perfbench/spans.py reads the file).
#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/support.h"
#include "src/support/status.h"

namespace perfbench {

class Tracer {
 public:
  // Span ids are 1-based; 0 means "no parent".
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request) {
    spans_.push_back(Span{name, parent, request, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

  void Add(const std::string& counter, double value) { counters_[counter] += value; }
  void Set(const std::string& counter, double value) { counters_[counter] = value; }

  bunshin::Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;  // static strings only
    uint32_t parent;
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

// Times one call; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint32_t parent, uint64_t request)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, parent, request) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_
