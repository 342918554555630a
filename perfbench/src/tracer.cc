#include "perfbench/src/tracer.h"

#include <cstdio>
#include <memory>

namespace perfbench {

bunshin::Status Tracer::Write(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) {
    return bunshin::Unavailable("cannot write " + path);
  }
  // Format v1, one record per line:
  //   S <id> <parent> <request> <name> <start_ns> <end_ns>
  //   C <name> <value>
  // Span times are relative to the first span.
  std::fprintf(file.get(), "# perfbench spans v1\n");
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file.get(), "S %zu %u %llu %s %llu %llu\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin));
  }
  for (const auto& [name, value] : counters_) {
    std::fprintf(file.get(), "C %s %.17g\n", name.c_str(), value);
  }
  if (std::fflush(file.get()) != 0) {
    return bunshin::Unavailable("cannot write " + path);
  }
  return bunshin::Status::Ok();
}

}  // namespace perfbench
