#include "probe.hpp"

namespace perfbench {

std::string Tracer::to_json() const {
  std::string s = "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    s += "{\"name\": \"";
    s += span_name(sp.kind);
    s += "\", \"start_ns\": " + std::to_string(sp.start) +
         ", \"end_ns\": " + std::to_string(sp.end) +
         ", \"parent\": " + std::to_string(sp.parent) +
         ", \"op\": " + std::to_string(sp.op) + "}";
    s += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  return s + "]\n";
}

}  // namespace perfbench
