#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace rb {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double Spans::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

Spans::Id Spans::open(std::string name, Id parent) {
  spans_.push_back({std::move(name), parent, now(), -1.0});
  return spans_.size() - 1;
}

void Spans::close(Id id) { spans_.at(id).end = now(); }

Spans::Id Spans::add(std::string name, Id parent, double start, double end) {
  spans_.push_back({std::move(name), parent, start, end});
  return spans_.size() - 1;
}

bool Spans::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [";
  char buffer[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": " << json_string(span.name)
        << ", \"parent\": "
        << (span.parent == kRoot ? std::string("-1")
                                 : std::to_string(span.parent));
    std::snprintf(buffer, sizeof buffer, ", \"start_s\": %.6f, \"end_s\": %.6f}",
                  span.start, span.end);
    out << buffer;
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace rb
