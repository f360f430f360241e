#include "telemetry/telemetry.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace gm::telemetry {
namespace {

// Shortest round-trippable double rendering that is still valid JSON
// (no bare "nan"/"inf" — those become null).
std::string JsonNumber(double v) {
  if (v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308)
    return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", v);
  return buffer;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string SpanToJson(const SpanEvent& event) {
  std::ostringstream line;
  line << "{\"kind\":\"span\",\"trace\":" << event.trace
       << ",\"id\":" << event.id
       << ",\"name\":\"" << JsonEscape(event.name) << "\""
       << ",\"detail\":\"" << JsonEscape(event.detail) << "\""
       << ",\"start_us\":" << event.start
       << ",\"end_us\":" << event.end
       << ",\"status\":\"" << SpanStatusName(event.status) << "\""
       << ",\"instant\":" << (event.instant ? "true" : "false")
       << ",\"value\":" << JsonNumber(event.value) << "}";
  return line.str();
}

std::string Telemetry::ToJsonl() const {
  const MetricsSnapshot snapshot = metrics_.Snapshot();
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    out << "{\"kind\":\"counter\",\"name\":\"" << JsonEscape(name)
        << "\",\"value\":" << value << "}\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << "{\"kind\":\"gauge\",\"name\":\"" << JsonEscape(name)
        << "\",\"value\":" << JsonNumber(value) << "}\n";
  }
  for (const auto& [name, view] : snapshot.summaries) {
    out << "{\"kind\":\"summary\",\"name\":\"" << JsonEscape(name)
        << "\",\"count\":" << view.count << ",\"sum\":" << JsonNumber(view.sum)
        << ",\"min\":" << JsonNumber(view.min)
        << ",\"max\":" << JsonNumber(view.max)
        << ",\"mean\":" << JsonNumber(view.mean) << "}\n";
  }
  for (const auto& [name, view] : snapshot.histograms) {
    out << "{\"kind\":\"histogram\",\"name\":\"" << JsonEscape(name)
        << "\",\"count\":" << view.count << ",\"sum\":" << view.sum
        << ",\"min\":" << view.min << ",\"max\":" << view.max
        << ",\"p50\":" << view.p50 << ",\"p90\":" << view.p90
        << ",\"p99\":" << view.p99 << "}\n";
  }
  for (const SpanEvent& event : tracer_.AllEvents())
    out << SpanToJson(event) << "\n";
  return out.str();
}

Status Telemetry::WriteJsonl(const std::string& path) const {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open())
    return Status::Internal("telemetry: cannot open " + path);
  file << ToJsonl();
  file.flush();
  if (!file.good())
    return Status::Internal("telemetry: write failed for " + path);
  return Status::Ok();
}

}  // namespace gm::telemetry
