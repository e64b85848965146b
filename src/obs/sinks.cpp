#include "obs/sinks.hpp"

#include <cstdio>
#include <ostream>
#include <set>

namespace spider::obs {
namespace {

// Fixed formatting recipes: the sinks promise byte-identical output for
// identical histories, so every number goes through one snprintf spec.
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string fmt_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string track_name(std::uint32_t track) {
  const std::uint32_t family = track >> 24;
  const std::uint32_t inst = track & 0xFF'FFFFu;
  char buf[32];
  switch (family) {
    case 0x01:
      std::snprintf(buf, sizeof buf, "vap %u", inst);
      return buf;
    case 0x02:
      std::snprintf(buf, sizeof buf, "ap 0x%06x", inst);
      return buf;
    case 0x03:
      std::snprintf(buf, sizeof buf, "channel %u", inst);
      return buf;
    case 0x04:
      if (inst == 0) return "scheduler";
      if (inst == 1) return "scanner";
      if (inst == 2) return "backhaul";
      break;
    case 0x05:
      return "faults";
    default:
      break;
  }
  std::snprintf(buf, sizeof buf, "track 0x%08x", track);
  return buf;
}

void write_jsonl(std::ostream& os, const Tracer& tracer, std::size_t run) {
  for (const TraceEvent& e : tracer.events()) {
    os << "{\"t_us\":" << e.t_us                      //
       << ",\"run\":" << run                          //
       << ",\"seed\":" << tracer.seed()               //
       << ",\"layer\":\"" << layer_of(e.kind)         //
       << "\",\"kind\":\"" << to_string(e.kind)       //
       << "\",\"track\":\"" << track_name(e.track)    //
       << "\",\"channel\":" << e.channel              //
       << ",\"aux\":" << static_cast<unsigned>(e.aux) //
       << ",\"id\":\"" << fmt_hex(e.id)               //
       << "\",\"value\":" << fmt_double(e.value)      //
       << "}\n";
  }
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

ChromeTraceWriter::~ChromeTraceWriter() { finish(); }

void ChromeTraceWriter::begin_event() {
  if (!first_) os_ << ",";
  first_ = false;
  os_ << "\n";
}

void ChromeTraceWriter::add_run(const Tracer& tracer, std::size_t run) {
  begin_event();
  os_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << run
      << ",\"args\":{\"name\":\"run " << run << " (seed " << tracer.seed()
      << ")\"}}";

  const std::vector<TraceEvent> events = tracer.events();

  // One named thread per lane; thread_sort_index keeps lanes grouped by
  // family (clients, APs, channels, infra, faults) instead of by name.
  std::set<std::uint32_t> tracks;
  for (const TraceEvent& e : events) tracks.insert(e.track);
  for (std::uint32_t t : tracks) {
    begin_event();
    os_ << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << run
        << ",\"tid\":" << t << ",\"args\":{\"name\":\"" << track_name(t)
        << "\"}}";
    begin_event();
    os_ << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":" << run
        << ",\"tid\":" << t << ",\"args\":{\"sort_index\":" << t << "}}";
  }

  for (const TraceEvent& e : events) {
    begin_event();
    switch (e.kind) {
      case TraceKind::kChannelSwitchStart:
        os_ << "{\"name\":\"channel-switch\",\"cat\":\"phy\",\"ph\":\"B\""
            << ",\"ts\":" << e.t_us << ",\"pid\":" << run
            << ",\"tid\":" << e.track << ",\"args\":{\"channel\":" << e.channel
            << "}}";
        break;
      case TraceKind::kChannelSwitchEnd:
        os_ << "{\"name\":\"channel-switch\",\"cat\":\"phy\",\"ph\":\"E\""
            << ",\"ts\":" << e.t_us << ",\"pid\":" << run
            << ",\"tid\":" << e.track << "}";
        break;
      case TraceKind::kFaultBegin:
      case TraceKind::kFaultEnd:
        // Async span keyed on (kind, target) so overlapping faults on the
        // shared lane pair up correctly.
        os_ << "{\"name\":\"fault\",\"cat\":\"fault\",\"ph\":\""
            << (e.kind == TraceKind::kFaultBegin ? 'b' : 'e')
            << "\",\"id\":\"" << static_cast<unsigned>(e.aux) << ":"
            << fmt_hex(e.id) << "\",\"ts\":" << e.t_us << ",\"pid\":" << run
            << ",\"tid\":" << e.track
            << ",\"args\":{\"fault_kind\":" << static_cast<unsigned>(e.aux)
            << ",\"target\":\"" << fmt_hex(e.id) << "\"}}";
        break;
      default:
        os_ << "{\"name\":\"" << to_string(e.kind) << "\",\"cat\":\""
            << layer_of(e.kind) << "\",\"ph\":\"i\",\"s\":\"t\""
            << ",\"ts\":" << e.t_us << ",\"pid\":" << run
            << ",\"tid\":" << e.track << ",\"args\":{\"channel\":" << e.channel
            << ",\"aux\":" << static_cast<unsigned>(e.aux) << ",\"id\":\""
            << fmt_hex(e.id) << "\",\"value\":" << fmt_double(e.value)
            << "}}";
        break;
    }
  }
}

void ChromeTraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  os_ << "\n]}\n";
}

void write_metrics_csv(std::ostream& os, const MetricsRegistry& metrics) {
  os << "metric,kind,value\n";
  for (const auto& [name, m] : metrics.entries()) {
    os << name << ','
       << (m.kind == MetricsRegistry::Kind::kCounter ? "counter" : "gauge")
       << ',' << fmt_double(m.value) << '\n';
  }
}

}  // namespace spider::obs
