#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "obs/chrome_trace.h"
#include "util/error.h"
#include "util/json.h"

namespace vmtherm::bench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  detail::require(std::isfinite(value), "metric value must be finite");
  metrics_[name] = Entry{value, unit};
}

void Report::named(const std::string& name, double value,
                   const std::string& unit) {
  named_[name] = Entry{value, unit};
}

void Report::gate(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) ++gates_failed_;
  gate_lines_.push_back(std::string(ok ? "PASS " : "FAIL ") + name + ": " +
                        detail);
}

void Report::print() const {
  for (const std::string& line : gate_lines_) {
    std::cout << "gate " << line << "\n";
  }
  for (const auto& [name, entry] : named_) {
    std::printf("named %-29s %.6g %s\n", name.c_str(), entry.value,
                entry.unit.c_str());
  }
  for (const auto& [name, entry] : metrics_) {
    std::printf("metric %-28s %.6g %s\n", name.c_str(), entry.value,
                entry.unit.c_str());
  }
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted_
            << ", \"failed\": " << failed_ + gates_failed_
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", entry.value);
    std::cout << (first ? "" : ", ") << '"' << util::json_escape(name)
              << "\": {\"value\": " << value << ", \"unit\": \""
              << util::json_escape(entry.unit) << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(std::lround(rank))];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::map<std::string, SpanStats> analyze_trace() {
  const obs::TraceRecorder& recorder = obs::global_trace();
  std::map<std::string, SpanStats> stats;
  std::vector<obs::TraceEvent> events;
  for (std::size_t t = 0; t < recorder.thread_buffer_count(); ++t) {
    const obs::ThreadBuffer& buffer = recorder.thread_buffer(t);
    events.clear();
    for (std::size_t i = 0; i < buffer.published(); ++i) {
      events.push_back(buffer.event(i));
    }
    // Parents sort before their children: earlier start, longer first.
    std::sort(events.begin(), events.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.dur_ns > b.dur_ns;
              });
    std::vector<double> child_ns(events.size(), 0.0);
    std::vector<std::size_t> open;  // indices of enclosing spans
    for (std::size_t i = 0; i < events.size(); ++i) {
      const obs::TraceEvent& e = events[i];
      while (!open.empty()) {
        const obs::TraceEvent& top = events[open.back()];
        if (top.start_ns + top.dur_ns > e.start_ns) break;
        open.pop_back();
      }
      if (!open.empty()) child_ns[open.back()] += static_cast<double>(e.dur_ns);
      open.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      SpanStats& s = stats[events[i].name];
      ++s.count;
      s.total_ns += static_cast<double>(events[i].dur_ns);
      s.self_ns += std::max(0.0, static_cast<double>(events[i].dur_ns) -
                                     child_ns[i]);
    }
  }
  return stats;
}

}  // namespace

std::map<std::string, SpanStats> finish_trace(const Options& options,
                                              Report& report) {
  obs::TraceRecorder& recorder = obs::global_trace();
  recorder.set_enabled(false);
  {
    std::ofstream out(options.trace_out);
    detail::require(static_cast<bool>(out), "cannot open trace output");
    obs::write_chrome_trace(recorder, out);
  }
  std::map<std::string, SpanStats> stats = analyze_trace();
  std::printf("span %-24s %10s %14s %14s\n", "name", "count", "mean_us",
              "mean_self_us");
  for (const auto& [name, s] : stats) {
    std::printf("span %-24s %10llu %14.3f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(s.count),
                s.mean_total_ns() / 1e3, s.mean_self_ns() / 1e3);
  }
  report.metric("trace.dropped", static_cast<double>(recorder.dropped()),
                "count");
  report.metric("trace.events", static_cast<double>(recorder.event_count()),
                "count");
  report.gate("trace_complete", recorder.dropped() == 0,
              std::to_string(recorder.dropped()) + " spans dropped");
  return stats;
}

}  // namespace vmtherm::bench
