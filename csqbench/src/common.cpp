#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace csqbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

void Rounds::add(int round, double latency_ms, double work,
                 double busy_ms) {
  const auto r = static_cast<std::size_t>(std::clamp(round, 0, count() - 1));
  ms_[r].push_back(latency_ms);
  work_[r] += work;
  busy_ms_[r] += busy_ms;
}

double Rounds::quantile_ms(double q) const {
  std::vector<double> per_round;
  for (const std::vector<double>& round : ms_) {
    if (!round.empty()) per_round.push_back(percentile(round, q));
  }
  return median(per_round);
}

double Rounds::throughput_per_s() const {
  std::vector<double> per_round;
  for (std::size_t r = 0; r < ms_.size(); ++r) {
    if (busy_ms_[r] > 0.0) per_round.push_back(work_[r] / (busy_ms_[r] / 1e3));
  }
  return median(per_round);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void Checks::expect(bool ok, const std::string& what) {
  ++count_;
  if (!ok) {
    ++failures_;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

Tracer::Tracer(bool enabled, std::size_t reserve) : enabled_(enabled) {
  if (enabled_) spans_.reserve(reserve);
}

int Tracer::begin(const char* name, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.start = Clock::now();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(ms_between(span.start, span.end));
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  static const Clock::time_point origin = Clock::now();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [";
  const char* separator = "\n";
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Tracer::Span>& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& span = spans[i];
      const auto us = [](Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
      };
      out << separator << "{\"name\": \"" << span.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << t + 1
          << ", \"ts\": " << us(span.start - origin)
          << ", \"dur\": " << us(span.end - span.start)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent
          << "}}";
      separator = ",\n";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::print(bool correct, std::int64_t attempted,
                   std::int64_t failed) const {
  for (const Metric& m : metrics_) {
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"data.batch_ms", "ms"},
      {"opt.step_ms", "ms"},
      {"core.budget_ms", "ms"},
      {"nn.forward_ms", "ms"},
      {"nn.backward_ms", "ms"},
      {"quant.materialize_ms", "ms"},
      {"opt.sgd_ms", "ms"},
      {"opt.dp_efficiency", "ratio"},
      {"runtime.forward_ms", "ms"},
      {"tensor.gemm_s8u8_ms", "ms"},
      {"tensor.gemm_bitserial_ms", "ms"},
      {"tensor.gemm_bitserial-w16_ms", "ms"},
      {"tensor.gemm_nibble_ms", "ms"},
      {"runtime.outside_gemm_ms", "ms"},
      {"runtime.load_ms", "ms"},
      {"runtime.prepare_ms", "ms"},
      {"runtime.workspace_mb", "MiB"},
      {"serve.start_ms", "ms"},
      {"serve.wire_ms", "ms"},
      {"serve.inproc_ms", "ms"},
      {"serve.transport_ms", "ms"},
      {"serve.queue_ms", "ms"},
      {"serve.batch_mean", "requests"},
      {"serve.timer_flush_share", "ratio"},
      {"serve.generator_lag_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return metrics;
}

void add_per_layer(Report& report,
                   const std::vector<std::pair<std::string, double>>& measured) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    double value = 0.0;
    for (const auto& [m_name, m_value] : measured) {
      if (m_name == name) value = m_value;
    }
    report.add(name, value, unit);
  }
  for (const auto& [m_name, m_value] : measured) {
    bool known = false;
    for (const auto& entry : per_layer_metrics()) known |= entry.first == m_name;
    if (!known) throw std::logic_error("unknown per-layer metric " + m_name);
  }
}

}  // namespace csqbench
