// Small helpers shared by the benchmark generator: clocks, order statistics,
// and a flat JSON object writer for the result line and the report file.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/common.h"

namespace perfbench {

using prio::u16;
using prio::u64;
using prio::u8;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline long long ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// CPU time of the calling thread. A size-1 ThreadPool runs its work inline,
// so around a ServerNode call this sees all of that call's compute.
inline long long thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<long long>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

// Host-wide CPU time from /proc/stat. On a shared virtual machine the
// "steal" column is time the hypervisor gave our vCPUs' physical CPUs to
// other guests; the report records it because it, not the program, is what
// makes timings of the same code spread from run to run.
struct HostCpu {
  unsigned long long steal = 0, total = 0;

  static HostCpu now() {
    HostCpu c;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (!f) return c;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (auto x : v) c.total += x;
      c.steal = v[7];
    }
    std::fclose(f);
    return c;
  }

  double steal_frac_since(const HostCpu& start) const {
    const auto total_d = total - start.total;
    return total_d ? static_cast<double>(steal - start.steal) /
                         static_cast<double>(total_d)
                   : 0.0;
  }
};

// Quantile by linear interpolation between order statistics (the
// "inclusive" method, as Python's statistics.quantiles(method='inclusive')).
// Sorts `v` in place. Empty input reads as 0.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

struct Summary {
  double median = 0, q1 = 0, q3 = 0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.q1 = quantile(v, 0.25);
  s.median = quantile(v, 0.5);
  s.q3 = quantile(v, 0.75);
  return s;
}

// Ordered JSON object of numbers, strings and nested raw JSON.
class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    add(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    add(key, quote(v));
  }
  void boolean(const std::string& key, bool v) { add(key, v ? "true" : "false"); }
  void raw(const std::string& key, const std::string& json) { add(key, json); }

  std::string render() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ", ";
      out += quote(items_[i].first) + ": " + items_[i].second;
    }
    return out + "}";
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  void add(const std::string& key, const std::string& value) {
    items_.emplace_back(key, value);
  }
  std::vector<std::pair<std::string, std::string>> items_;
};

inline std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

// One reported metric: its value, unit, and (for repeated trials) the
// quartiles the value is the median of.
struct Metric {
  double value = 0;
  std::string unit;
  double q1 = NAN, q3 = NAN;
};

using MetricMap = std::map<std::string, Metric>;

inline void put(MetricMap& m, const std::string& name, double value,
                const std::string& unit) {
  m[name] = Metric{value, unit};
}

inline void put(MetricMap& m, const std::string& name, const Summary& s,
                const std::string& unit) {
  m[name] = Metric{s.median, unit, s.q1, s.q3};
}

inline std::string render_metrics(const MetricMap& m, bool with_spread) {
  JsonObject obj;
  for (const auto& [name, metric] : m) {
    JsonObject one;
    one.num("value", metric.value);
    one.str("unit", metric.unit);
    if (with_spread && !std::isnan(metric.q1)) {
      one.num("q1", metric.q1);
      one.num("q3", metric.q3);
    }
    obj.raw(name, one.render());
  }
  return obj.render();
}

}  // namespace perfbench
