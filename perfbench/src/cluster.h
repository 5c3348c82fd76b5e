// Three external prio_server processes on loopback, as the benchmark runs
// them: spawning, stopping, per-process CPU and peak RSS from /proc, and
// scraping each server's /metrics endpoint.
//
// Address isolation: every cluster gets its own 127.a.b.x addresses (one
// per server) and fixed ports below the kernel's ephemeral range, so no
// outbound connection on the host -- which takes its source port from that
// range on 127.0.0.1 -- can ever hold a port a server needs. Nothing here
// probes for a free port or retries a bind.
#pragma once

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "util.h"

namespace perfbench {

inline constexpr size_t kServers = 3;

// The kernel's ephemeral port range (net.ipv4.ip_local_port_range).
inline std::pair<int, int> ephemeral_port_range() {
  std::ifstream in("/proc/sys/net/ipv4/ip_local_port_range");
  int lo = 32768, hi = 60999;
  in >> lo >> hi;
  return {lo, hi};
}

struct ClusterOptions {
  std::string server_bin;
  std::string afe_spec;
  size_t epoch_size = 0;
  std::string data_root;   // one sub-directory per server
  std::string log_dir;     // server stdout/stderr
  std::string fault_plan;  // empty: none
  std::string host_prefix; // "127.a.b." -- server i binds host_prefix + (i+1)
};

class Cluster {
 public:
  // Ports every server binds on its own address; all three sit below the
  // ephemeral range (checked at construction).
  static constexpr u16 kPeerPort = 17001;
  static constexpr u16 kClientPort = 17002;
  static constexpr u16 kStatsPort = 17003;

  explicit Cluster(const ClusterOptions& opts) : opts_(opts) {
    const auto [eph_lo, eph_hi] = ephemeral_port_range();
    for (int port : {kPeerPort, kClientPort, kStatsPort}) {
      if (port >= eph_lo && port <= eph_hi) {
        throw std::runtime_error("benchmark ports fall inside the ephemeral "
                                 "port range");
      }
    }
    std::string servers;
    for (size_t i = 0; i < kServers; ++i) {
      if (i) servers += ",";
      servers += host(i) + ":" + std::to_string(kPeerPort) + ":" +
                 std::to_string(kClientPort);
    }
    for (size_t i = 0; i < kServers; ++i) {
      std::vector<std::string> args = {
          opts_.server_bin,
          "--id", std::to_string(i),
          "--servers", servers,
          "--bind", host(i),
          "--afe", opts_.afe_spec,
          "--epoch-size", std::to_string(opts_.epoch_size),
          "--epochs", "1000000",
          "--data-dir", opts_.data_root + "/s" + std::to_string(i),
          "--fsync", "epoch",
          "--stats-port", std::to_string(kStatsPort)};
      if (!opts_.fault_plan.empty()) {
        args.push_back("--fault-plan");
        args.push_back(opts_.fault_plan);
      }
      pids_[i] = spawn(args, opts_.log_dir + "/server" + std::to_string(i) +
                                 ".log");
    }
  }

  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::string host(size_t i) const {
    return opts_.host_prefix + std::to_string(i + 1);
  }

  // Kills every server and reaps it. Idempotent.
  void stop() {
    for (pid_t& pid : pids_) {
      if (pid <= 0) continue;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }

  // User + system CPU seconds of server i so far.
  double cpu_seconds(size_t i) const {
    std::ifstream in("/proc/" + std::to_string(pids_[i]) + "/stat");
    std::string line;
    std::getline(in, line);
    const size_t close = line.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream fields(line.substr(close + 2));
    std::string tok;
    unsigned long long utime = 0, stime = 0;
    // Fields after "(comm)" start at field 3 (state); utime and stime are
    // fields 14 and 15.
    for (int field = 3; field <= 15 && (fields >> tok); ++field) {
      if (field == 14) utime = std::stoull(tok);
      if (field == 15) stime = std::stoull(tok);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  double total_cpu_seconds() const {
    double sum = 0;
    for (size_t i = 0; i < kServers; ++i) sum += cpu_seconds(i);
    return sum;
  }

  // Peak resident set (VmHWM) of server i, in MiB.
  double peak_rss_mb(size_t i) const {
    std::ifstream in("/proc/" + std::to_string(pids_[i]) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
    return 0.0;
  }

  // Server i's /metrics body (Prometheus text), or "" if it did not answer.
  std::string scrape(size_t i) const {
    auto body = prio::obs::http_get(host(i), kStatsPort, "/metrics", 5000);
    return body ? *body : std::string();
  }

 private:
  static pid_t spawn(const std::vector<std::string>& args,
                     const std::string& log_path) {
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      // A server must never outlive the benchmark that started it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      if (std::FILE* log = std::fopen(log_path.c_str(), "w")) {
        ::dup2(::fileno(log), 1);
        ::dup2(::fileno(log), 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    return pid;
  }

  ClusterOptions opts_;
  std::array<pid_t, kServers> pids_{-1, -1, -1};
};

// One /metrics scrape, parsed: series key (name plus its label block) ->
// value.
class Scrape {
 public:
  Scrape() = default;
  explicit Scrape(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const size_t sp = line.rfind(' ');
      if (sp == std::string::npos) continue;
      series_[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    }
  }

  // Sum of every series of a counter/gauge family (all label values).
  double total(const std::string& family) const {
    double sum = 0;
    for (const auto& [key, v] : series_) {
      if (base_name(key) == family) sum += v;
    }
    return sum;
  }

  // Histogram family: per-bucket (non-cumulative) counts summed over all
  // instances, in obs::kLatencyBoundsSeconds order plus the overflow bucket.
  std::vector<double> buckets(const std::string& family) const {
    const auto& bounds = prio::obs::kLatencyBoundsSeconds;
    std::map<std::string, std::vector<double>> cumulative;  // per instance
    const std::string bucket_name = family + "_bucket";
    for (const auto& [key, v] : series_) {
      if (base_name(key) != bucket_name) continue;
      const size_t le = key.find("le=\"");
      if (le == std::string::npos) continue;
      const std::string bound = key.substr(le + 4, key.find('"', le + 4) - le - 4);
      const std::string instance = key.substr(0, le);
      auto& cum = cumulative[instance];
      cum.resize(bounds.size() + 1, 0.0);
      if (bound == "+Inf") {
        cum[bounds.size()] = v;
      } else {
        const double b = std::stod(bound);
        for (size_t i = 0; i < bounds.size(); ++i) {
          if (std::abs(bounds[i] - b) <= 1e-12 * std::max(1.0, b)) cum[i] = v;
        }
      }
    }
    std::vector<double> out(bounds.size() + 1, 0.0);
    for (const auto& [instance, cum] : cumulative) {
      double prev = 0;
      for (size_t i = 0; i < cum.size(); ++i) {
        out[i] += cum[i] - prev;
        prev = cum[i];
      }
    }
    return out;
  }

  double hist_sum(const std::string& family) const {
    return total(family + "_sum");
  }
  double hist_count(const std::string& family) const {
    return total(family + "_count");
  }

 private:
  static std::string base_name(const std::string& key) {
    return key.substr(0, key.find('{'));
  }
  std::map<std::string, double> series_;
};

// Quantile of a histogram given as per-bucket counts (a delta between two
// scrapes), interpolating linearly inside the bucket the rank falls in.
inline double bucket_quantile(const std::vector<double>& counts, double q) {
  const auto& bounds = prio::obs::kLatencyBoundsSeconds;
  double total = 0;
  for (double c : counts) total += c;
  if (total <= 0) return 0.0;
  const double rank = q * total;
  double cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0 && cum + counts[i] >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      return lo + (hi - lo) * (rank - cum) / counts[i];
    }
    cum += counts[i];
  }
  return bounds.back();
}

}  // namespace perfbench
