// perfgen: the benchmark's load generator and measurement harness (run.py
// builds and runs it; see perfbench/README.md for the metrics).
//
//   perfgen --server-bin BIN --workload NAME --seed N --seconds S
//           --trace 0|1 --out-dir DIR [--corrupt-epoch E]
//
// Prints one JSON object on its last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1), and writes the full report (both sets where measured, the
// spread of repeated measurements, failures and oracle mismatches) to
// DIR/report.json. --corrupt-epoch E hands the oracle gate a wrong
// expected aggregate for epoch E; the run must then report correct=false.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "cluster.h"
#include "layers.h"
#include "live.h"
#include "server/cli.h"
#include "spans.h"
#include "util.h"
#include "workload.h"

using namespace perfbench;

namespace {

struct Args {
  std::string server_bin, workload, out_dir;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  long corrupt_epoch = -1;
};

// Set-up time has modes about 40x apart (a 200 ms accept poll in mesh
// establishment either fires or not, about half the time), so a median of
// single set-ups flips between them from run to run. Each run sets up
// kSetupGroups x kSetupsPerGroup times and reports the median of the group
// means.
constexpr size_t kSetupGroups = 5;
constexpr size_t kSetupsPerGroup = 10;

// Tail latency is taken per slice of consecutive epochs holding at least
// this many submissions (so at least ten samples lie beyond each slice's
// 99th percentile), and the median over slices is reported: one stall of
// the host moves one slice, while a tail that every slice shares still
// moves the figure.
constexpr size_t kSliceSubs = 1000;

// On a shared virtual machine, other guests take our vCPUs' physical CPUs
// for stretches of seconds to minutes ("steal" in /proc/stat), and ack
// latency in those stretches measures them: per-slice p99 rose from ~1 ms
// to 3-9 ms as steal went from under 5% to 10-25%, while the program was
// the same. Ack latency is therefore taken over the slices whose send-to-
// last-ack stretch lost at most kQuietSteal of host CPU time to steal, when
// at least kMinQuietSlices of them exist, and over every slice otherwise.
// The report keeps every slice's p99 and steal share, and the count used.
constexpr double kQuietSteal = 0.05;
constexpr size_t kMinQuietSlices = 5;

// Connects once the server process listens; the process was just spawned,
// so "connection refused" only means it has not reached listen() yet.
prio::net::FramedConn connect_when_up(const std::string& host, uint16_t port,
                                      Clock::time_point deadline) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  prio::require(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                "bad host");
  for (;;) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    prio::require(fd >= 0, "socket() failed");
    prio::net::Socket sock(fd);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return prio::net::FramedConn(std::move(sock));
    }
    if (Clock::now() >= deadline) {
      throw std::runtime_error("server " + host + " never started listening");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Spawns a cluster and returns the seconds until all three servers acked
// `probe` -- which they can only do once the mesh is up.
double timed_setup(const ClusterOptions& copts, const Frames& probe,
                   std::unique_ptr<Cluster>* out) {
  const auto t0 = Clock::now();
  auto cluster = std::make_unique<Cluster>(copts);
  const auto deadline = t0 + std::chrono::seconds(60);
  std::vector<prio::net::FramedConn> conns;
  for (size_t j = 0; j < kServers; ++j) {
    conns.push_back(connect_when_up(cluster->host(j), Cluster::kClientPort,
                                    deadline));
  }
  for (size_t j = 0; j < kServers; ++j) conns[j].send_frame(probe[j]);
  for (size_t j = 0; j < kServers; ++j) {
    const auto ack = conns[j].recv_frame(60'000);
    prio::net::Reader r(ack);
    if (r.u8_() != prio::server::kSubmitAck || r.u8_() != 1 || !r.ok()) {
      throw std::runtime_error("set-up probe was nacked");
    }
  }
  const double s = seconds_between(t0, Clock::now());
  *out = std::move(cluster);
  return s;
}

// The gate itself, fed a correct and a wrong expectation for one epoch.
template <typename Afe>
bool oracle_gate_selfcheck(const Afe& afe, const Pool<Afe>& pool,
                           const Workload& wl, u64 seed) {
  Planner<Afe> planner(&afe, &pool, wl.epoch_size, seed);
  const Expected ex = planner.next().expected;
  Published pub;
  pub.accepted = ex.accepted;
  for (u64 v : ex.sigma) pub.sigma.push_back(F::from_u64(v));
  pub.result = ex.result;
  Expected wrong = ex;
  wrong.sigma[0] += 1;
  return oracle_mismatch(ex, pub).empty() && !oracle_mismatch(wrong, pub).empty();
}

template <typename Afe>
int run(const Afe& afe, const std::string& spec, const Workload& wl,
        const Args& a) {
  namespace fs = std::filesystem;
  const std::string work = a.out_dir + "/work";
  fs::remove_all(work);
  fs::create_directories(work + "/logs");
  MetricMap e2e, layer;
  JsonObject report;
  bool correct = true;
  std::vector<std::string> problems;

  // ---- client: the pool of distinct uploads (PrioClient::upload timed) --
  std::fprintf(stderr, "perfgen: encoding %zu uploads for %s\n", wl.pool, wl.name);
  const Pool<Afe> pool(afe, wl.pool, a.seed);
  if (!oracle_gate_selfcheck(afe, pool, wl, a.seed)) {
    correct = false;
    problems.push_back("oracle gate self-check failed");
  }

  // ---- set-up: spawn until the mesh acks its first submission ----------
  typename LiveRun<Afe>::Options lo;
  lo.wl = &wl;
  lo.afe = &afe;
  lo.pool = &pool;
  lo.afe_spec = spec;
  lo.seed = a.seed;
  lo.seconds = a.seconds;
  lo.threads = std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  lo.first_item_sent = true;
  lo.corrupt_epoch = a.corrupt_epoch;
  const Frames probe = LiveRun<Afe>::first_frames(lo);
  // This run's own loopback subnet: 127.<from the pid>.<set-up #>.<server>.
  const std::string net_prefix =
      "127." + std::to_string(100 + ::getpid() % 150) + ".";
  ClusterOptions copts;
  copts.server_bin = a.server_bin;
  copts.afe_spec = spec;
  copts.epoch_size = wl.epoch_size;
  copts.fault_plan = wl.fault_plan;
  copts.log_dir = work + "/logs";
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (size_t k = 0; k < kSetupGroups * kSetupsPerGroup; ++k) {
    copts.data_root = work + "/setup-" + std::to_string(k);
    copts.host_prefix = net_prefix + std::to_string(k + 1) + ".";
    fs::create_directories(copts.data_root);
    cluster.reset();
    setup_s.push_back(timed_setup(copts, probe, &cluster));
  }
  {
    std::vector<double> group_means;
    for (size_t g = 0; g < kSetupGroups; ++g) {
      double sum = 0;
      for (size_t k = 0; k < kSetupsPerGroup; ++k) {
        sum += setup_s[g * kSetupsPerGroup + k];
      }
      group_means.push_back(sum / kSetupsPerGroup);
    }
    put(e2e, "setup_s", summarize(group_means), "s");
  }
  report.raw("setup_samples_s", json_list(setup_s));

  // ---- the live run -----------------------------------------------------
  SpanLog spans;
  lo.spans = a.trace ? &spans : nullptr;
  std::fprintf(stderr, "perfgen: live run, %.0f s\n", a.seconds);
  LiveRun<Afe> live(lo, cluster.get());
  LiveResult lr = live.run();
  cluster->stop();
  if (!lr.ok) {
    correct = false;
    problems.push_back("live run: " + lr.error);
  }
  for (const auto& mm : lr.mismatches) {
    correct = false;
    problems.push_back("oracle: " + mm);
  }
  {
    // Per-call means over chunks of consecutive calls, so one preempted
    // call moves one chunk, not the median.
    std::vector<double> chunks;
    const size_t chunk = std::max<size_t>(1, lr.upload_us.size() / 32);
    for (size_t i = 0; i + chunk <= lr.upload_us.size(); i += chunk) {
      double sum = 0;
      for (size_t k = i; k < i + chunk; ++k) sum += lr.upload_us[k];
      chunks.push_back(sum / static_cast<double>(chunk));
    }
    put(e2e, "client_encode_us_per_sub", summarize(chunks), "us");
  }
  const double subs = static_cast<double>(std::max<size_t>(1, lr.measured_subs));
  std::vector<double> lat, lag, lat_traced, lat_plain;
  for (const auto& s : lr.samples) {
    lat.push_back(s.lat_ms);
    lag.push_back(s.lag_ms);
    (s.traced ? lat_traced : lat_plain).push_back(s.lat_ms);
  }
  // A refused submission misses every latency limit.
  const u64 failed_subs = lr.nacks + lr.timeouts + lr.resets;
  for (u64 i = 0; i < failed_subs; ++i) lat.push_back(INFINITY);
  const u64 failed = failed_subs + lr.missing;
  if (failed > 0) correct = false;
  put(e2e, "verified_subs_per_s",
      lr.window_s > 0 ? static_cast<double>(lr.measured_subs) / lr.window_s : 0,
      "1/s");
  std::vector<std::vector<double>> slices;
  std::vector<double> slice_p99, slice_steal;
  size_t quiet_slices = 0;
  {
    std::map<uint32_t, std::vector<double>> by_epoch;
    for (const auto& s : lr.samples) by_epoch[s.epoch].push_back(s.lat_ms);
    std::vector<double> slice;
    unsigned long long steal = 0, total = 0;
    auto close_slice = [&] {
      slice_p99.push_back(quantile(slice, 0.99));
      slice_steal.push_back(total ? static_cast<double>(steal) /
                                        static_cast<double>(total)
                                  : 0.0);
      slices.push_back(std::move(slice));
      slice.clear();
      steal = total = 0;
    };
    for (auto& [e, v] : by_epoch) {
      slice.insert(slice.end(), v.begin(), v.end());
      const auto it = lr.epoch_host_cpu.find(e);
      if (it != lr.epoch_host_cpu.end()) {
        steal += it->second.second.steal - it->second.first.steal;
        total += it->second.second.total - it->second.first.total;
      }
      if (slice.size() >= kSliceSubs) close_slice();
    }
    if (slices.empty() && !slice.empty()) close_slice();
    quiet_slices = static_cast<size_t>(std::count_if(
        slice_steal.begin(), slice_steal.end(),
        [](double f) { return f <= kQuietSteal; }));
    const bool quiet_only = quiet_slices >= kMinQuietSlices;
    std::vector<double> tail, pooled;
    for (size_t k = 0; k < slices.size(); ++k) {
      if (quiet_only && slice_steal[k] > kQuietSteal) continue;
      tail.push_back(slice_p99[k]);
      pooled.insert(pooled.end(), slices[k].begin(), slices[k].end());
    }
    for (u64 i = 0; i < failed_subs; ++i) pooled.push_back(INFINITY);
    if (failed_subs > 0) tail.push_back(INFINITY);
    put(e2e, "ack_latency_ms_p50", quantile(pooled, 0.50), "ms");
    put(e2e, "ack_latency_ms_p99", summarize(tail), "ms");
  }
  put(e2e, "publish_latency_ms_p50", summarize(lr.publish_ms), "ms");
  put(e2e, "server_cpu_us_per_sub", lr.server_cpu_s * 1e6 / subs, "us");
  put(e2e, "upload_bytes_per_sub", lr.upload_bytes_per_sub, "B");
  double mesh_bytes = 0, frames = 0, recv_wait_s = 0;
  for (size_t i = 0; i < kServers; ++i) {
    mesh_bytes += lr.scrape_end[i].total("prio_mesh_bytes_sent_total") -
                  lr.scrape_start[i].total("prio_mesh_bytes_sent_total");
    frames += lr.scrape_end[i].total("prio_mesh_frames_sent_total") -
              lr.scrape_start[i].total("prio_mesh_frames_sent_total");
    recv_wait_s += lr.scrape_end[i].hist_sum("prio_mesh_recv_wait_seconds") -
                   lr.scrape_start[i].hist_sum("prio_mesh_recv_wait_seconds");
  }
  put(e2e, "mesh_bytes_per_sub", mesh_bytes / subs, "B");
  put(e2e, "server_rss_mb_peak", lr.rss_mb_peak, "MiB");

  JsonObject failures;
  failures.num("attempted", static_cast<double>(lr.attempted));
  failures.num("nacks", static_cast<double>(lr.nacks));
  failures.num("timeouts", static_cast<double>(lr.timeouts));
  failures.num("resets", static_cast<double>(lr.resets));
  failures.num("missing_honest", static_cast<double>(lr.missing));
  failures.num("failed_frac",
               lr.attempted ? static_cast<double>(failed) /
                                  static_cast<double>(lr.attempted)
                            : 0.0);
  report.raw("failures", failures.render());
  JsonObject live_info;
  live_info.num("measured_epochs", static_cast<double>(lr.measured_epochs));
  live_info.num("measured_subs", static_cast<double>(lr.measured_subs));
  live_info.num("window_s", lr.window_s);
  live_info.num("epoch_size", static_cast<double>(wl.epoch_size));
  live_info.num("sender_threads", static_cast<double>(lo.threads));
  live_info.num("open_loop_rate_hz", wl.open_loop ? wl.rate_hz : 0.0);
  live_info.num("host_steal_frac", lr.host_steal_frac);
  {
    auto v = lat;
    live_info.num("ack_latency_ms_p99_whole_window", quantile(v, 0.99));
  }
  live_info.raw("ack_latency_ms_p99_per_slice", json_list(slice_p99));
  live_info.raw("host_steal_frac_per_slice", json_list(slice_steal));
  live_info.num("ack_latency_quiet_slices", static_cast<double>(quiet_slices));
  live_info.num("ack_latency_slices", static_cast<double>(slices.size()));
  live_info.raw("published_at_s", json_list(lr.published_at_s));
  report.raw("live", live_info.render());

  // ---- traced run: per-layer costs --------------------------------------
  if (a.trace) {
    const Scrape* s0 = lr.scrape_start;
    const Scrape* s1 = lr.scrape_end;
    auto delta = [&](size_t i, const std::string& fam) {
      return s1[i].total(fam) - s0[i].total(fam);
    };
    const double batches = delta(0, "prio_batches_committed_total");
    const double accepted = delta(0, "prio_verify_accepted_total");
    const double processed = accepted + delta(0, "prio_verify_rejected_total");
    const double max_batch = 64;  // prio_server's --batch default
    put(layer, "server.batch_fill",
        batches > 0 ? processed / (batches * max_batch) : 0, "ratio");
    put(layer, "server.accept_ratio", processed > 0 ? accepted / processed : 0,
        "ratio");
    put(layer, "net.mesh_frames_per_batch", batches > 0 ? frames / batches : 0,
        "count");
    put(layer, "net.mesh_bytes_per_batch", batches > 0 ? mesh_bytes / batches : 0,
        "B");
    put(layer, "net.mesh_recv_wait_ms_per_batch",
        batches > 0 ? recv_wait_s * 1e3 / batches : 0, "ms");
    // The servers' own stage histograms over the window, next to the
    // benchmark's numbers for the same stages (report only).
    const std::pair<const char*, const char*> stages[] = {
        {"prio_stage_prepare_seconds", "obs.stage_prepare_us"},
        {"prio_stage_rounds_seconds", "obs.stage_rounds_us"},
        {"prio_stage_commit_seconds", "obs.stage_commit_us"},
        {"prio_wal_append_seconds", "obs.wal_append_us"}};
    for (const auto& [fam, name] : stages) {
      std::vector<double> counts;
      double sum = 0, count = 0;
      for (size_t i = 0; i < kServers; ++i) {
        auto b1 = s1[i].buckets(fam), b0 = s0[i].buckets(fam);
        if (counts.empty()) counts.assign(b1.size(), 0.0);
        for (size_t k = 0; k < b1.size(); ++k) counts[k] += b1[k] - b0[k];
        sum += s1[i].hist_sum(fam) - s0[i].hist_sum(fam);
        count += s1[i].hist_count(fam) - s0[i].hist_count(fam);
      }
      put(layer, std::string(name) + "_p50", bucket_quantile(counts, 0.5) * 1e6,
          "us");
      put(layer, std::string(name) + "_mean", count > 0 ? sum / count * 1e6 : 0,
          "us");
    }
    {
      auto v = lag;
      put(layer, "gen.lag_ms_p99", quantile(v, 0.99), "ms");
    }
    {
      auto t = lat_traced, p = lat_plain;
      const double pm = quantile(p, 0.5);
      put(layer, "trace.overhead_frac",
          pm > 0 ? quantile(t, 0.5) / pm - 1.0 : 0, "ratio");
    }

    std::fprintf(stderr, "perfgen: per-layer timings\n");
    const std::string echo_host = net_prefix + "250.1";
    for (auto& [k, v] : micro_layers(afe, pool, a.seed, wl.epoch_size,
                                     echo_host, Cluster::kClientPort, work)) {
      layer[k] = v;
    }
    std::fprintf(stderr, "perfgen: in-process replay, %zu epochs\n",
                 wl.replay_epochs);
    const ReplayResult rr = replay(afe, pool, wl, a.seed, wl.replay_epochs,
                                   /*batch=*/64, work + "/replay", &spans);
    for (const auto& mm : rr.mismatches) {
      correct = false;
      problems.push_back("oracle: " + mm);
    }
    ReplayCosts sum;
    double ledger[6] = {0, 0, 0, 0, 0, 0};
    for (const auto& c : rr.node) {
      sum.prepare_wall += c.prepare_wall;
      sum.rounds_wall += c.rounds_wall;
      sum.rounds_cpu += c.rounds_cpu;
      sum.commit_wall += c.commit_wall;
      sum.intake_wall += c.intake_wall;
      sum.rotate_wall += c.rotate_wall;
      sum.publish_wall += c.publish_wall;
      sum.batches += c.batches;
      sum.subs += c.subs;
      sum.epochs += c.epochs;
      const double n = static_cast<double>(c.subs) * 1e3;  // ns -> us per sub
      ledger[0] += c.intake_cpu / n;
      ledger[1] += c.prepare_cpu / n;
      ledger[2] += c.rounds_cpu / n;
      ledger[3] += c.commit_cpu / n;
      ledger[4] += (c.publish_cpu + c.rotate_cpu) / n;
    }
    const double nb = static_cast<double>(sum.batches);
    put(layer, "server.prepare_us_per_batch", sum.prepare_wall / nb / 1e3, "us");
    put(layer, "server.rounds_cpu_us_per_batch", sum.rounds_cpu / nb / 1e3, "us");
    put(layer, "server.rounds_wait_us_per_batch",
        (sum.rounds_wall - sum.rounds_cpu) / nb / 1e3, "us");
    put(layer, "server.commit_us_per_batch", sum.commit_wall / nb / 1e3, "us");
    put(layer, "store.wal_append_us_per_sub",
        sum.intake_wall / static_cast<double>(sum.subs) / 1e3, "us");
    put(layer, "store.rotate_ms_per_epoch",
        sum.rotate_wall / static_cast<double>(sum.epochs) / 1e6, "ms");
    put(layer, "server.publish_ms_per_epoch",
        sum.publish_wall / static_cast<double>(sum.epochs) / 1e6, "ms");
    for (int i = 0; i < 5; ++i) ledger[5] += ledger[i];
    const char* rows[] = {"intake", "prepare", "rounds", "commit", "epoch",
                          "total"};
    for (int i = 0; i < 6; ++i) {
      put(layer, std::string("ledger.") + rows[i] + "_cpu_us_per_sub", ledger[i],
          "us");
    }
    const double live_cpu_us = e2e["server_cpu_us_per_sub"].value;
    put(layer, "ledger.unexplained_frac",
        live_cpu_us > 0 ? 1.0 - ledger[5] / live_cpu_us : 0, "ratio");

    const auto all = spans.merged();
    const auto self = SpanLog::self_time_us(all);
    for (size_t n = 1; n < static_cast<size_t>(SpanName::kCount); ++n) {
      const std::string name = span_name(static_cast<SpanName>(n));
      auto it = self.find(name);
      put(layer, "span." + name + ".self_us",
          it == self.end() ? 0.0 : it->second.first, "us");
    }
    SpanLog::write_csv(all, a.out_dir + "/spans.csv");
  }

  JsonObject prob;
  for (size_t i = 0; i < problems.size(); ++i) {
    prob.str(std::to_string(i), problems[i]);
    std::fprintf(stderr, "perfgen: %s\n", problems[i].c_str());
  }
  report.str("workload", wl.name);
  report.str("afe", spec);
  report.num("seed", static_cast<double>(a.seed));
  report.num("seconds", a.seconds);
  report.boolean("trace", a.trace);
  report.boolean("correct", correct);
  report.raw("problems", prob.render());
  report.raw("end_to_end", render_metrics(e2e, true));
  if (a.trace) report.raw("per_layer", render_metrics(layer, true));
  {
    std::ofstream out(a.out_dir + "/report.json");
    out << report.render() << "\n";
  }
  fs::remove_all(work);

  JsonObject result;
  result.boolean("correct", correct);
  result.num("attempted", static_cast<double>(std::max<u64>(1, lr.attempted)));
  result.num("failed", static_cast<double>(failed));
  result.raw("metrics", render_metrics(a.trace ? layer : e2e, false));
  std::cout << result.render() << std::endl;
  return 0;
}

Args parse_args(int argc, char** argv) {
  prio::server::Flags flags(argc, argv);
  Args a;
  a.server_bin = flags.str("server-bin", "");
  a.workload = flags.str("workload", "");
  a.out_dir = flags.str("out-dir", "");
  a.seed = flags.num("seed", 1);
  a.seconds = flags.real("seconds", 10);
  a.trace = flags.num("trace", 0) != 0;
  if (flags.has("corrupt-epoch")) {
    a.corrupt_epoch = static_cast<long>(flags.num("corrupt-epoch", 0));
  }
  prio::require(!a.server_bin.empty() && !a.out_dir.empty(),
                "--server-bin and --out-dir are required");
  prio::require(a.seconds > 0, "--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const Workload* wl = find_workload(a.workload);
    if (!wl) {
      std::fprintf(stderr, "perfgen: unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
    const auto spec = prio::afe::parse_afe_spec(wl->afe);
    const std::string canonical = prio::afe::with_afe<F>(
        spec, [](const auto&, const prio::afe::AfeSpec& norm) {
          return norm.canonical();
        });
    const auto num = [&](const char* key) {
      return static_cast<size_t>(std::stoull(spec.params.at(key)));
    };
    if (spec.name == "bitvec_sum") {
      prio::afe::BitVectorSum<F> afe(num("len"));
      return run(afe, canonical, *wl, a);
    }
    if (spec.name == "countmin") {
      prio::afe::CountMinSketch<F> afe(num("d"), num("w"));
      return run(afe, canonical, *wl, a);
    }
    std::fprintf(stderr, "perfgen: no workload support for AFE '%s'\n", spec.name.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfgen: fatal: %s\n", e.what());
    return 1;
  }
}
