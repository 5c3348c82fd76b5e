// The live run: one generator process driving three prio_server processes.
//
// Sender threads (at most nproc, each holding one connection to each
// server) ship prebuilt intake frames; one fetch thread asks server 0 for
// every epoch's aggregate and holds it to the plaintext oracle; one
// producer thread seals upcoming epochs ahead of the senders.
//
// Client cost. Between epochs the producer also times PrioClient::upload
// on further seeded inputs (the uploads are dropped), spending about
// kEncodeShare of its time on it, so the client-cost figure is spread over
// the whole run rather than one short burst on a host whose speed drifts
// over seconds.
//
// Epoch window. Epochs are count-delimited on the servers, and server 0
// fills them in intake order, so an epoch holds exactly the planned
// submissions only if all of them reach intake before any of the next
// epoch's. Epoch e is therefore let go only once every submission of epoch
// e-1 is acked by all three servers and epoch e-2's aggregate has been
// fetched. The second condition is the closed loop's bound of two
// unpublished epochs; it also guarantees that a replay (drawn from e-2)
// reaches intake after its original was verified everywhere. In the open
// loop the same window applies, and time spent waiting on it counts
// against the submission's latency, which runs from its scheduled time.
//
// Measured window. The first kWarmupEpochs epochs warm the servers up.
// The window opens when the last warm-up epoch is published (so no earlier
// work is still running on the servers) and closes when the last measured
// epoch's aggregate comes back; CPU and /metrics are sampled at both ends.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "cluster.h"
#include "net/tcp_transport.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

struct LiveSample {
  double lat_ms = 0;  // due -> last of the three acks
  double lag_ms = 0;  // when the generator could send -> when it did
  bool traced = false;
  uint32_t epoch = 0;
};

struct LiveResult {
  bool ok = false;          // every measured epoch published and checked
  std::string error;        // why the run stopped early, if it did
  std::vector<std::string> mismatches;  // oracle gate failures
  u64 attempted = 0, nacks = 0, timeouts = 0, resets = 0, missing = 0;
  size_t measured_epochs = 0;
  size_t measured_subs = 0;
  double window_s = 0;
  std::vector<LiveSample> samples;     // measured epochs only
  std::vector<double> publish_ms;      // per measured epoch
  std::vector<double> published_at_s;  // per measured epoch, from window start
  // Host CPU counters at each measured epoch's first send and last ack:
  // the stretch in which its latency samples were taken.
  std::map<uint32_t, std::pair<HostCpu, HostCpu>> epoch_host_cpu;
  double upload_bytes_per_sub = 0;
  std::vector<double> upload_us;       // per timed PrioClient::upload call
  double server_cpu_s = 0;
  double host_steal_frac = 0;  // CPU time the hypervisor took, over the window
  double rss_mb_peak = 0;
  Scrape scrape_start[kServers], scrape_end[kServers];
};

template <typename Afe>
class LiveRun {
 public:
  struct Options {
    const Workload* wl = nullptr;
    const Afe* afe = nullptr;
    const Pool<Afe>* pool = nullptr;
    std::string afe_spec;  // canonical
    u64 seed = 0;
    double seconds = 10;
    size_t threads = 4;
    SpanLog* spans = nullptr;  // traced run: spans on even epochs
    // Item 0 of epoch 0 already went out as the set-up probe
    // (first_frames) and was acked by all three servers.
    bool first_item_sent = false;
    // Hands the oracle gate a wrong expected aggregate for this epoch
    // (-1: none), to show that a mismatch fails the run.
    long corrupt_epoch = -1;
  };

  LiveRun(const Options& opts, Cluster* cluster)
      : o_(opts), cluster_(cluster),
        sealer_(prio::master_seed_bytes(kMasterSeed)),
        planner_(opts.afe, opts.pool, opts.wl->epoch_size, opts.seed),
        E_(opts.wl->epoch_size),
        client_(opts.afe, 3, kMasterSeed),
        client_rng_(mix(opts.seed, 0xc11e48)) {
    if (o_.wl->open_loop) {
      // Arrivals for the whole window are fixed up front from the seed;
      // whole epochs only, since epochs are count-delimited.
      const double want = o_.wl->rate_hz * o_.seconds;
      measured_epochs_ = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(want / static_cast<double>(E_))));
      total_epochs_ = kWarmupEpochs + measured_epochs_;
      std::mt19937_64 rng(mix(o_.seed, 0xa77));
      std::exponential_distribution<double> gap(o_.wl->rate_hz);
      offsets_.resize(total_epochs_ * E_);
      double t = 0;
      for (size_t g = 0; g < offsets_.size(); ++g) {
        if (g == kWarmupEpochs * E_) t = 0;  // window start is a new origin
        t += gap(rng);
        offsets_[g] = t;
      }
      last_epoch_ = static_cast<long>(total_epochs_) - 1;
      stop_decided_ = true;
    }
    if (o_.first_item_sent) {
      next_item_ = 1;
      attempted_ = 1;
    }
  }

  // The submission mesh setup sends to measure set-up time: item 0 of
  // epoch 0, sealed ahead so the measurement sees no encoding work.
  static Frames first_frames(const Options& o) {
    Planner<Afe> planner(o.afe, o.pool, o.wl->epoch_size, o.seed);
    prio::SubmissionSealer sealer(prio::master_seed_bytes(kMasterSeed));
    return seal_item(sealer, *o.pool, planner.next().items[0]);
  }

  LiveResult run() {
    LiveResult res;
    start_ = Clock::now();
    std::thread producer([this] { guard([this] { produce(); }); });
    std::thread fetcher([this] { guard([this] { fetch(); }); });
    std::vector<std::thread> senders;
    std::vector<std::vector<LiveSample>> per_thread(o_.threads);
    for (size_t t = 0; t < o_.threads; ++t) {
      senders.emplace_back(
          [this, &per_thread, t] { guard([&] { send_loop(per_thread[t]); }); });
    }

    const double kGrace = 60.0;  // s; a stall past this fails the run
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::duration<double>(kGrace), [&] {
        return aborted_ || published_upto_ + 1 >= static_cast<long>(kWarmupEpochs);
      });
      if (!aborted_ && published_upto_ + 1 < static_cast<long>(kWarmupEpochs)) {
        aborted_ = true;
        error_ = "warm-up epochs were not published in time";
      }
    }
    if (!aborted()) {
      for (size_t i = 0; i < kServers; ++i) {
        res.scrape_start[i] = Scrape(cluster_->scrape(i));
      }
      const double cpu0 = cluster_->total_cpu_seconds();
      const HostCpu host0 = HostCpu::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        window_open_ = true;
        window_start_ = Clock::now();
      }
      cv_.notify_all();
      if (!o_.wl->open_loop) {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_until(lock,
                       window_start_ + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(o_.seconds)),
                       [&] { return aborted_; });
        // Every epoch the window already let go is sent in full.
        last_epoch_ = std::max<long>(released_max_, kWarmupEpochs);
        measured_epochs_ = static_cast<size_t>(last_epoch_) + 1 - kWarmupEpochs;
        stop_decided_ = true;
        cv_.notify_all();
      }
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::duration<double>(o_.seconds + kGrace),
                     [&] { return aborted_ || published_upto_ >= last_epoch_; });
        if (published_upto_ < last_epoch_ && !aborted_) {
          aborted_ = true;
          error_ = "last epoch was not published in time";
        }
      }
      if (!aborted()) {
        res.window_s = seconds_between(window_start_, last_fetch_);
        res.server_cpu_s = cluster_->total_cpu_seconds() - cpu0;
        res.host_steal_frac = HostCpu::now().steal_frac_since(host0);
        for (size_t i = 0; i < kServers; ++i) {
          res.scrape_end[i] = Scrape(cluster_->scrape(i));
          res.rss_mb_peak = std::max(res.rss_mb_peak, cluster_->peak_rss_mb(i));
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished_ = true;
      if (!stop_decided_) {
        stop_decided_ = true;
        last_epoch_ = std::max(last_epoch_, released_max_);
      }
    }
    cv_.notify_all();
    if (aborted()) {
      // Unblock threads waiting on a server that will never answer.
      std::lock_guard<std::mutex> lock(conn_mu_);
      for (auto* c : live_conns_) c->shutdown_rw();
    }
    for (auto& t : senders) t.join();
    fetcher.join();
    producer.join();

    std::lock_guard<std::mutex> lock(mu_);
    res.error = error_;
    res.mismatches = mismatches_;
    res.attempted = attempted_;
    res.nacks = nacks_;
    res.timeouts = timeouts_;
    res.resets = resets_;
    res.missing = missing_;
    res.measured_epochs = measured_epochs_;
    res.measured_subs = measured_epochs_ * E_;
    for (auto& v : per_thread) {
      res.samples.insert(res.samples.end(), v.begin(), v.end());
    }
    res.publish_ms = publish_ms_;
    res.upload_us = upload_us_;  // the producer has joined
    res.published_at_s = published_at_s_;
    res.epoch_host_cpu = epoch_host_cpu_;
    res.upload_bytes_per_sub =
        measured_sent_ ? static_cast<double>(measured_blob_bytes_) /
                             static_cast<double>(measured_sent_)
                       : 0.0;
    res.ok = !aborted_ && res.samples.size() == res.measured_subs;
    if (!aborted_ && !res.ok) res.error = "measured submissions incomplete";
    return res;
  }

 private:
  struct EpochState {
    EpochPlan plan;
    std::vector<Frames> frames;
    size_t acked = 0;
    bool sent_any = false;
    Clock::time_point first_send, last_ack;
    HostCpu cpu_first_send, cpu_last_ack;
  };

  bool aborted() {
    std::lock_guard<std::mutex> lock(mu_);
    return aborted_;
  }

  void fail(const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!aborted_) error_ = why;
      aborted_ = true;
    }
    cv_.notify_all();
  }

  template <typename Fn>
  void guard(Fn&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  bool measured(size_t e) const { return e >= kWarmupEpochs; }
  bool traced(size_t e) const { return o_.spans && e % 2 == 0; }

  // Callers hold mu_. Whether epoch e may go out now.
  bool released_locked(long e) {
    if (stop_decided_ && e > last_epoch_) return false;
    if (o_.wl->open_loop && e >= static_cast<long>(total_epochs_)) return false;
    auto it = epochs_.find(e);
    if (it == epochs_.end()) return false;
    if (e >= 1 && !acked_locked(e - 1)) return false;
    if (e >= 2 && published_upto_ < e - 2) return false;
    if (e == static_cast<long>(kWarmupEpochs) && !window_open_) return false;
    return true;
  }

  // Callers hold mu_. Whether every submission of epoch e was acked.
  bool acked_locked(long e) {
    if (published_upto_ >= e) return true;
    auto it = epochs_.find(e);
    return it != epochs_.end() && it->second->acked == E_;
  }

  // Callers hold mu_. True once epoch e can never be sent in this run.
  bool beyond_end_locked(long e) {
    if (aborted_) return true;
    if (o_.wl->open_loop) return e >= static_cast<long>(total_epochs_);
    return stop_decided_ && e > last_epoch_;
  }

  void produce() {
    for (long e = 0;; ++e) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        // Epoch e goes out once e-1 is acked and e-2 published. Sealing it
        // as soon as e-2 is acked keeps one epoch ahead of the senders, and
        // in a closed loop puts the sealing in the gap after e-2's sends
        // rather than at the start of e-1's, which its CPU work would delay.
        cv_.wait(lock, [&] {
          return beyond_end_locked(e) || finished_ || e < 2 || acked_locked(e - 2);
        });
        if (beyond_end_locked(e) || finished_) return;
      }
      auto st = std::make_unique<EpochState>();
      st->plan = planner_.next();
      st->frames.reserve(E_);
      for (const Item& it : st->plan.items) {
        st->frames.push_back(seal_item(sealer_, *o_.pool, it));
      }
      if (e == 0 && o_.first_item_sent) {
        st->acked = 1;
        st->sent_any = true;
        st->first_send = Clock::now();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        epochs_[e] = std::move(st);
      }
      cv_.notify_all();
      encode_for_client_cost();
    }
  }

  void encode_for_client_cost() {
    while (upload_spent_s_ < kEncodeShare * seconds_between(start_, Clock::now())) {
      const u64 k = upload_us_.size();
      const auto input =
          prio::afe::sample_input(*o_.afe, mix(o_.seed, 0xe0c0000000ull + k));
      const auto t0 = Clock::now();
      const auto blobs = client_.upload(input, mix(o_.seed, 0x9003) ^ k, client_rng_);
      const double s = seconds_between(t0, Clock::now());
      upload_us_.push_back(s * 1e6);
      upload_spent_s_ += s;
    }
  }

  void send_loop(std::vector<LiveSample>& out) {
    std::vector<Span>* spans = o_.spans ? o_.spans->buffer() : nullptr;
    std::vector<prio::net::FramedConn> conns;
    for (size_t j = 0; j < kServers; ++j) {
      conns.emplace_back(prio::net::connect_tcp(
          cluster_->host(j), Cluster::kClientPort, 10'000));
    }
    ConnRegistration reg(this, {&conns[0], &conns[1], &conns[2]});
    for (;;) {
      const size_t g = next_item_.fetch_add(1);
      const long e = static_cast<long>(g / E_);
      const size_t i = g % E_;
      Clock::time_point due;
      if (o_.wl->open_loop) {
        if (e >= static_cast<long>(total_epochs_)) break;
        Clock::time_point base = start_;
        if (measured(e)) {
          std::unique_lock<std::mutex> lock(mu_);
          cv_.wait(lock, [&] { return aborted_ || window_open_; });
          if (aborted_) break;
          base = window_start_;
        }
        due = base + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offsets_[g]));
        std::this_thread::sleep_until(due);
      }
      const Frames* frames = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return beyond_end_locked(e) || released_locked(e); });
        if (!released_locked(e)) break;
        auto& st = *epochs_[e];
        frames = &st.frames[i];
        released_max_ = std::max(released_max_, e);
        if (!st.sent_any) {
          st.sent_any = true;
          st.first_send = Clock::now();
          st.cpu_first_send = HostCpu::now();
        }
        ++attempted_;
      }
      cv_.notify_all();
      const auto gate_open = Clock::now();
      if (!o_.wl->open_loop) due = gate_open;
      Clock::time_point sent[kServers], acked[kServers];
      std::string failure;
      for (size_t j = 0; j < kServers; ++j) {
        sent[j] = Clock::now();
        try {
          conns[j].send_frame((*frames)[j]);
        } catch (const prio::net::TransportError&) {
          failure = "reset";
          break;
        }
      }
      for (size_t j = 0; j < kServers && failure.empty(); ++j) {
        std::optional<std::vector<u8>> ack;
        try {
          ack = conns[j].try_recv_frame(10'000);
        } catch (const prio::net::TransportError&) {
          failure = "reset";
          break;
        }
        if (!ack) {
          failure = conns[j].eof() ? "reset" : "timeout";
          break;
        }
        acked[j] = Clock::now();
        prio::net::Reader r(*ack);
        if (r.u8_() != prio::server::kSubmitAck || r.u8_() != 1 || !r.ok()) {
          failure = "nack";
        }
      }
      if (!failure.empty()) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (failure == "nack") ++nacks_;
          if (failure == "timeout") ++timeouts_;
          if (failure == "reset") ++resets_;
        }
        // Nothing is re-sent: the epoch can no longer hold its planned
        // submissions, so the run stops here.
        fail("intake " + failure + " on epoch " + std::to_string(e));
        break;
      }
      const auto done = Clock::now();
      const bool tr = traced(static_cast<size_t>(e));
      if (measured(static_cast<size_t>(e))) {
        out.push_back({seconds_between(due, done) * 1e3,
                       seconds_between(std::max(due, gate_open), sent[0]) * 1e3,
                       tr, static_cast<uint32_t>(e)});
      }
      if (tr && spans) {
        const auto submit = span_key(SpanName::kSubmit, g);
        SpanLog::record(spans, SpanName::kSubmit, g,
                        span_key(SpanName::kEpoch, static_cast<u64>(e)),
                        ns_of(due), ns_of(done));
        SpanLog::record(spans, SpanName::kGateWait, g, submit, ns_of(due),
                        ns_of(std::max(due, gate_open)));
        const SpanName ack_names[kServers] = {SpanName::kAck0, SpanName::kAck1,
                                              SpanName::kAck2};
        for (size_t j = 0; j < kServers; ++j) {
          SpanLog::record(spans, ack_names[j], g, submit, ns_of(sent[j]),
                          ns_of(acked[j]));
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto& st = *epochs_[e];
        st.last_ack = std::max(st.last_ack, done);
        if (++st.acked == E_) st.cpu_last_ack = HostCpu::now();
        if (measured(static_cast<size_t>(e))) {
          ++measured_sent_;
          for (const auto& f : *frames) {
            measured_blob_bytes_ += f.size() - kFrameOverhead;
          }
        }
      }
      cv_.notify_all();
    }
  }

  void fetch() {
    std::vector<Span>* spans = o_.spans ? o_.spans->buffer() : nullptr;
    prio::net::FramedConn conn(prio::net::connect_tcp(
        cluster_->host(0), Cluster::kClientPort, 10'000));
    ConnRegistration reg(this, {&conn});
    for (long e = 0;; ++e) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return beyond_end_locked(e) ||
                 (epochs_.count(e) && epochs_[e]->sent_any);
        });
        if (beyond_end_locked(e)) return;
      }
      prio::net::Writer ask;
      ask.u8_(prio::server::kGetAggregate);
      ask.u32_(static_cast<uint32_t>(e));
      ask.u8_(prio::afe::afe_wire_id(*o_.afe));
      ask.str_(o_.afe_spec);
      conn.send_frame(ask.data());
      const auto reply = conn.recv_frame(60'000);
      const auto fetched = Clock::now();
      prio::net::Reader r(reply);
      Published pub;
      const u8 type = r.u8_();
      const uint32_t got_epoch = r.u32_();
      pub.accepted = r.u64_();
      r.u8_();
      const std::string got_spec = r.str_();
      pub.sigma = r.field_vector<F>(o_.afe->k_prime());
      pub.result = r.bytes();
      if (type != prio::server::kAggregate || got_epoch != e || !r.ok() ||
          !r.at_end() || got_spec != o_.afe_spec) {
        throw std::runtime_error("malformed aggregate reply for epoch " +
                                 std::to_string(e));
      }
      std::unique_ptr<EpochState> st;
      {
        // Server 0 publishes only after every submission reached its
        // intake, but the generator may not have read the last acks yet.
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return aborted_ || epochs_[e]->acked == E_; });
        if (aborted_) return;
        st = std::move(epochs_[e]);
        epochs_.erase(e);
        published_upto_ = e;
        last_fetch_ = fetched;
      }
      cv_.notify_all();
      Expected ex = st->plan.expected;
      if (e == o_.corrupt_epoch) ex.sigma[0] += 1;
      const std::string bad = oracle_mismatch(ex, pub);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!bad.empty()) {
          mismatches_.push_back("epoch " + std::to_string(e) + ": " + bad);
        }
        if (pub.accepted < ex.accepted) missing_ += ex.accepted - pub.accepted;
        if (measured(static_cast<size_t>(e))) {
          publish_ms_.push_back(seconds_between(st->last_ack, fetched) * 1e3);
          published_at_s_.push_back(seconds_between(window_start_, fetched));
          epoch_host_cpu_[static_cast<uint32_t>(e)] = {st->cpu_first_send,
                                                       st->cpu_last_ack};
        }
      }
      if (traced(static_cast<size_t>(e)) && spans) {
        const auto epoch_key = span_key(SpanName::kEpoch, static_cast<u64>(e));
        SpanLog::record(spans, SpanName::kEpoch, static_cast<u64>(e), 0,
                        ns_of(st->first_send), ns_of(fetched));
        SpanLog::record(spans, SpanName::kPublish, static_cast<u64>(e),
                        epoch_key, ns_of(st->last_ack), ns_of(fetched));
      }
    }
  }

  // Lists a thread's connections so an aborting run can shut them down
  // under a blocked reader; unlisted before the connections are destroyed.
  struct ConnRegistration {
    ConnRegistration(LiveRun* run, std::vector<prio::net::FramedConn*> conns)
        : run_(run), conns_(std::move(conns)) {
      std::lock_guard<std::mutex> lock(run_->conn_mu_);
      for (auto* c : conns_) run_->live_conns_.push_back(c);
    }
    ~ConnRegistration() {
      std::lock_guard<std::mutex> lock(run_->conn_mu_);
      for (auto* c : conns_) std::erase(run_->live_conns_, c);
    }
    ConnRegistration(const ConnRegistration&) = delete;
    ConnRegistration& operator=(const ConnRegistration&) = delete;
    LiveRun* run_;
    std::vector<prio::net::FramedConn*> conns_;
  };

  // Share of the run the producer spends timing client uploads.
  static constexpr double kEncodeShare = 0.05;

  // kClientSubmit framing around a sealed blob: type, client id, length.
  static constexpr size_t kFrameOverhead = 1 + 8 + 4;

  Options o_;
  Cluster* cluster_;
  prio::SubmissionSealer sealer_;
  Planner<Afe> planner_;  // producer thread only
  const size_t E_;
  prio::PrioClient<F, Afe> client_;  // producer thread only
  prio::SecureRng client_rng_;       // producer thread only
  std::vector<double> upload_us_;    // producer thread only
  double upload_spent_s_ = 0;        // producer thread only
  std::vector<double> offsets_;  // open loop: seconds after the origin
  size_t total_epochs_ = 0;      // open loop
  Clock::time_point start_;
  std::atomic<size_t> next_item_{0};

  std::mutex conn_mu_;
  std::vector<prio::net::FramedConn*> live_conns_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<long, std::unique_ptr<EpochState>> epochs_;
  long published_upto_ = -1;
  long released_max_ = -1;
  long last_epoch_ = -1;
  size_t measured_epochs_ = 0;
  bool stop_decided_ = false;
  bool window_open_ = false;
  bool finished_ = false;
  bool aborted_ = false;
  std::string error_;
  Clock::time_point window_start_, last_fetch_;
  std::vector<std::string> mismatches_;
  std::vector<double> publish_ms_;
  std::vector<double> published_at_s_;
  std::map<uint32_t, std::pair<HostCpu, HostCpu>> epoch_host_cpu_;
  u64 attempted_ = 0, nacks_ = 0, timeouts_ = 0, resets_ = 0, missing_ = 0;
  u64 measured_sent_ = 0, measured_blob_bytes_ = 0;
};

}  // namespace perfbench
