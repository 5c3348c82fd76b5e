// Per-layer costs for the traced run, timed from the benchmark's own code
// by calling each module's public functions on the workload's inputs:
//
//   micro()   one public call per layer (field, poly, crypto, share, core,
//             snip, net, store), repeated over trials; each number is the
//             median of the trials' per-call means.
//   replay()  the same submissions the live run sent, through three
//             ServerNodes on a LoopbackMesh (one thread per node), each
//             with its own EpochStore on the data-dir filesystem -- the
//             server and store layers, timed per call with the calling
//             thread's CPU clock next to wall time, and checked against
//             the plaintext oracle.
#pragma once

#include <sys/stat.h>

#include <thread>

#include "net/tcp_transport.h"
#include "net/transport.h"
#include "poly/ntt.h"
#include "server/node.h"
#include "spans.h"
#include "store/recovery.h"
#include "store/wal.h"
#include "workload.h"

namespace perfbench {

// Runs `op(i)` for i = 0, 1, ... in `trials` trials of at least
// `min_trial_s` each; returns the per-call time in ns, summarized over the
// trials' means.
template <typename Op>
Summary time_per_call_ns(Op&& op, size_t trials = 7, double min_trial_s = 0.01) {
  std::vector<double> per_call;
  size_t i = 0;
  op(i++);  // warm caches and lazy set-up outside the trials
  for (size_t t = 0; t < trials; ++t) {
    size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      for (size_t k = 0; k < 8; ++k, ++calls) op(i++);
      elapsed = seconds_between(t0, Clock::now());
    } while (elapsed < min_trial_s);
    per_call.push_back(elapsed * 1e9 / static_cast<double>(calls));
  }
  return summarize(std::move(per_call));
}

inline Summary scaled(Summary s, double k) {
  s.median *= k;
  s.q1 *= k;
  s.q3 *= k;
  return s;
}

inline void sink(u64 v) {
  static volatile u64 g_sink = 0;
  g_sink = g_sink + v;
}

template <typename Afe>
MetricMap micro_layers(const Afe& afe, const Pool<Afe>& pool, u64 seed,
                       size_t epoch_size, const std::string& echo_host, u16 echo_port,
                       const std::string& scratch_dir) {
  MetricMap m;
  const auto& circuit = afe.valid_circuit();
  const prio::SnipLayout lay = prio::SnipLayout::for_circuit_dims(
      circuit.num_inputs(), circuit.num_mul_gates());
  prio::SecureRng rng(mix(seed, 0x1a7e5));
  auto random_vec = [&](size_t n) {
    std::vector<F> v(n);
    for (auto& x : v) x = rng.field_element<F>();
    return v;
  };
  const size_t q = pool.honest.size();

  // field: the evaluate-at-r inner product over the h table.
  {
    const auto a = random_vec(lay.h_len), b = random_vec(lay.h_len);
    auto s = time_per_call_ns([&](size_t) {
      sink(prio::kernels::inner_product<F>(a, b).to_u64());
    });
    put(m, "field.inner_product_ns_per_elem",
        scaled(s, 1.0 / static_cast<double>(lay.h_len)), "ns");
  }
  // poly: forward + inverse NTT at the proof's 2N domain.
  {
    prio::NttDomain<F> dom(lay.h_len);
    auto v = random_vec(lay.h_len);
    auto s = time_per_call_ns([&](size_t) {
      dom.forward(v);
      dom.inverse(v);
    });
    sink(v[0].to_u64());
    put(m, "poly.ntt_us_per_call", scaled(s, 1e-3), "us");
  }
  // crypto: AEAD open of the explicit share's size.
  {
    std::vector<u8> key(32), nonce(12);
    rng.fill(key);
    rng.fill(nonce);
    const auto ct = prio::Aead::seal(key, nonce, {}, pool.honest[0].payloads[2]);
    auto s = time_per_call_ns([&](size_t) {
      auto pt = prio::Aead::open(key, nonce, {}, ct);
      sink(pt ? pt->size() : 0);
    });
    put(m, "crypto.aead_open_ns_per_byte",
        scaled(s, 1.0 / static_cast<double>(ct.size())), "ns");
  }
  // share: PRG expansion of one seed share into the extended length.
  {
    std::vector<F> out(lay.total_len());
    auto s = time_per_call_ns([&](size_t i) {
      const auto& p = pool.honest[i % q].payloads[0];
      prio::expand_share_seed_into<F>(std::span<const u8>(p.data() + 1, 32),
                                      std::span<F>(out));
      sink(out[0].to_u64());
    });
    put(m, "share.expand_us_per_sub", scaled(s, 1e-3), "us");
  }
  // core: open + decode of a sealed share, explicit (last server) and seed.
  prio::SubmissionSealer sealer(prio::master_seed_bytes(kMasterSeed));
  {
    std::vector<F> out(lay.total_len());
    auto s = time_per_call_ns([&](size_t i) {
      const auto& up = pool.honest[i % q];
      sink(prio::open_sealed_share_into<F>(sealer, up.cid, 2, up.blobs[2],
                                           std::span<F>(out)));
    });
    put(m, "core.open_share_us_per_sub.explicit", scaled(s, 1e-3), "us");
    s = time_per_call_ns([&](size_t i) {
      const auto& up = pool.honest[i % q];
      const size_t j = i % 2;
      sink(prio::open_sealed_share_into<F>(sealer, up.cid, j, up.blobs[j],
                                           std::span<F>(out)));
    });
    put(m, "core.open_share_us_per_sub.seed", scaled(s, 1e-3), "us");
  }
  // snip: local check, sigma + accept, and the client's proof.
  {
    const size_t k = std::min<size_t>(q, 64);
    prio::VerificationContext<F> ctx(&circuit, 3, mix(seed, 0xc7c));
    std::vector<std::array<std::vector<F>, 3>> ext(k);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < 3; ++j) {
        auto sh = prio::open_sealed_share<F>(sealer, pool.honest[i].cid, j,
                                             pool.honest[i].blobs[j],
                                             lay.total_len());
        prio::require(sh.has_value(), "micro: pool share does not open");
        ext[i][j] = std::move(*sh);
      }
    }
    prio::SnipVerifier<F> verifier(&circuit);
    auto s = time_per_call_ns([&](size_t i) {
      const size_t j = i % 3;
      sink(verifier.local_check(ctx, j, ext[(i / 3) % k][j]).d_share.to_u64());
    });
    put(m, "snip.local_check_us_per_sub", scaled(s, 1e-3), "us");

    std::vector<std::array<prio::SnipLocalState<F>, 3>> st(k);
    std::vector<std::pair<F, F>> de(k);
    for (size_t i = 0; i < k; ++i) {
      F d = F::zero(), e = F::zero();
      for (size_t j = 0; j < 3; ++j) {
        st[i][j] = verifier.local_check(ctx, j, ext[i][j]);
        d += st[i][j].d_share;
        e += st[i][j].e_share;
      }
      de[i] = {d, e};
    }
    size_t rejected = 0;
    s = time_per_call_ns([&](size_t i) {
      const size_t v = i % k;
      F sigma = F::zero(), out = F::zero();
      for (size_t j = 0; j < 3; ++j) {
        sigma += prio::snip_sigma_share(ctx, st[v][j], de[v].first, de[v].second);
        out += st[v][j].out_combo;
      }
      rejected += prio::snip_accept(sigma, out) ? 0 : 1;
    });
    prio::require(rejected == 0, "micro: an honest pool upload failed its SNIP");
    put(m, "snip.sigma_us_per_sub", scaled(s, 1e-3), "us");

    prio::SnipProver<F> prover(&circuit);
    s = time_per_call_ns([&](size_t i) {
      const auto& enc = pool.honest[i % q].encoding;
      sink(prover.build_extended_input(std::span<const F>(enc), rng)[0].to_u64());
    });
    put(m, "snip.prove_us_per_sub", scaled(s, 1e-3), "us");
  }
  // net: one intake-sized frame out, one ack-sized frame back, over a
  // loopback FramedConn.
  {
    Frames frames = seal_item(sealer, pool, Item{});
    prio::net::TcpListener listener(echo_port, echo_host);
    std::thread echo([&] {
      auto sock = listener.accept_conn(10'000);
      if (!sock) return;
      prio::net::FramedConn conn(std::move(*sock));
      const std::vector<u8> ack = {prio::server::kSubmitAck, 1};
      try {
        for (;;) {
          auto f = conn.try_recv_frame(10'000);
          if (!f) return;
          conn.send_frame(ack);
        }
      } catch (const prio::net::TransportError&) {
      }
    });
    {
      prio::net::FramedConn conn(
          prio::net::connect_tcp(echo_host, echo_port, 10'000));
      auto s = time_per_call_ns([&](size_t) {
        conn.send_frame(frames[2]);
        sink(conn.recv_frame(10'000).size());
      });
      put(m, "net.frame_rtt_us", scaled(s, 1e-3), "us");
      conn.shutdown_rw();
    }
    echo.join();
  }
  // store: fsync of one epoch's intake records, per server.
  {
    std::vector<double> sync_ms;
    for (size_t t = 0; t < 3; ++t) {
      for (size_t j = 0; j < 3; ++j) {
        const std::string dir = scratch_dir + "/fsync-" + std::to_string(t) +
                                "-" + std::to_string(j);
        ::mkdir(dir.c_str(), 0777);
        prio::store::WalWriter wal(dir, 0, prio::store::FsyncPolicy::kEpoch);
        for (size_t i = 0; i < epoch_size; ++i) {
          const auto& up = pool.honest[i % q];
          prio::net::Writer w;  // EpochStore::append_intake's record body
          w.u64_(up.cid);
          w.u64_(0);
          w.bytes(up.blobs[j]);
          wal.append(prio::store::kWalIntake, w.data());
        }
        const auto t0 = Clock::now();
        prio::require(wal.sync(), "micro: WAL sync failed");
        sync_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      }
    }
    put(m, "store.fsync_ms", summarize(sync_ms), "ms");
  }
  return m;
}

// Per-node accumulators of the replay, in ns.
struct ReplayCosts {
  double intake_wall = 0, intake_cpu = 0;
  double prepare_wall = 0, prepare_cpu = 0;
  double rounds_wall = 0, rounds_cpu = 0;
  double commit_wall = 0, commit_cpu = 0;
  double publish_wall = 0, publish_cpu = 0;
  double rotate_wall = 0, rotate_cpu = 0;
  size_t subs = 0, batches = 0, epochs = 0;
};

struct ReplayResult {
  ReplayCosts node[kServers];
  std::vector<std::string> mismatches;
};

// Replays epochs 0..epochs-1 of the workload's plan (the live run's exact
// frames) through three in-process nodes.
template <typename Afe>
ReplayResult replay(const Afe& afe, const Pool<Afe>& pool, const Workload& wl,
                    u64 seed, size_t epochs, size_t batch,
                    const std::string& data_dir, SpanLog* spans) {
  ReplayResult res;
  Planner<Afe> planner(&afe, &pool, wl.epoch_size, seed);
  prio::SubmissionSealer sealer(prio::master_seed_bytes(kMasterSeed));
  std::vector<EpochPlan> plans;
  std::vector<std::vector<Frames>> frames(epochs);
  for (size_t e = 0; e < epochs; ++e) {
    plans.push_back(planner.next());
    for (const Item& it : plans.back().items) {
      frames[e].push_back(seal_item(sealer, pool, it));
    }
  }
  const size_t E = wl.epoch_size;

  prio::net::LoopbackMesh mesh(kServers, 60'000, 1);
  std::vector<std::unique_ptr<prio::net::LoopbackTransport>> transports;
  std::vector<std::unique_ptr<prio::ServerNode<F, Afe>>> nodes;
  std::vector<std::unique_ptr<prio::store::EpochStore>> stores;
  ::mkdir(data_dir.c_str(), 0777);
  for (size_t i = 0; i < kServers; ++i) {
    transports.push_back(std::make_unique<prio::net::LoopbackTransport>(&mesh, i));
    prio::ServerNodeConfig cfg;
    cfg.num_servers = kServers;
    cfg.self = i;
    cfg.master_seed = kMasterSeed;
    cfg.batch_threads = 1;
    nodes.push_back(std::make_unique<prio::ServerNode<F, Afe>>(
        &afe, cfg, transports.back().get()));
    stores.push_back(std::make_unique<prio::store::EpochStore>(
        data_dir + "/s" + std::to_string(i), prio::store::FsyncPolicy::kEpoch));
    stores.back()->open_segment(0);
  }

  std::mutex mu;  // guards res.mismatches
  auto node_thread = [&](size_t me) {
    auto& node = *nodes[me];
    auto& store = *stores[me];
    ReplayCosts& c = res.node[me];
    std::vector<Span>* buf = spans ? spans->buffer() : nullptr;
    u64 batch_no = 0;
    for (size_t e = 0; e < epochs; ++e) {
      const u64 epoch_id = (static_cast<u64>(e) << 2) | me;
      const long long epoch_t0 = ns_of(Clock::now());
      for (size_t off = 0; off < E; off += batch, ++batch_no) {
        const size_t n = std::min(batch, E - off);
        const u64 batch_id = (batch_no << 2) | me;
        const auto batch_key = span_key(SpanName::kReplayBatch, batch_id);
        const long long batch_t0 = ns_of(Clock::now());
        std::vector<prio::SubmissionShare> shares(n);
        std::vector<std::pair<u64, u64>> ids(n);
        for (size_t v = 0; v < n; ++v) {
          const size_t i = off + v;
          prio::net::Reader r(frames[e][i][me]);
          r.u8_();
          shares[v].client_id = r.u64_();
          shares[v].blob = r.bytes();
          prio::net::Reader seq_r(shares[v].blob);
          ids[v] = {shares[v].client_id, seq_r.u64_()};
          const auto w0 = Clock::now();
          const long long c0 = thread_cpu_ns();
          prio::require(store.append_intake(ids[v].first, ids[v].second,
                                            shares[v].blob),
                        "replay: WAL refused an intake record");
          const long long c1 = thread_cpu_ns();
          const auto w1 = Clock::now();
          c.intake_cpu += static_cast<double>(c1 - c0);
          c.intake_wall += static_cast<double>(ns_of(w1) - ns_of(w0));
          SpanLog::record(buf, SpanName::kAppendIntake,
                          ((static_cast<u64>(e) * E + i) << 2) | me, batch_key,
                          ns_of(w0), ns_of(w1));
        }
        c.subs += n;
        prio::PreparedBatch<F> prep;
        auto timed = [&](SpanName name, double& wall, double& cpu, auto&& fn) {
          const auto w0 = Clock::now();
          const long long c0 = thread_cpu_ns();
          fn();
          const long long c1 = thread_cpu_ns();
          const auto w1 = Clock::now();
          cpu += static_cast<double>(c1 - c0);
          wall += static_cast<double>(ns_of(w1) - ns_of(w0));
          SpanLog::record(buf, name, batch_id, batch_key, ns_of(w0), ns_of(w1));
        };
        std::vector<u8> verdicts;
        timed(SpanName::kPrepareBatch, c.prepare_wall, c.prepare_cpu,
              [&] { node.prepare_batch(shares, prep); });
        timed(SpanName::kCommitOrRollback, c.rounds_wall, c.rounds_cpu,
              [&] { verdicts = node.commit_or_rollback(shares, prep); });
        timed(SpanName::kAppendBatch, c.commit_wall, c.commit_cpu, [&] {
          store.append_batch(std::span<const std::pair<u64, u64>>(ids),
                             std::span<const u8>(verdicts));
        });
        ++c.batches;
        SpanLog::record(buf, SpanName::kReplayBatch, batch_id,
                        span_key(SpanName::kReplayEpoch, epoch_id), batch_t0,
                        ns_of(Clock::now()));
      }
      const auto epoch_key = span_key(SpanName::kReplayEpoch, epoch_id);
      std::optional<typename prio::ServerNode<F, Afe>::EpochAggregate> agg;
      {
        const auto w0 = Clock::now();
        const long long c0 = thread_cpu_ns();
        // The epoch-close record the runtime writes at the commit point.
        agg = node.publish_epoch([&](const auto* a) {
          if (a) {
            prio::net::Writer sig;
            sig.field_vector<F>(std::span<const F>(a->sigma));
            store.append_epoch_close(a->epoch, a->accepted, sig.data());
          } else {
            store.append_epoch_close(node.epoch(), node.accepted(), {});
          }
        });
        const long long c1 = thread_cpu_ns();
        const auto w1 = Clock::now();
        c.publish_cpu += static_cast<double>(c1 - c0);
        c.publish_wall += static_cast<double>(ns_of(w1) - ns_of(w0));
        SpanLog::record(buf, SpanName::kPublishEpoch, epoch_id, epoch_key,
                        ns_of(w0), ns_of(w1));
      }
      {
        const auto w0 = Clock::now();
        const long long c0 = thread_cpu_ns();
        const std::vector<u8> snap = node.snapshot();
        store.rotate(node.epoch(), snap);
        const long long c1 = thread_cpu_ns();
        const auto w1 = Clock::now();
        c.rotate_cpu += static_cast<double>(c1 - c0);
        c.rotate_wall += static_cast<double>(ns_of(w1) - ns_of(w0));
        SpanLog::record(buf, SpanName::kRotate, epoch_id, epoch_key, ns_of(w0),
                        ns_of(w1));
      }
      ++c.epochs;
      SpanLog::record(buf, SpanName::kReplayEpoch, epoch_id, 0, epoch_t0,
                      ns_of(Clock::now()));
      if (agg) {
        Published pub{agg->accepted, agg->sigma,
                      prio::afe::result_bytes(afe, agg->result)};
        const std::string bad = oracle_mismatch(plans[e].expected, pub);
        if (!bad.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          res.mismatches.push_back("replay epoch " + std::to_string(e) + ": " +
                                   bad);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(kServers);
  for (size_t i = 0; i < kServers; ++i) {
    threads.emplace_back([&, i] {
      try {
        node_thread(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  return res;
}

}  // namespace perfbench
