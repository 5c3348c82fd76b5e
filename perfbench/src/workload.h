// Workloads, their seeded inputs, and the plaintext oracle.
//
// Inputs. A workload's traffic is a pool of distinct client uploads
// (PrioClient::upload on seeded inputs; the time spent there is the
// client-cost metric) that a planner deals out to a fixed client
// population, epoch by epoch, as a deterministic function of the seed:
//
//   * honest submissions: a population client's next sequence number
//     carrying one pool upload's per-server shares, sealed for that
//     (client, sequence number);
//   * tampered (5%): half with one ciphertext byte flipped in one server's
//     blob (that server cannot open it), half carrying a SNIP proof of an
//     encoding Valid rejects;
//   * replayed (10%, from epoch 2 on): byte-identical resends of honest
//     submissions two epochs back, whose aggregate the generator has
//     already fetched, so the replay floor -- never intake dedup -- is what
//     must reject them.
//
// Every client submits at most once per epoch, so the replay floor's
// per-client ordering never depends on how the servers batch an epoch.
//
// Oracle. An epoch's expected aggregate is the AFE decode of the sum of
// its honest submissions' plaintext encodings, computed here from
// Afe::encode in integers. It shares no code with Aead, SnipVerifier,
// ServerNode or PrioDeployment.
#pragma once

#include <array>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "afe/registry.h"
#include "core/client.h"
#include "core/submission.h"
#include "server/protocol.h"
#include "util.h"

namespace perfbench {

using F = prio::Fp64;

// The deployment's master seed. prio_server's default, so the servers need
// no flag for it; the generator seals with the same secret.
inline constexpr u64 kMasterSeed = 1;

struct Workload {
  const char* name;
  const char* afe;          // runtime AFE spec (afe/registry.h)
  bool open_loop;
  double rate_hz;           // open loop: fixed Poisson arrival rate
  size_t epoch_size;        // --epoch-size: submissions per epoch
  size_t pool;              // distinct client uploads dealt out
  const char* fault_plan;   // --fault-plan for every server, or ""
  size_t replay_epochs;     // traced run: epochs replayed in-process
};

// The rate of steady-open is fixed here, below the knee measured on a
// 4-core host; it is never derived at run time. The wan-rounds delay count
// exceeds the mesh sends of any run.
inline const Workload kWorkloads[] = {
    {"ingest-short", "bitvec_sum:len=32", false, 0, 2048, 1024, "", 4},
    {"survey-wide", "bitvec_sum:len=1024", false, 0, 512, 256, "", 4},
    {"steady-open", "countmin:w=64,d=3", true, 2000, 128, 512, "", 8},
    {"wan-rounds", "bitvec_sum:len=32", false, 0, 2048, 1024,
     "mesh_send:delay:count=1000000000,ms=2", 4},
};

inline const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

inline u64 mix(u64 a, u64 b) { return prio::afe::sample_mix(a * 0x9e3779b97f4a7c15ull ^ b); }

// The fraction of a run's submissions of each kind.
inline constexpr double kTamperFrac = 0.05;
inline constexpr double kReplayFrac = 0.10;
// Epochs before the measured window. Replays start at epoch 2, so the
// window sees the full traffic mix from its first epoch.
inline constexpr size_t kWarmupEpochs = 2;

// Distinct client uploads, opened back into their per-server plaintext
// shares so the planner can seal them for any (client, sequence number).
template <typename Afe>
struct Pool {
  struct Upload {
    u64 cid = 0;                                // client id it was made for
    std::array<std::vector<u8>, 3> blobs;       // PrioClient::upload output
    std::array<std::vector<u8>, 3> payloads;    // opened per-server shares
    std::vector<F> encoding;                    // Afe::encode of the input
  };
  std::vector<Upload> honest;
  std::vector<Upload> invalid;  // proofs of encodings Valid rejects

  Pool(const Afe& afe, size_t size, u64 seed) {
    prio::PrioClient<F, Afe> client(&afe, 3, kMasterSeed);
    prio::SubmissionSealer opener(prio::master_seed_bytes(kMasterSeed));
    prio::SecureRng rng(mix(seed, 0xc11e47));
    auto open_all = [&](Upload& u) {
      for (size_t j = 0; j < 3; ++j) {
        auto pt = opener.open(u.cid, j, u.blobs[j]);
        prio::require(pt.has_value(), "pool: own upload does not open");
        u.payloads[j] = std::move(*pt);
      }
    };
    honest.resize(size);
    for (size_t i = 0; i < size; ++i) {
      Upload& u = honest[i];
      u.cid = mix(seed, 0x9001) ^ i;
      const auto input = prio::afe::sample_input(afe, mix(seed, i));
      auto blobs = client.upload(input, u.cid, rng);
      for (size_t j = 0; j < 3; ++j) u.blobs[j] = std::move(blobs[j]);
      u.encoding = afe.encode(input);
      open_all(u);
    }
    prio::SnipProver<F> prover(&afe.valid_circuit());
    invalid.resize(16);
    for (size_t i = 0; i < invalid.size(); ++i) {
      Upload& u = invalid[i];
      u.cid = mix(seed, 0xbad) ^ i;
      u.encoding = afe.encode(prio::afe::sample_input(afe, mix(seed, ~i)));
      u.encoding[0] += F::one() + F::one();  // no longer 0/1: Valid fails
      const auto ext =
          prover.build_extended_input(std::span<const F>(u.encoding), rng);
      auto blobs = prio::seal_shared_vector<F>(
          opener, std::span<const F>(ext), 3, u.cid, 0, rng);
      for (size_t j = 0; j < 3; ++j) u.blobs[j] = std::move(blobs[j]);
      open_all(u);
    }
  }
};

enum class Kind : u8 { kHonest, kTamperAead, kTamperSnip, kReplay };

struct Item {
  Kind kind = Kind::kHonest;
  u64 cid = 0;
  u64 seq = 0;
  uint32_t payload = 0;  // index into Pool::honest (Pool::invalid for kTamperSnip)
};

// What the plaintext oracle expects an epoch to publish.
struct Expected {
  u64 accepted = 0;
  std::vector<u64> sigma;     // per aggregated coordinate
  std::vector<u8> result;     // afe::result_bytes of the decode
};

struct EpochPlan {
  std::vector<Item> items;
  Expected expected;
};

// Deals the pool out to the population, one epoch at a time. Epoch e's
// plan depends only on the seed and epochs < e, so the same seed yields the
// same traffic however many epochs a run ends up sending.
template <typename Afe>
class Planner {
 public:
  Planner(const Afe* afe, const Pool<Afe>* pool, size_t epoch_size, u64 seed)
      : afe_(afe), pool_(pool), epoch_size_(epoch_size), seed_(seed),
        next_seq_(epoch_size, 0) {}

  // Builds the next epoch's plan. Keeps the two previous plans (replays
  // draw from epoch e-2).
  const EpochPlan& next() {
    const size_t e = plans_built_++;
    const size_t n = epoch_size_;
    std::mt19937_64 rng(mix(seed_, 0xe90c0000 + e));
    const size_t n_replay =
        e >= 2 ? static_cast<size_t>(std::lround(kReplayFrac * n)) : 0;
    const size_t n_fresh = n - n_replay;
    const size_t n_tamper = static_cast<size_t>(std::lround(kTamperFrac * n));
    std::vector<size_t> clients(n);
    for (size_t i = 0; i < n; ++i) clients[i] = i;
    std::shuffle(clients.begin(), clients.end(), rng);

    EpochPlan plan;
    plan.items.reserve(n);
    for (size_t k = 0; k < n_fresh; ++k) {
      Item it;
      const size_t c = clients[k];
      it.cid = client_id(c);
      it.seq = next_seq_[c]++;
      if (k < n_tamper) {
        it.kind = k % 2 == 0 ? Kind::kTamperAead : Kind::kTamperSnip;
      }
      it.payload = static_cast<uint32_t>(
          rng() % (it.kind == Kind::kTamperSnip ? pool_->invalid.size()
                                                : pool_->honest.size()));
      plan.items.push_back(it);
    }
    if (n_replay > 0) {
      const EpochPlan& src = history_[0];  // epoch e-2
      std::vector<size_t> honest;
      for (size_t i = 0; i < src.items.size(); ++i) {
        if (src.items[i].kind == Kind::kHonest) honest.push_back(i);
      }
      prio::require(honest.size() >= n_replay, "planner: too few originals");
      std::shuffle(honest.begin(), honest.end(), rng);
      for (size_t k = 0; k < n_replay; ++k) {
        Item it = src.items[honest[k]];
        it.kind = Kind::kReplay;
        plan.items.push_back(it);
      }
    }
    std::shuffle(plan.items.begin(), plan.items.end(), rng);
    plan.expected = expect(plan.items);
    history_[0] = std::move(history_[1]);
    history_[1] = plan;
    return history_[1];
  }

  size_t epoch_size() const { return epoch_size_; }

 private:
  u64 client_id(size_t c) const { return mix(seed_, 0xc0ffee) ^ c; }

  // The oracle: integer sums of the honest plaintext encodings, decoded.
  Expected expect(const std::vector<Item>& items) const {
    Expected ex;
    const size_t kp = afe_->k_prime();
    ex.sigma.assign(kp, 0);
    for (const Item& it : items) {
      if (it.kind != Kind::kHonest) continue;
      ++ex.accepted;
      const auto& enc = pool_->honest[it.payload].encoding;
      for (size_t c = 0; c < kp; ++c) ex.sigma[c] += enc[c].to_u64();
    }
    std::vector<F> sigma_f(kp);
    for (size_t c = 0; c < kp; ++c) sigma_f[c] = F::from_u64(ex.sigma[c]);
    ex.result = prio::afe::result_bytes(
        *afe_, afe_->decode(std::span<const F>(sigma_f), ex.accepted));
    return ex;
  }

  const Afe* afe_;
  const Pool<Afe>* pool_;
  size_t epoch_size_;
  u64 seed_;
  std::vector<u64> next_seq_;
  size_t plans_built_ = 0;
  EpochPlan history_[2];
};

// The three per-server intake frames (kClientSubmit bodies) of one item.
using Frames = std::array<std::vector<u8>, 3>;

template <typename Afe>
Frames seal_item(const prio::SubmissionSealer& sealer, const Pool<Afe>& pool,
                 const Item& it) {
  // A replay is byte-identical to its (honest) original.
  const auto& up = it.kind == Kind::kTamperSnip ? pool.invalid[it.payload]
                                                : pool.honest[it.payload];
  Frames out;
  for (size_t j = 0; j < 3; ++j) {
    std::vector<u8> blob = sealer.seal(it.cid, j, it.seq, up.payloads[j]);
    if (it.kind == Kind::kTamperAead && j == it.cid % 3) {
      blob[12] ^= 1;  // inside the AEAD ciphertext (after the 8-byte seq)
    }
    prio::net::Writer w;
    w.u8_(prio::server::kClientSubmit);
    w.u64_(it.cid);
    w.bytes(blob);
    out[j] = w.take();
  }
  return out;
}

// What server 0 published for an epoch, as fetched over kGetAggregate.
struct Published {
  u64 accepted = 0;
  std::vector<F> sigma;
  std::vector<u8> result;
};

// The oracle gate: "" when the publication matches the expectation
// bit for bit, otherwise a description of the first difference.
inline std::string oracle_mismatch(const Expected& ex, const Published& got) {
  if (got.accepted != ex.accepted) {
    return "accepted " + std::to_string(got.accepted) + " != expected " +
           std::to_string(ex.accepted);
  }
  if (got.sigma.size() != ex.sigma.size()) return "sigma length differs";
  for (size_t c = 0; c < ex.sigma.size(); ++c) {
    if (got.sigma[c].to_u64() != ex.sigma[c]) {
      return "sigma[" + std::to_string(c) + "] " +
             std::to_string(got.sigma[c].to_u64()) + " != expected " +
             std::to_string(ex.sigma[c]);
    }
  }
  if (got.result != ex.result) return "decoded result bytes differ";
  return "";
}

}  // namespace perfbench
