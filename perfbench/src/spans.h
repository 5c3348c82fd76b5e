// In-memory span recorder for the traced run.
//
// A span is (name, id, parent, start, end). The id names the work item the
// span covers -- a submission's global index, an epoch number, or a replay
// batch -- so spans from the live run and from the in-process replay of the
// same submissions join on it. Every thread appends to its own buffer (no
// lock on the hot path); buffers are merged once, at the end, to compute
// self time per span name and to write the spans out.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util.h"

namespace perfbench {

enum class SpanName : unsigned char {
  kNone,           // never recorded: key 0 means "no parent"
  kEpoch,          // live: first send of an epoch .. its aggregate fetched
  kSubmit,         // live: due time .. last of the three intake acks
  kGateWait,       // live: due time .. the epoch window let it go
  kAck0,           // live: send .. ack, per server
  kAck1,
  kAck2,
  kPublish,        // live: last ack of the epoch .. aggregate returned
  kReplayEpoch,    // replay: one node's epoch
  kReplayBatch,    // replay: one node's batch
  kAppendIntake,   // EpochStore::append_intake
  kPrepareBatch,   // ServerNode::prepare_batch
  kCommitOrRollback,  // ServerNode::commit_or_rollback
  kAppendBatch,    // EpochStore::append_batch
  kPublishEpoch,   // ServerNode::publish_epoch
  kRotate,         // ServerNode::snapshot + EpochStore::rotate
  kCount
};

inline const char* span_name(SpanName n) {
  static const char* const kNames[] = {
      "none",          "epoch",         "submit",        "gate_wait",
      "ack_s0",        "ack_s1",        "ack_s2",
      "publish",       "replay_epoch",  "replay_batch",
      "append_intake", "prepare_batch", "commit_or_rollback",
      "append_batch",  "publish_epoch", "rotate"};
  return kNames[static_cast<size_t>(n)];
}

// A span's identity: its name in the top byte, the work-item id below.
inline unsigned long long span_key(SpanName n, unsigned long long id) {
  return (static_cast<unsigned long long>(n) << 56) | (id & ((1ULL << 56) - 1));
}

struct Span {
  unsigned long long key = 0;     // span_key(name, id)
  unsigned long long parent = 0;  // parent's key; 0 = root
  long long t0 = 0, t1 = 0;       // steady-clock ns
};

class SpanLog {
 public:
  // Per-thread buffer; the pointer stays valid for the log's lifetime.
  std::vector<Span>* buffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 16);
    return buffers_.back().get();
  }

  static void record(std::vector<Span>* buf, SpanName name,
                     unsigned long long id, unsigned long long parent,
                     long long t0, long long t1) {
    if (buf) buf->push_back(Span{span_key(name, id), parent, t0, t1});
  }

  std::vector<Span> merged() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
    return out;
  }

  // Mean self time per span name, in microseconds: a span's duration minus
  // the part of its interval covered by its children.
  static std::map<std::string, std::pair<double, size_t>> self_time_us(
      const std::vector<Span>& spans) {
    std::unordered_map<unsigned long long, std::vector<std::pair<long long, long long>>>
        children;
    for (const Span& s : spans) {
      if (s.parent) children[s.parent].push_back({s.t0, s.t1});
    }
    std::map<std::string, std::pair<double, size_t>> out;  // sum us, count
    for (const Span& s : spans) {
      long long covered = 0;
      auto it = children.find(s.key);
      if (it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        long long cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.t0);
          hi = std::min(hi, s.t1);
          if (hi <= lo) continue;
          if (lo > cur_hi) {
            if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      }
      auto& slot = out[span_name(static_cast<SpanName>(s.key >> 56))];
      slot.first += static_cast<double>(s.t1 - s.t0 - covered) / 1e3;
      slot.second += 1;
    }
    for (auto& [name, slot] : out) {
      if (slot.second) slot.first /= static_cast<double>(slot.second);
    }
    return out;
  }

  // One line per span: name,id,parent_name,parent_id,start_ns,end_ns.
  static void write_csv(const std::vector<Span>& spans,
                        const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "name,id,parent_name,parent_id,start_ns,end_ns\n");
    for (const Span& s : spans) {
      const auto name = static_cast<SpanName>(s.key >> 56);
      const unsigned long long id = s.key & ((1ULL << 56) - 1);
      if (s.parent) {
        std::fprintf(f, "%s,%llu,%s,%llu,%lld,%lld\n", span_name(name), id,
                     span_name(static_cast<SpanName>(s.parent >> 56)),
                     s.parent & ((1ULL << 56) - 1), s.t0, s.t1);
      } else {
        std::fprintf(f, "%s,%llu,,,%lld,%lld\n", span_name(name), id, s.t0,
                     s.t1);
      }
    }
    std::fclose(f);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

}  // namespace perfbench
