#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "fixtures/synthetic.h"

namespace perfbench {

using ufilter::net::Verdict;

namespace {

const WorkloadSpec kWorkloads[] = {
    // Plan-cache hits and tiny probes: the wire, the admission queue and
    // the snapshot pin dominate.
    {"hot_small", /*depth=*/3, /*rows=*/64, /*check_rate=*/4000,
     /*apply_rate=*/200, /*concurrent_applies=*/false, /*hot_texts=*/32,
     /*check_limit_us=*/5000, 0.30, 0.40, 0.30,
     /*trace_checks=*/10000, /*trace_applies=*/200},
    // Every text distinct: every request compiles, probes do O(rows) work.
    {"cold_large", 4, 5000, 300, 200, false, 0, 50000, 0.50, 0.25, 0.25, 500,
     200},
    // Reads beside writes, with a follower applying the epoch stream.
    {"mixed_replicated", 4, 2000, 300, 100, true, 32, 10000, 0.60, 0.40, 0.0,
     1000, 300},
};

std::string Lvl(int i) { return std::to_string(i); }

/// INSERT of an <e{level}> under the element of level-1 whose key is
/// `anchor_key` (under the root for level 0). `key` < 0 leaves the key out.
std::string ChainInsertUpdate(int level, int64_t anchor_key, int64_t key,
                              const std::string& value) {
  std::string stmt = "FOR $root IN document(\"V.xml\")";
  std::string parent = "root";
  for (int i = 0; i < level; ++i) {
    stmt += ",\n    $e" + Lvl(i) + " IN $" + parent + "/e" + Lvl(i);
    parent = "e" + Lvl(i);
  }
  if (level > 0) {
    stmt += "\nWHERE $e" + Lvl(level - 1) + "/k" + Lvl(level - 1) +
            "/text() = " + std::to_string(anchor_key);
  }
  const std::string l = Lvl(level);
  std::string body = "<e" + l + ">";
  if (key >= 0) body += "<k" + l + ">" + std::to_string(key) + "</k" + l + ">";
  body += "<v" + l + ">" + value + "</v" + l + "></e" + l + ">";
  return stmt + "\nUPDATE $" + parent + " {\n  INSERT " + body + "\n}";
}

}  // namespace

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kDeleteHit: return "delete_hit";
    case Kind::kDeleteMiss: return "delete_miss";
    case Kind::kReplaceHit: return "replace_hit";
    case Kind::kReplaceMiss: return "replace_miss";
    case Kind::kInsertDup: return "insert_dup";
    case Kind::kInsertKeyless: return "insert_keyless";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double LadderRate(const WorkloadSpec& w, int rung) {
  return w.check_rate *
         std::pow(2.0, static_cast<double>(rung) / kLadderStepsPerOctave);
}

RequestSource::RequestSource(const WorkloadSpec& w, uint64_t seed)
    : w_(w),
      check_rng_(seed * 0x9e3779b97f4a7c15ull + 1),
      apply_rng_(seed * 0xc2b2ae3d27d4eb4full + 2),
      seed_(seed) {
  if (w_.hot_texts > 0) {
    // 32 distinct texts over every level. The mix of kinds and levels is
    // the same for every seed (only the keys vary), so a seed changes the
    // inputs but not how much work they are: slots 0-2 are the off-path
    // kinds (~10%), the rest alternate DELETE and REPLACE level by level.
    const Kind off[] = {Kind::kReplaceMiss, Kind::kInsertDup,
                        Kind::kDeleteMiss};
    std::set<std::pair<int, int64_t>> used;
    for (int i = 0; i < w_.hot_texts; ++i) {
      const int level = i % w_.depth;
      const Kind kind = i < 3 ? off[i]
                        : (i / w_.depth) % 2 == 0 ? Kind::kDeleteHit
                                                  : Kind::kReplaceHit;
      int64_t key;
      if (kind == Kind::kDeleteMiss || kind == Kind::kReplaceMiss) {
        key = w_.rows + i;
      } else {
        do {
          key = static_cast<int64_t>(check_rng_() % w_.rows);
        } while (!used.insert({level, key}).second);
      }
      pool_.push_back(Build(kind, level, key, "h" + std::to_string(i)));
    }
    return;
  }
  order_.reserve(static_cast<size_t>(w_.depth) * w_.rows);
  for (int level = 0; level < w_.depth; ++level) {
    for (int64_t key = 0; key < w_.rows; ++key) order_.push_back({level, key});
  }
  std::shuffle(order_.begin(), order_.end(), check_rng_);
}

Request RequestSource::Build(Kind kind, int level, int64_t key,
                             const std::string& tag) {
  using ufilter::fixtures::ChainDeleteUpdate;
  using ufilter::fixtures::ChainReplaceUpdate;
  Request r;
  r.kind = kind;
  switch (kind) {
    case Kind::kDeleteHit:
      r.text = ChainDeleteUpdate(level, key);
      r.expect_rows = w_.depth - level;  // cascades one row per level below
      break;
    case Kind::kDeleteMiss:
      r.text = ChainDeleteUpdate(level, key);
      break;
    case Kind::kReplaceHit:
      r.text = ChainReplaceUpdate(level, key, "c" + tag);
      r.expect_rows = 1;
      break;
    case Kind::kReplaceMiss:
      r.text = ChainReplaceUpdate(level, key, "c" + tag);
      r.expect = Verdict::kDataConflict;
      break;
    case Kind::kInsertDup:
      r.text = ChainInsertUpdate(level, key, key, "d" + tag);
      r.expect = Verdict::kDataConflict;
      break;
    case Kind::kInsertKeyless:
      r.text = ChainInsertUpdate(level, key % w_.rows, -1, "n" + tag);
      r.expect = Verdict::kInvalid;
      break;
  }
  return r;
}

Request RequestSource::NextCheck() {
  if (!pool_.empty()) return pool_[check_rng_() % pool_.size()];
  // Distinct texts: the next unused (level, key); a second pass over the
  // pairs (only reached by very long runs) tags texts with the pass number.
  if (next_ == order_.size()) {
    next_ = 0;
    ++cycle_;
  }
  const auto [level, key] = order_[next_++];
  const std::string tag =
      std::to_string(cycle_) + "x" + std::to_string(next_);
  // 25% existing-key DELETEs, 65% REPLACEs, 10% off the path. Most
  // DELETEs cost 1-8 ms of probes, the other requests mostly under 0.3 ms;
  // with the cheap kinds a clear majority the median lands inside their
  // mode (each compiles, few probes) and the p99 inside the probe-bound
  // one, not in the gap between the two.
  const uint64_t pick = check_rng_() % 100;
  if (pick < 90) {
    return Build(pick < 25 ? Kind::kDeleteHit : Kind::kReplaceHit, level, key,
                 tag);
  }
  const int64_t missing =
      w_.rows + static_cast<int64_t>(cycle_ * order_.size() + next_);
  switch (pick % 4) {
    case 0: return Build(Kind::kDeleteMiss, level, missing, tag);
    case 1: return Build(Kind::kReplaceMiss, level, missing, tag);
    case 2: return Build(Kind::kInsertDup, level, key, tag);
    default: return Build(Kind::kInsertKeyless, level, key, tag);
  }
}

Request RequestSource::NextApply() {
  const int level = static_cast<int>(apply_rng_() % w_.depth);
  const int64_t key = static_cast<int64_t>(apply_rng_() % w_.rows);
  Request r = Build(Kind::kReplaceHit, level, key,
                    "a" + std::to_string(seed_) + "n" +
                        std::to_string(applies_++));
  r.apply = true;
  return r;
}

uint64_t StreamSeed(uint64_t seed, const char* stream) {
  uint64_t h = seed ^ 0x243f6a8885a308d3ull;  // FNV-1a over the name
  for (const char* p = stream; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint8_t>(*p)) * 0x100000001b3ull;
  }
  return h;
}

std::vector<int64_t> PoissonDueTimes(double rate, double duration_s,
                                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> due;
  due.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  double t = 0;
  for (;;) {
    // Inverse-CDF exponential gap; 53-bit uniform in (0, 1].
    const double u = (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= duration_s) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

}  // namespace perfbench
