// State-digest auditing: the correctness oracle for refactors of the simulation core.
//
// Every mutable subsystem (flash block states, FTL mapping tables, the zone table, host-FTL
// emulation state, zonefile extents, cache contents, LSM memtable/manifest, fleet placement)
// maintains an *order-independent running digest* of its state: each entry (a mapping slot, a
// block, a zone, ...) hashes to one 64-bit word, and the subsystem accumulator folds entry
// hashes with commutative operations (XOR and modular sum), so
//
//   * an insert/remove/replace costs O(1) — fold the old entry hash out, the new one in;
//   * the digest depends only on the *set* of live entries, never on mutation order — two
//     runs that arrive at the same state by different schedules (e.g. pre-crash vs
//     post-recovery) produce the same digest;
//   * two digests that differ prove the states differ (up to 128-bit collision odds).
//
// Digests are checkpointed into a per-subsystem timeline at configurable SimTime epochs
// (lazily: a checkpoint is sealed when the first mutation of a later epoch arrives, so
// untouched epochs cost nothing and the timeline stays sparse). `bench_main.h --audit <path>`
// enables the layer and writes the merged timeline as deterministic JSON lines plus final
// per-subsystem digests and a whole-run composite; tools/digest_bisect compares two such
// files and localizes the first divergent (epoch, subsystem) cell.
//
// Disabled-mode guarantees (the default): no registry rows ever (enabled or not — the digest
// timeline file is the only output), no effect on simulation state (the layer only observes),
// and one-branch hooks — layer call sites test `armed()` before computing entry hashes, so
// SimTime-domain output is byte-identical with auditing on, off, or absent.
//
// Determinism contract: entry hashes must be computed from simulation state only (indexes,
// SimTime values, stored sizes — never host pointers or wall time), and audit code must not
// iterate unordered containers (tools/lint.py `digest-order` rule): subsystems live in a
// name-sorted map and checkpoints in append-order vectors, so dumps are byte-stable.

#ifndef BLOCKHEAD_SRC_TELEMETRY_AUDIT_STATE_DIGEST_H_
#define BLOCKHEAD_SRC_TELEMETRY_AUDIT_STATE_DIGEST_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/types.h"

namespace blockhead {

// splitmix64 finalizer: the fixed 64-bit mixer under every entry hash. Public so tests can
// predict digests.
inline std::uint64_t AuditMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Hash of a word sequence, position-sensitive (chained mixing), for one entry's fields.
inline std::uint64_t AuditHashWords(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi fraction; any fixed odd seed works.
  for (std::uint64_t w : words) {
    h = AuditMix64(h ^ w);
  }
  return h;
}

// Hash of a byte string (names, keys), chained per 8-byte word.
std::uint64_t AuditHashBytes(std::string_view bytes);

// Histogram content hash (bucket counts + totals): two histograms that merged the same
// sample multiset in any order digest identically. Used by tests to pin fleet-aggregation
// stability; O(buckets).
std::uint64_t AuditHashHistogram(const Histogram& h);

// The order-independent accumulator value: XOR fold + modular-sum fold of live entry hashes.
// Two independent commutative folds make "two errors cancel" astronomically unlikely.
struct DigestValue {
  std::uint64_t fold_xor = 0;
  std::uint64_t fold_sum = 0;

  void Insert(std::uint64_t entry_hash) {
    fold_xor ^= entry_hash;
    fold_sum += entry_hash;
  }
  void Remove(std::uint64_t entry_hash) {
    fold_xor ^= entry_hash;
    fold_sum -= entry_hash;
  }
  bool operator==(const DigestValue&) const = default;

  // Fixed text form "xxxxxxxxxxxxxxxx.xxxxxxxxxxxxxxxx" (two 16-digit hex words).
  std::string ToHex() const;
};

struct AuditConfig {
  // Checkpoint epoch length in simulated time. Overridden by the
  // BLOCKHEAD_AUDIT_EPOCH_NS environment variable when set (deterministic: read once at
  // Enable, never the wall clock).
  SimTime epoch_ns = 10 * kMillisecond;
};

class StateAudit;

// Per-subsystem digest handle. Layers obtain one at AttachTelemetry via
// StateAudit::Register(name) and keep the raw pointer (stable for the audit's lifetime).
// All mutation hooks are gated on armed(): when auditing is off they cost one branch and
// touch nothing.
class SubsystemDigest {
 public:
  // True when the owning audit (or its delegation root) is enabled. Call sites test this
  // BEFORE computing entry hashes so disabled runs do zero hash work.
  bool armed() const;

  void Insert(SimTime t, std::uint64_t entry_hash) {
    if (armed()) {
      Checkpoint(t);
      value_.Insert(entry_hash);
      ++mutations_;
    }
  }
  void Remove(SimTime t, std::uint64_t entry_hash) {
    if (armed()) {
      Checkpoint(t);
      value_.Remove(entry_hash);
      ++mutations_;
    }
  }
  void Replace(SimTime t, std::uint64_t old_hash, std::uint64_t new_hash) {
    if (armed()) {
      Checkpoint(t);
      value_.Remove(old_hash);
      value_.Insert(new_hash);
      ++mutations_;
    }
  }

  const std::string& name() const { return name_; }
  const DigestValue& value() const { return value_; }
  std::uint64_t mutations() const { return mutations_; }

 private:
  friend class StateAudit;

  // One sealed epoch: the digest as of the END of `epoch` (no mutations happened between
  // this record's sealing and the next one's first mutation).
  struct Sealed {
    std::uint64_t epoch = 0;
    DigestValue value;
    std::uint64_t mutations = 0;  // Running mutation count at sealing.
  };

  explicit SubsystemDigest(StateAudit* owner, std::string name)
      : owner_(owner), name_(std::move(name)) {}

  // Seals pending epochs when `t` has crossed an epoch boundary since the last mutation.
  void Checkpoint(SimTime t);

  StateAudit* owner_;
  std::string name_;
  DigestValue value_;
  std::uint64_t mutations_ = 0;
  std::uint64_t epoch_ = 0;     // Epoch of the last mutation.
  bool touched_ = false;        // Any mutation recorded yet?
  std::vector<Sealed> sealed_;  // Ascending by epoch; sparse (mutated epochs only).
};

// The per-bundle audit layer. One per Telemetry; benches enable it for --audit.
class StateAudit {
 public:
  StateAudit() = default;
  StateAudit(const StateAudit&) = delete;
  StateAudit& operator=(const StateAudit&) = delete;
  ~StateAudit();

  // Turns auditing on (fresh digests) and fixes the epoch length. Reads the
  // BLOCKHEAD_AUDIT_EPOCH_NS override. Benches call this before attaching layers.
  void Enable(const AuditConfig& config = AuditConfig{});
  bool enabled() const { return root_ == nullptr ? enabled_ : root_->enabled_; }
  SimTime epoch_ns() const { return root_ == nullptr ? config_.epoch_ns : root_->epoch_ns(); }

  // Get-or-create the digest accumulator for `name` ("conv.ftl.l2p", "zns.zones", ...).
  // The returned pointer is stable until this StateAudit is destroyed. Subsystems always
  // live on the audit they registered with; delegation (below) only affects enablement and
  // where their history surfaces at dump time.
  SubsystemDigest* Register(std::string_view name);

  // Composite layers (the fleet gives every device its own Telemetry bundle) forward the
  // device audit to the run-level one: this audit arms/configures from `root`, and at dump
  // time its subsystems appear in the root timeline as "<prefix><subsystem>" (e.g.
  // "fleet.dev00.flash.blocks"). When a delegated audit is destroyed before the dump — the
  // fleet bench builds and tears down many configurations per run — the root adopts its
  // sealed history, so nothing is lost. Passing nullptr restores independence. One hop only.
  void DelegateTo(StateAudit* root, std::string_view prefix = "");

  // The digest timeline as deterministic JSON lines:
  //   {"schema":"blockhead-audit-v1","epoch_ns":N}
  //   {"epoch":E,"t_ns":T,"subsystem":"S","digest":"X.Y","mutations":M}   (ascending E, S)
  //   {"final":true,"subsystem":"S","digest":"X.Y","mutations":M}         (ascending S)
  //   {"final":true,"subsystem":"__run__","digest":"X.Y","mutations":M}
  // The "__run__" line folds H(name, digest) over every subsystem: the whole-device digest.
  // Subsystems retired before the dump (a bench that destroys a fleet mid-run) are retained.
  std::string DumpJson() const;

 private:
  friend class SubsystemDigest;

  struct Retired {
    std::string name;
    DigestValue value;
    std::uint64_t mutations = 0;
    std::vector<SubsystemDigest::Sealed> sealed;
  };

  // Called by a delegated child's destructor: moves the child's digest history (with the
  // delegation prefix applied) into retired_ and drops the child pointer.
  void AbsorbChild(StateAudit* child);

  bool enabled_ = false;
  AuditConfig config_;
  StateAudit* root_ = nullptr;   // Non-null: Register forwards to this audit.
  std::string delegate_prefix_;  // Prepended to names registered through this audit.
  // Name-sorted (std::map, deterministic iteration — the digest-order lint requires it).
  std::map<std::string, std::unique_ptr<SubsystemDigest>, std::less<>> subsystems_;
  // Digest history of subsystems whose owner died before the dump (absorbed children).
  std::vector<Retired> retired_;
  std::vector<StateAudit*> children_;  // Live delegated audits (for absorb-on-detach).
};

inline bool SubsystemDigest::armed() const { return owner_->enabled(); }

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_TELEMETRY_AUDIT_STATE_DIGEST_H_
