#ifndef RLPLANNER_SERVE_POLICY_REGISTRY_H_
#define RLPLANNER_SERVE_POLICY_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mdp/q_table.h"
#include "mdp/sparse_q_table.h"
#include "rl/sarsa.h"
#include "serve/policy_snapshot.h"
#include "util/status.h"

namespace rlplanner::serve {

/// An immutable, refcounted policy a PlanService can execute requests
/// against. Once published through the registry it is never mutated, so any
/// number of threads may read it concurrently without synchronization.
///
/// Exactly one of the three representations is engaged:
///   dense  — in-memory mdp::QTable (direct installs, fleet publishes)
///   sparse — in-memory mdp::SparseQTable (deserialized snapshot files,
///            sparse installs)
///   mapped — zero-copy MappedPolicy view over an mmapped snapshot file
/// Request execution dispatches through VisitQ, so the recommender
/// templates run the identical traversal on all three.
struct ServablePolicy {
  std::optional<mdp::QTable> dense;
  std::optional<mdp::SparseQTable> sparse;
  std::optional<MappedPolicy> mapped;
  /// Registry-assigned, strictly increasing across all installs.
  std::uint64_t version = 0;
  std::uint64_t catalog_fingerprint = 0;
  /// Training provenance carried over from the snapshot.
  rl::SarsaConfig provenance;
  std::uint64_t seed = 0;

  /// Invokes `fn` with whichever representation is engaged; `fn` must be
  /// generic over the three table types (they share the `Get` surface).
  template <typename Fn>
  auto VisitQ(Fn&& fn) const {
    if (dense.has_value()) return fn(*dense);
    if (sparse.has_value()) return fn(*sparse);
    return fn(*mapped);
  }

  /// "dense", "sparse", or "mmap" — for logs and stats labels.
  const char* representation() const {
    if (dense.has_value()) return "dense";
    if (sparse.has_value()) return "sparse";
    return "mmap";
  }

  std::size_t num_items() const {
    if (dense.has_value()) return dense->num_items();
    if (sparse.has_value()) return sparse->num_items();
    return mapped->num_items();
  }
};

/// How PolicyRegistry::InstallSnapshotFile materializes a snapshot.
enum class SnapshotLoadMode {
  /// Parse the whole file into an in-memory SparseQTable, verifying both
  /// checksums and the zero padding. O(file size) CPU + a private copy of
  /// the table.
  kDeserialize = 0,
  /// mmap the file and serve straight off the page cache (header/section
  /// validation only — see MappedPolicy::Map). O(1) work in the values
  /// section regardless of policy size.
  kMmap = 1,
};

/// Point-in-time view of one slot's publication state (fleet status, tests).
struct SlotInfo {
  std::uint64_t incumbent_version = 0;
  std::uint64_t canary_version = 0;   // 0 = no canary staged
  std::uint64_t previous_version = 0; // 0 = nothing to roll back to
  std::uint32_t canary_permille = 0;
};

/// Named, hot-swappable policy slots with RCU-style publication and canary
/// routing. Each slot holds an immutable state record
/// {incumbent, canary, previous, canary fraction}; readers resolve a policy
/// with two shared_ptr copies (slot map, then slot state), each under a
/// small read mutex held for that copy alone — never the writer mutex, which
/// installs hold for milliseconds. The serve hot path thus never waits on
/// the fleet orchestrator republishing underneath it. In-flight requests
/// keep whatever policy they resolved alive through its reference count and
/// finish on it; every request admitted after a swap observes the new
/// state — no downtime, no torn reads.
///
/// Publication pipeline on top of the plain hot swap:
///   Install*            — direct publish: the policy becomes the incumbent,
///                         the old incumbent is retained as `previous`, any
///                         staged canary is superseded (dropped).
///   InstallCanary*      — stages a candidate next to the incumbent; Route()
///                         serves it to `canary_permille`/1000 of the route
///                         keys while Current() keeps returning the
///                         incumbent.
///   PromoteCanary       — the canary becomes the incumbent (keeping the
///                         version it was installed with); the old incumbent
///                         is retained as `previous`.
///   Rollback            — one call undoes the most recent publication step:
///                         a staged canary is dropped, otherwise the exact
///                         `previous` policy object (original version number
///                         included) becomes the incumbent again.
///
/// Every install is validated against the registry's catalog fingerprint, so
/// a policy trained on a different (or drifted) catalog can never be
/// published to a serving slot it would mis-index.
class PolicyRegistry {
 public:
  /// `catalog_fingerprint` and `num_items` pin the catalog this registry
  /// serves (see CatalogFingerprint).
  PolicyRegistry(std::uint64_t catalog_fingerprint, std::size_t num_items);

  PolicyRegistry(const PolicyRegistry&) = delete;
  PolicyRegistry& operator=(const PolicyRegistry&) = delete;

  /// Publishes `q` under `name` (creating or hot-swapping the slot) and
  /// returns the assigned version. Fails with InvalidArgument when the table
  /// dimension does not match the registry catalog.
  util::Result<std::uint64_t> Install(const std::string& name, mdp::QTable q,
                                      rl::SarsaConfig provenance,
                                      std::uint64_t seed = 0);

  /// Sparse-representation variant of Install (same validation, same
  /// hot-swap semantics).
  util::Result<std::uint64_t> Install(const std::string& name,
                                      mdp::SparseQTable q,
                                      rl::SarsaConfig provenance,
                                      std::uint64_t seed = 0);

  /// Publishes a zero-copy mapped policy; validates both the mapping's
  /// dimension (InvalidArgument) and its embedded catalog fingerprint
  /// (FailedPrecondition) against the registry's.
  util::Result<std::uint64_t> InstallMapped(const std::string& name,
                                            MappedPolicy policy);

  /// Publishes a deserialized snapshot's table (dense or sparse, per the
  /// alias); additionally validates the snapshot's catalog fingerprint
  /// against the registry's. Instantiated for both aliases.
  template <typename Table>
  util::Result<std::uint64_t> InstallSnapshot(
      const std::string& name, const PolicySnapshotOf<Table>& snapshot);

  /// Loads the snapshot at `path` and publishes it under `name`: kMmap
  /// serves the file in place through MappedPolicy, kDeserialize parses it
  /// into a SparseQTable (so the allocation is bounded by the file size,
  /// whatever dimension the file claims). Either way the dimension and
  /// fingerprint are checked against the registry's, and a file that is
  /// not a snapshot fails with InvalidArgument.
  util::Result<std::uint64_t> InstallSnapshotFile(const std::string& name,
                                                  const std::string& path,
                                                  SnapshotLoadMode mode);

  /// Stages `q` as the canary of `name`, serving `canary_permille`/1000 of
  /// route keys (clamped to [0, 1000]). Returns the canary's assigned
  /// version. FailedPrecondition when the slot has no incumbent — the first
  /// publication of a slot must be a direct Install, there is nothing to
  /// split traffic against. InvalidArgument on a dimension mismatch.
  util::Result<std::uint64_t> InstallCanary(const std::string& name,
                                            mdp::QTable q,
                                            std::uint32_t canary_permille,
                                            rl::SarsaConfig provenance,
                                            std::uint64_t seed = 0);

  /// Snapshot flavor of InstallCanary: re-validates the snapshot's catalog
  /// fingerprint (FailedPrecondition on mismatch), then stages its table.
  util::Result<std::uint64_t> InstallCanarySnapshot(
      const std::string& name, const PolicySnapshot& snapshot,
      std::uint32_t canary_permille);

  /// The staged canary becomes the incumbent, keeping the version it was
  /// installed with; the old incumbent is retained as `previous` for
  /// Rollback. FailedPrecondition when no canary is staged.
  util::Status PromoteCanary(const std::string& name);

  /// One-call rollback of the most recent publication step: drops a staged
  /// canary if one exists (the incumbent was never replaced); otherwise
  /// re-installs the exact `previous` policy object — same ServablePolicy,
  /// same version number, not a re-publication — as the incumbent.
  /// NotFound for an unknown slot, FailedPrecondition when there is neither
  /// a canary nor a previous version.
  util::Status Rollback(const std::string& name);

  /// The current incumbent of `name`, or nullptr when the slot does not
  /// exist. Never waits on an install. The returned pointer stays valid
  /// (and immutable) for as long as the caller holds it, regardless of
  /// later swaps.
  std::shared_ptr<const ServablePolicy> Current(const std::string& name) const;

  /// The staged canary of `name`, or nullptr when none. Never waits on an
  /// install.
  std::shared_ptr<const ServablePolicy> Canary(const std::string& name) const;

  /// Canary-aware policy resolution — the serve hot path. Returns the canary
  /// when one is staged and `RouteBucket(route_key) < canary_permille`,
  /// the incumbent otherwise (or nullptr for an unknown slot). Never waits
  /// on an install; a given route key always lands on the same side of a
  /// given split, so per-user keys give sticky canary assignment.
  std::shared_ptr<const ServablePolicy> Route(const std::string& name,
                                              std::uint64_t route_key) const;

  /// `route_key`'s bucket in [0, 1000) — SplitMix64-mixed so sequential
  /// keys spread uniformly. Exposed so tests and benches can steer requests
  /// onto a chosen side of a split deterministically.
  static std::uint32_t RouteBucket(std::uint64_t route_key);

  /// Point-in-time versions/fraction of `name`; nullopt for an unknown slot.
  std::optional<SlotInfo> Info(const std::string& name) const;

  /// Slot names, unordered.
  std::vector<std::string> Names() const;

  /// Total successful installs (initial publications, hot swaps, and canary
  /// stages; promotions and rollbacks reuse existing policies and do not
  /// count).
  std::uint64_t install_count() const;

  std::uint64_t catalog_fingerprint() const { return catalog_fingerprint_; }
  std::size_t num_items() const { return num_items_; }

 private:
  /// Immutable per-slot record; replaced wholesale on every transition so
  /// readers see either the old or the new publication state, never a mix.
  struct SlotState {
    std::shared_ptr<const ServablePolicy> incumbent;
    std::shared_ptr<const ServablePolicy> canary;
    std::shared_ptr<const ServablePolicy> previous;
    std::uint32_t canary_permille = 0;
  };

  /// Stable per-name holder; the state pointer is what swaps (guarded by
  /// `read_mutex_`).
  struct Slot {
    std::shared_ptr<const SlotState> state;
  };

  using SlotMap = std::unordered_map<std::string, std::shared_ptr<Slot>>;

  /// Two-copy read path shared by Current/Canary/Route/Info/Names.
  std::shared_ptr<const SlotMap> LoadMap() const;
  std::shared_ptr<const SlotState> LoadSlot(const std::string& name) const;

  /// Swaps `next` in as `slot`'s state (writer mutex held). The old state
  /// is released after the read mutex, so a policy's teardown never blocks
  /// readers.
  void StoreState(Slot& slot, std::shared_ptr<const SlotState> next);

  /// Stamps a version on `policy` and swaps it in as `name`'s incumbent
  /// (previous = old incumbent, staged canary dropped). Takes the writer
  /// mutex.
  std::uint64_t Publish(const std::string& name,
                        std::shared_ptr<ServablePolicy> policy);

  /// Canary counterpart of Publish: stamps a version and stages `policy`
  /// next to the existing incumbent. Takes the writer mutex.
  util::Result<std::uint64_t> PublishCanary(const std::string& name,
                                            std::shared_ptr<ServablePolicy> policy,
                                            std::uint32_t canary_permille);

  /// Writer-side slot lookup (mutex must be held); creates the slot when
  /// `create` is set by swapping in a copied map.
  std::shared_ptr<Slot> SlotForWrite(const std::string& name, bool create);

  const std::uint64_t catalog_fingerprint_;
  const std::size_t num_items_;
  /// Serializes writers; policy lookups never take it.
  mutable std::mutex mutex_;
  /// Guards the pointer copies and stores of `map_` and every
  /// `Slot::state`. Held only for one shared_ptr copy or swap; writers
  /// take it inside `mutex_`.
  mutable std::mutex read_mutex_;
  /// RCU-published slot map: copied and swapped when a slot is created
  /// (rare), shared otherwise. Readers copy it once per resolution.
  std::shared_ptr<const SlotMap> map_;
  std::uint64_t next_version_ = 1;
  std::uint64_t install_count_ = 0;
};

}  // namespace rlplanner::serve

#endif  // RLPLANNER_SERVE_POLICY_REGISTRY_H_
