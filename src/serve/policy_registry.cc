#include "serve/policy_registry.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace rlplanner::serve {

namespace {

util::Status FingerprintMismatch(std::uint64_t snapshot_fingerprint,
                                 std::uint64_t registry_fingerprint) {
  std::ostringstream msg;
  msg << "snapshot catalog fingerprint " << std::hex << snapshot_fingerprint
      << " does not match the serving catalog (" << registry_fingerprint
      << "): the policy was trained on a different catalog";
  return util::Status::FailedPrecondition(msg.str());
}

util::Status DimensionMismatch(std::size_t policy_items,
                               std::size_t registry_items) {
  return util::Status::InvalidArgument(
      "policy dimension " + std::to_string(policy_items) +
      " does not match the registry catalog (" +
      std::to_string(registry_items) + " items)");
}

}  // namespace

PolicyRegistry::PolicyRegistry(std::uint64_t catalog_fingerprint,
                               std::size_t num_items)
    : catalog_fingerprint_(catalog_fingerprint),
      num_items_(num_items),
      map_(std::make_shared<const SlotMap>()) {}

std::shared_ptr<const PolicyRegistry::SlotMap> PolicyRegistry::LoadMap()
    const {
  std::lock_guard<std::mutex> lock(read_mutex_);
  return map_;
}

std::shared_ptr<const PolicyRegistry::SlotState> PolicyRegistry::LoadSlot(
    const std::string& name) const {
  const std::shared_ptr<const SlotMap> map = LoadMap();
  const auto it = map->find(name);
  if (it == map->end()) return nullptr;
  std::lock_guard<std::mutex> lock(read_mutex_);
  return it->second->state;
}

void PolicyRegistry::StoreState(Slot& slot,
                                std::shared_ptr<const SlotState> next) {
  {
    std::lock_guard<std::mutex> lock(read_mutex_);
    slot.state.swap(next);
  }
  // `next` now holds the old state and drops it here, outside the lock.
}

std::shared_ptr<PolicyRegistry::Slot> PolicyRegistry::SlotForWrite(
    const std::string& name, bool create) {
  // Writers are serialized by `mutex_`, so reading `map_` needs no copy
  // under the read mutex: only this thread ever replaces it.
  const auto it = map_->find(name);
  if (it != map_->end()) return it->second;
  if (!create) return nullptr;
  // Slot creation is the rare path: copy the pointer map (cheap — slots are
  // shared, not duplicated) and swap the new map in for future readers.
  auto next = std::make_shared<SlotMap>(*map_);
  auto slot = std::make_shared<Slot>();
  slot->state = std::make_shared<const SlotState>();
  (*next)[name] = slot;
  std::lock_guard<std::mutex> lock(read_mutex_);
  map_ = std::move(next);
  return slot;
}

std::uint64_t PolicyRegistry::Publish(const std::string& name,
                                      std::shared_ptr<ServablePolicy> policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t version = next_version_++;
  policy->version = version;
  const std::shared_ptr<Slot> slot = SlotForWrite(name, /*create=*/true);
  const std::shared_ptr<const SlotState> old = slot->state;
  // The swap: readers that already resolved the old state keep serving from
  // it; the next resolution observes the new incumbent. A direct install
  // supersedes any staged canary.
  auto next = std::make_shared<SlotState>();
  next->incumbent = std::move(policy);
  next->previous = old->incumbent;
  StoreState(*slot, std::move(next));
  ++install_count_;
  return version;
}

util::Result<std::uint64_t> PolicyRegistry::PublishCanary(
    const std::string& name, std::shared_ptr<ServablePolicy> policy,
    std::uint32_t canary_permille) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<Slot> slot = SlotForWrite(name, /*create=*/false);
  const std::shared_ptr<const SlotState> old =
      slot == nullptr ? nullptr : slot->state;
  if (old == nullptr || old->incumbent == nullptr) {
    return util::Status::FailedPrecondition(
        "no incumbent policy under '" + name +
        "' to canary against; the first publication of a slot must be a "
        "direct install");
  }
  const std::uint64_t version = next_version_++;
  policy->version = version;
  auto next = std::make_shared<SlotState>();
  next->incumbent = old->incumbent;
  next->previous = old->previous;
  next->canary = std::move(policy);
  next->canary_permille = std::min<std::uint32_t>(canary_permille, 1000);
  StoreState(*slot, std::move(next));
  ++install_count_;
  return version;
}

util::Result<std::uint64_t> PolicyRegistry::Install(
    const std::string& name, mdp::QTable q, rl::SarsaConfig provenance,
    std::uint64_t seed) {
  if (q.num_items() != num_items_) {
    return DimensionMismatch(q.num_items(), num_items_);
  }
  auto policy = std::make_shared<ServablePolicy>();
  policy->dense = std::move(q);
  policy->catalog_fingerprint = catalog_fingerprint_;
  policy->provenance = provenance;
  policy->seed = seed;
  return Publish(name, std::move(policy));
}

util::Result<std::uint64_t> PolicyRegistry::Install(
    const std::string& name, mdp::SparseQTable q, rl::SarsaConfig provenance,
    std::uint64_t seed) {
  if (q.num_items() != num_items_) {
    return DimensionMismatch(q.num_items(), num_items_);
  }
  auto policy = std::make_shared<ServablePolicy>();
  policy->sparse = std::move(q);
  policy->catalog_fingerprint = catalog_fingerprint_;
  policy->provenance = provenance;
  policy->seed = seed;
  return Publish(name, std::move(policy));
}

util::Result<std::uint64_t> PolicyRegistry::InstallMapped(
    const std::string& name, MappedPolicy mapped) {
  if (mapped.num_items() != num_items_) {
    return DimensionMismatch(mapped.num_items(), num_items_);
  }
  if (mapped.meta().catalog_fingerprint != catalog_fingerprint_) {
    return FingerprintMismatch(mapped.meta().catalog_fingerprint,
                               catalog_fingerprint_);
  }
  auto policy = std::make_shared<ServablePolicy>();
  policy->provenance = mapped.meta().provenance;
  policy->seed = mapped.meta().seed;
  policy->catalog_fingerprint = catalog_fingerprint_;
  policy->mapped = std::move(mapped);
  return Publish(name, std::move(policy));
}

template <typename Table>
util::Result<std::uint64_t> PolicyRegistry::InstallSnapshot(
    const std::string& name, const PolicySnapshotOf<Table>& snapshot) {
  if (snapshot.catalog_fingerprint != catalog_fingerprint_) {
    return FingerprintMismatch(snapshot.catalog_fingerprint,
                               catalog_fingerprint_);
  }
  return Install(name, snapshot.table, snapshot.provenance, snapshot.seed);
}

template util::Result<std::uint64_t> PolicyRegistry::InstallSnapshot(
    const std::string&, const PolicySnapshot&);
template util::Result<std::uint64_t> PolicyRegistry::InstallSnapshot(
    const std::string&, const SparsePolicySnapshotV2&);

util::Result<std::uint64_t> PolicyRegistry::InstallSnapshotFile(
    const std::string& name, const std::string& path, SnapshotLoadMode mode) {
  if (mode == SnapshotLoadMode::kMmap) {
    auto mapped = MappedPolicy::Map(path);
    if (!mapped.ok()) return mapped.status();
    return InstallMapped(name, std::move(mapped).value());
  }
  auto snapshot = SparsePolicySnapshotV2::LoadFromFile(path);
  if (!snapshot.ok()) return snapshot.status();
  return InstallSnapshot(name, snapshot.value());
}

util::Result<std::uint64_t> PolicyRegistry::InstallCanary(
    const std::string& name, mdp::QTable q, std::uint32_t canary_permille,
    rl::SarsaConfig provenance, std::uint64_t seed) {
  if (q.num_items() != num_items_) {
    return DimensionMismatch(q.num_items(), num_items_);
  }
  auto policy = std::make_shared<ServablePolicy>();
  policy->dense = std::move(q);
  policy->catalog_fingerprint = catalog_fingerprint_;
  policy->provenance = provenance;
  policy->seed = seed;
  return PublishCanary(name, std::move(policy), canary_permille);
}

util::Result<std::uint64_t> PolicyRegistry::InstallCanarySnapshot(
    const std::string& name, const PolicySnapshot& snapshot,
    std::uint32_t canary_permille) {
  if (snapshot.catalog_fingerprint != catalog_fingerprint_) {
    return FingerprintMismatch(snapshot.catalog_fingerprint,
                               catalog_fingerprint_);
  }
  return InstallCanary(name, snapshot.table, canary_permille,
                       snapshot.provenance, snapshot.seed);
}

util::Status PolicyRegistry::PromoteCanary(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<Slot> slot = SlotForWrite(name, /*create=*/false);
  const std::shared_ptr<const SlotState> old =
      slot == nullptr ? nullptr : slot->state;
  if (old == nullptr || old->canary == nullptr) {
    return util::Status::FailedPrecondition("no canary staged under '" + name +
                                            "' to promote");
  }
  auto next = std::make_shared<SlotState>();
  next->incumbent = old->canary;  // keeps its install-time version
  next->previous = old->incumbent;
  StoreState(*slot, std::move(next));
  return util::Status::Ok();
}

util::Status PolicyRegistry::Rollback(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<Slot> slot = SlotForWrite(name, /*create=*/false);
  const std::shared_ptr<const SlotState> old =
      slot == nullptr ? nullptr : slot->state;
  if (old == nullptr) {
    return util::Status::NotFound("no policy installed under '" + name + "'");
  }
  auto next = std::make_shared<SlotState>();
  if (old->canary != nullptr) {
    // The incumbent was never replaced: dropping the canary is the rollback.
    next->incumbent = old->incumbent;
    next->previous = old->previous;
  } else if (old->previous != nullptr) {
    // Restore the exact prior policy object, original version included.
    next->incumbent = old->previous;
  } else {
    return util::Status::FailedPrecondition(
        "nothing to roll back under '" + name +
        "': no canary staged and no previous version retained");
  }
  StoreState(*slot, std::move(next));
  return util::Status::Ok();
}

std::shared_ptr<const ServablePolicy> PolicyRegistry::Current(
    const std::string& name) const {
  const std::shared_ptr<const SlotState> state = LoadSlot(name);
  return state == nullptr ? nullptr : state->incumbent;
}

std::shared_ptr<const ServablePolicy> PolicyRegistry::Canary(
    const std::string& name) const {
  const std::shared_ptr<const SlotState> state = LoadSlot(name);
  return state == nullptr ? nullptr : state->canary;
}

std::shared_ptr<const ServablePolicy> PolicyRegistry::Route(
    const std::string& name, std::uint64_t route_key) const {
  const std::shared_ptr<const SlotState> state = LoadSlot(name);
  if (state == nullptr) return nullptr;
  if (state->canary != nullptr &&
      RouteBucket(route_key) < state->canary_permille) {
    return state->canary;
  }
  return state->incumbent;
}

std::uint32_t PolicyRegistry::RouteBucket(std::uint64_t route_key) {
  // SplitMix64 finalizer: sequential keys (per-request counters) land in
  // uniformly spread buckets, and a given key's bucket never changes.
  std::uint64_t z = route_key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z % 1000);
}

std::optional<SlotInfo> PolicyRegistry::Info(const std::string& name) const {
  const std::shared_ptr<const SlotState> state = LoadSlot(name);
  if (state == nullptr) return std::nullopt;
  SlotInfo info;
  if (state->incumbent != nullptr) {
    info.incumbent_version = state->incumbent->version;
  }
  if (state->canary != nullptr) info.canary_version = state->canary->version;
  if (state->previous != nullptr) {
    info.previous_version = state->previous->version;
  }
  info.canary_permille = state->canary_permille;
  return info;
}

std::vector<std::string> PolicyRegistry::Names() const {
  const std::shared_ptr<const SlotMap> map = LoadMap();
  std::vector<std::string> names;
  names.reserve(map->size());
  for (const auto& [name, slot] : *map) names.push_back(name);
  return names;
}

std::uint64_t PolicyRegistry::install_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return install_count_;
}

}  // namespace rlplanner::serve
