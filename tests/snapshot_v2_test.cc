// Tests for snapshot format v2 — the one policy file format — and the
// zero-copy serving path: round-trip exactness, dense/sparse byte identity,
// the strict-validation matrix (truncation, corrupted section tables,
// checksum mismatches, non-zero padding, every single-bit flip, fingerprint
// drift), rejection of non-v2 files at every entry point,
// mmap-vs-deserialize install parity, and snapshot-file inspection.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/planner.h"
#include "datagen/course_data.h"
#include "mdp/q_table.h"
#include "mdp/sparse_q_table.h"
#include "random_tables.h"
#include "serve/plan_service.h"
#include "serve/policy_registry.h"
#include "serve/policy_snapshot.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/status.h"

namespace rlplanner::serve {
namespace {

using datagen::Dataset;

core::PlannerConfig SparseConfig(const Dataset& dataset,
                                 std::uint64_t seed = 17,
                                 int episodes = 80) {
  core::PlannerConfig config = core::DefaultUniv1Config();
  config.sarsa.num_episodes = episodes;
  config.sarsa.start_item = dataset.default_start;
  config.sarsa.q_representation = rl::QRepresentation::kSparse;
  config.seed = seed;
  return config;
}

std::unique_ptr<core::RlPlanner> TrainPlanner(const model::TaskInstance&
                                                  instance,
                                              core::PlannerConfig config) {
  auto planner = std::make_unique<core::RlPlanner>(instance, config);
  EXPECT_TRUE(planner->Train().ok());
  return planner;
}

// The on-disk census: the file stores only non-zero entries, while the
// in-memory table may also hold explicit zeros (SARSA updates that landed
// back on 0.0) that serialize as absent.
std::uint64_t NonZeroCount(const mdp::SparseQTable& table) {
  std::uint64_t count = 0;
  table.ForEachNonZeroEntrySorted(
      [&](model::ItemId, model::ItemId, double) { ++count; });
  return count;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// Recomputes the v2 header checksum after a deliberate header patch, so a
// test can reach the *structural* validators behind the checksum gate.
void FixHeaderChecksum(std::string* bytes) {
  const std::uint64_t checksum = Fnv1a64(bytes->data(), 192);
  std::memcpy(bytes->data() + 192, &checksum, sizeof(checksum));
}

TEST(SnapshotV2Test, SerializeDeserializeRoundTripIsExact) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  const std::string bytes = snapshot.value().Serialize();
  // Page-aligned layout: header page plus page-aligned sections.
  EXPECT_EQ(bytes.size() % kSnapshotV2PageBytes, 0u);
  EXPECT_EQ(bytes.compare(0, 8, "RLPSNAP2"), 0);

  auto restored = SparsePolicySnapshotV2::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value().table == snapshot.value().table);
  EXPECT_EQ(restored.value().catalog_fingerprint,
            snapshot.value().catalog_fingerprint);
  EXPECT_EQ(restored.value().seed, snapshot.value().seed);
  EXPECT_EQ(restored.value().provenance.num_episodes,
            snapshot.value().provenance.num_episodes);
  EXPECT_EQ(restored.value().provenance.alpha,
            snapshot.value().provenance.alpha);
  EXPECT_EQ(restored.value().provenance.gamma,
            snapshot.value().provenance.gamma);
}

TEST(SnapshotV2Test, MappedPolicyServesIdenticalValues) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  const std::string path = testing::TempDir() + "/toy_policy_v2.snap";
  ASSERT_TRUE(snapshot.value().SaveToFile(path).ok());

  auto mapped = MappedPolicy::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const mdp::SparseQTable& table = snapshot.value().table;
  const std::size_t n = table.num_items();
  ASSERT_EQ(mapped.value().num_items(), n);
  EXPECT_EQ(mapped.value().entry_count(), NonZeroCount(table));
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < n; ++a) {
      EXPECT_EQ(mapped.value().Get(static_cast<model::ItemId>(s),
                                   static_cast<model::ItemId>(a)),
                table.Get(static_cast<model::ItemId>(s),
                          static_cast<model::ItemId>(a)));
    }
  }
  // ArgmaxAction parity against the in-memory sparse table under random
  // admissible masks (which themselves pin to the dense semantics).
  util::Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    util::DynamicBitset allowed(n);
    for (std::size_t a = 0; a < n; ++a) {
      if (rng.NextDouble() < 0.5) allowed.Set(a);
    }
    for (std::size_t s = 0; s < n; ++s) {
      const auto state = static_cast<model::ItemId>(s);
      EXPECT_EQ(mapped.value().ArgmaxAction(state, allowed),
                table.ArgmaxAction(state, allowed));
    }
  }
  EXPECT_EQ(mapped.value().NonZeroFraction(), table.NonZeroFraction());
}

// The dense-alias snapshot of a dense-trained planner.
PolicySnapshot DenseSnapshot(const core::RlPlanner& planner) {
  PolicySnapshot snapshot;
  snapshot.catalog_fingerprint =
      CatalogFingerprint(*planner.instance().catalog);
  snapshot.provenance = planner.config().sarsa;
  snapshot.seed = planner.config().seed;
  snapshot.table = planner.q_table();
  return snapshot;
}

TEST(SnapshotV2Test, DenseAliasAndMappedPolicyAgreeOnEveryArgmax) {
  // Train dense and snapshot through the dense alias; the mapped file must
  // induce the same greedy action as the dense table it parses back into.
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = SparseConfig(dataset);
  config.sarsa.q_representation = rl::QRepresentation::kDense;
  const auto planner = TrainPlanner(instance, config);

  const PolicySnapshot snapshot = DenseSnapshot(*planner);
  const std::string path = testing::TempDir() + "/toy_dense_alias.snap";
  ASSERT_TRUE(snapshot.SaveToFile(path).ok());
  auto dense = PolicySnapshot::LoadFromFile(path);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_TRUE(dense.value().table == planner->q_table());
  auto mapped = MappedPolicy::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::size_t n = dense.value().table.num_items();
  util::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    util::DynamicBitset allowed(n);
    if (trial == 0) {
      allowed.SetAll();
    } else {
      for (std::size_t a = 0; a < n; ++a) {
        if (rng.NextDouble() < 0.6) allowed.Set(a);
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      const auto state = static_cast<model::ItemId>(s);
      EXPECT_EQ(dense.value().table.ArgmaxAction(state, allowed),
                mapped.value().ArgmaxAction(state, allowed));
    }
  }
}

TEST(SnapshotV2Test, DenseAndSparseAliasesWriteIdenticalBytes) {
  // One policy, one file: the dense alias and the sparse alias (through
  // MakeSnapshotV2's conversion) serialize the same bytes.
  const Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig config = SparseConfig(dataset);
  config.sarsa.q_representation = rl::QRepresentation::kDense;
  const auto planner = TrainPlanner(instance, config);
  auto sparse = MakeSnapshotV2(*planner);
  ASSERT_TRUE(sparse.ok());
  const std::string bytes = DenseSnapshot(*planner).Serialize();
  EXPECT_EQ(bytes, sparse.value().Serialize());

  auto restored = SparsePolicySnapshotV2::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value().table ==
              mdp::SparseQTable::FromDense(planner->q_table()));
}

namespace {

// Maps `table` through a v2 file at `name` under the test temp dir.
MappedPolicy MapTable(const mdp::SparseQTable& table, const std::string& name) {
  SparsePolicySnapshotV2 snapshot;
  snapshot.table = table;
  const std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(snapshot.SaveToFile(path).ok());
  auto mapped = MappedPolicy::Map(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
  return std::move(mapped).value();
}

}  // namespace

TEST(SnapshotV2Test, MappedArgmaxMatchesDenseOnNegativeDominatedRows) {
  // The trained fixtures above hold non-negative values, so their argmaxes
  // rarely reach the zero-max walk; these rows are mostly negative, and
  // even seeds store every cell (bar the explicit zeros v2 drops).
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto [dense, sparse] = mdp::RandomPair(64, seed, seed % 2 == 0 ? 1.0 : 0.6,
                                           /*max_value=*/0.05);
    const MappedPolicy mapped =
        MapTable(sparse, "negative_" + std::to_string(seed) + ".snap");
    util::Rng rng(seed * 7);
    for (int trial = 0; trial < 200; ++trial) {
      util::DynamicBitset allowed(64);
      const double density = rng.NextDouble();
      for (std::size_t a = 0; a < 64; ++a) {
        if (rng.NextDouble() < density) allowed.Set(a);
      }
      const auto state = static_cast<model::ItemId>(rng.NextDouble() * 64);
      EXPECT_EQ(mapped.ArgmaxAction(state, allowed),
                dense.ArgmaxAction(state, allowed))
          << "seed " << seed << " trial " << trial << " state " << state;
    }
  }
}

TEST(SnapshotV2Test, MappedArgmaxZeroMaxEdgeCases) {
  mdp::QTable dense(10);
  mdp::SparseQTable sparse(10);
  auto set = [&](model::ItemId s, model::ItemId a, double value) {
    dense.Set(s, a, value);
    sparse.Set(s, a, value);
  };
  // Row 0 stores every id, all negative; row 1 stores one negative id.
  for (model::ItemId a = 0; a < 10; ++a) set(0, a, -0.25 * (a + 1));
  set(0, 6, -0.1);
  set(1, 3, -0.5);
  const MappedPolicy mapped = MapTable(sparse, "edge_cases.snap");
  auto expect = [&](model::ItemId state, std::vector<std::size_t> ids,
                    model::ItemId want) {
    util::DynamicBitset allowed(10);
    for (std::size_t id : ids) allowed.Set(id);
    EXPECT_EQ(dense.ArgmaxAction(state, allowed), want) << "state " << state;
    EXPECT_EQ(mapped.ArgmaxAction(state, allowed), want) << "state " << state;
  };
  expect(0, {2, 6, 9}, 6);                          // every allowed id stored
  expect(0, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 6);
  expect(0, {}, -1);                                // empty allowed set
  expect(1, {3, 4}, 4);  // first allowed stored negative, then a missing id
  expect(1, {3}, 3);
  expect(1, {0, 3}, 0);
  expect(2, {}, -1);     // empty row
  expect(2, {7, 8}, 7);
}

TEST(SnapshotV2Test, TruncatedBytesAreRejected) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  const std::string bytes = snapshot.value().Serialize();
  // Cut inside the magic, the header, at the header boundary, and inside
  // the payload — every prefix must be rejected, by parse or checksum.
  for (const std::size_t cut :
       {std::size_t{4}, std::size_t{100}, std::size_t{4095},
        std::size_t{4096}, bytes.size() - 1}) {
    auto result = SparsePolicySnapshotV2::Deserialize(bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
  }
  // The mmap path rejects a truncated file too.
  const std::string path = testing::TempDir() + "/truncated_v2.snap";
  WriteFileBytes(path, bytes.substr(0, 4096));
  auto mapped = MappedPolicy::Map(path);
  EXPECT_FALSE(mapped.ok());
}

TEST(SnapshotV2Test, CorruptedHeaderFailsTheHeaderChecksum) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  std::string bytes = snapshot.value().Serialize();
  bytes[24] ^= 0x01;  // num_items field
  auto result = SparsePolicySnapshotV2::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("header checksum"),
            std::string::npos);
}

TEST(SnapshotV2Test, CorruptedSectionOffsetIsRejectedByBoundsChecks) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  std::string bytes = snapshot.value().Serialize();
  // Section table entry 0 starts at 112: {u32 kind, u32 reserved,
  // u64 offset, u64 length}. Point the row-index section past EOF and
  // re-sign the header so the *bounds* validator (not the checksum) trips.
  const std::uint64_t bogus_offset = bytes.size() + kSnapshotV2PageBytes;
  std::memcpy(bytes.data() + 112 + 8, &bogus_offset, sizeof(bogus_offset));
  FixHeaderChecksum(&bytes);

  auto result = SparsePolicySnapshotV2::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);

  const std::string path = testing::TempDir() + "/bad_offset_v2.snap";
  WriteFileBytes(path, bytes);
  auto mapped = MappedPolicy::Map(path);
  EXPECT_FALSE(mapped.ok());

  // A misaligned (non-page-multiple) offset is rejected too.
  std::string misaligned = snapshot.value().Serialize();
  const std::uint64_t odd_offset = 4100;
  std::memcpy(misaligned.data() + 112 + 8, &odd_offset, sizeof(odd_offset));
  FixHeaderChecksum(&misaligned);
  EXPECT_FALSE(SparsePolicySnapshotV2::Deserialize(misaligned).ok());
}

TEST(SnapshotV2Test, OverlappingSectionsAreRejected) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  std::string bytes = snapshot.value().Serialize();
  // Alias the packed-keys section (entry 1, offset at 112 + 24 + 8) onto
  // the row-index section's pages. Every per-section check (alignment,
  // bounds) still passes, so only the non-overlap validator can catch it.
  std::uint64_t rows_offset = 0;
  std::memcpy(&rows_offset, bytes.data() + 112 + 8, sizeof(rows_offset));
  std::memcpy(bytes.data() + 112 + 24 + 8, &rows_offset,
              sizeof(rows_offset));
  FixHeaderChecksum(&bytes);

  auto result = SparsePolicySnapshotV2::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("overlaps section"),
            std::string::npos);

  const std::string path = testing::TempDir() + "/overlap_v2.snap";
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(MappedPolicy::Map(path).ok());
}

TEST(SnapshotV2Test, MapRejectsOutOfRangeAndUnsortedKeys) {
  // Map() skips the payload checksum by design, so a corrupted keys page
  // must be caught by the map-time key validation itself — otherwise a
  // hostile u32 key would index the allowed bitset out of bounds in the
  // serving hot loop.
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  const std::string bytes = snapshot.value().Serialize();
  std::uint64_t num_items = 0, entry_count = 0;
  std::uint64_t rows_offset = 0, keys_offset = 0;
  std::memcpy(&num_items, bytes.data() + 24, sizeof(num_items));
  std::memcpy(&entry_count, bytes.data() + 40, sizeof(entry_count));
  std::memcpy(&rows_offset, bytes.data() + 112 + 8, sizeof(rows_offset));
  std::memcpy(&keys_offset, bytes.data() + 112 + 24 + 8,
              sizeof(keys_offset));
  ASSERT_GT(entry_count, 0u);

  // Out of range: point the first stored key one past the catalog.
  std::string oob = bytes;
  const auto bad_key = static_cast<std::uint32_t>(num_items);
  std::memcpy(oob.data() + keys_offset, &bad_key, sizeof(bad_key));
  const std::string oob_path = testing::TempDir() + "/oob_key_v2.snap";
  WriteFileBytes(oob_path, oob);
  auto mapped = MappedPolicy::Map(oob_path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("outside the"),
            std::string::npos);

  // Unsorted: duplicate the first key of a row with >= 2 entries, breaking
  // the strict ascent Get()'s binary search depends on.
  std::string unsorted = bytes;
  bool found = false;
  for (std::uint64_t s = 0; s < num_items && !found; ++s) {
    std::uint64_t begin = 0, count = 0;
    std::memcpy(&begin, unsorted.data() + rows_offset + 16 * s,
                sizeof(begin));
    std::memcpy(&count, unsorted.data() + rows_offset + 16 * s + 8,
                sizeof(count));
    if (count < 2) continue;
    std::memcpy(unsorted.data() + keys_offset + 4 * (begin + 1),
                unsorted.data() + keys_offset + 4 * begin, 4);
    found = true;
  }
  ASSERT_TRUE(found) << "trained toy policy has no row with >= 2 entries";
  const std::string unsorted_path =
      testing::TempDir() + "/unsorted_keys_v2.snap";
  WriteFileBytes(unsorted_path, unsorted);
  auto mapped_unsorted = MappedPolicy::Map(unsorted_path);
  ASSERT_FALSE(mapped_unsorted.ok());
  EXPECT_NE(mapped_unsorted.status().message().find("strictly ascending"),
            std::string::npos);
}

TEST(SnapshotV2Test, MapRejectsFileSmallerThanHeaderPage) {
  const std::string path = testing::TempDir() + "/empty_v2.snap";
  WriteFileBytes(path, "");
  auto mapped = MappedPolicy::Map(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("header page"),
            std::string::npos);
}

TEST(SnapshotV2Test, PayloadCorruptionFailsDeserializeAndInspect) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  std::string bytes = snapshot.value().Serialize();
  ASSERT_GT(bytes.size(), std::size_t{2} * kSnapshotV2PageBytes);
  bytes[kSnapshotV2PageBytes + 3] ^= 0x40;  // inside the row-index section

  auto result = SparsePolicySnapshotV2::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);

  const std::string path = testing::TempDir() + "/bad_payload_v2.snap";
  WriteFileBytes(path, bytes);
  auto info = InspectSnapshotFile(path);
  // The header still parses, so inspection reports the dimensions but
  // flags the integrity failure instead of erroring out.
  if (info.ok()) {
    EXPECT_FALSE(info.value().checksum_ok);
  }
}

TEST(SnapshotV2Test, RegistryRefusesDriftedFingerprints) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());

  // A registry pinned to a *different* catalog fingerprint.
  PolicyRegistry drifted(CatalogFingerprint(dataset.catalog) ^ 1,
                         dataset.catalog.size());
  auto refused = drifted.InstallSnapshot("default", snapshot.value());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("fingerprint"),
            std::string::npos);

  const std::string path = testing::TempDir() + "/drift_v2.snap";
  ASSERT_TRUE(snapshot.value().SaveToFile(path).ok());
  auto mapped = MappedPolicy::Map(path);
  ASSERT_TRUE(mapped.ok());
  auto refused_mapped =
      drifted.InstallMapped("default", std::move(mapped).value());
  ASSERT_FALSE(refused_mapped.ok());
  EXPECT_EQ(refused_mapped.status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(SnapshotV2Test, InstallSnapshotFileServesBothLoadModes) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  const std::string path = testing::TempDir() + "/modes_v2.snap";
  ASSERT_TRUE(snapshot.value().SaveToFile(path).ok());

  PolicyRegistry registry(CatalogFingerprint(dataset.catalog),
                          dataset.catalog.size());
  ASSERT_TRUE(registry
                  .InstallSnapshotFile("deser", path,
                                       SnapshotLoadMode::kDeserialize)
                  .ok());
  ASSERT_TRUE(
      registry.InstallSnapshotFile("mmap", path, SnapshotLoadMode::kMmap)
          .ok());
  auto deser = registry.Current("deser");
  auto mapped = registry.Current("mmap");
  ASSERT_NE(deser, nullptr);
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(deser->sparse.has_value());
  EXPECT_TRUE(mapped->mapped.has_value());
  EXPECT_STREQ(deser->representation(), "sparse");
  EXPECT_STREQ(mapped->representation(), "mmap");

  // Both modes serve the identical plan through the PlanService.
  const mdp::RewardWeights weights;
  PlanServiceConfig service_config;
  service_config.num_workers = 2;
  PlanService service(instance, weights, registry, service_config);
  service.Start();
  PlanRequest a;
  a.policy_name = "deser";
  a.start_item = dataset.default_start;
  PlanRequest b;
  b.policy_name = "mmap";
  b.start_item = dataset.default_start;
  auto fa = service.Submit(std::move(a));
  auto fb = service.Submit(std::move(b));
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  auto ra = fa.value().get();
  auto rb = fb.value().get();
  service.Stop();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra.value().plan.items(), rb.value().plan.items());
}

TEST(SnapshotV2Test, HotSwapToMappedKeepsOldPolicyAliveForHolders) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig dense_config = SparseConfig(dataset);
  dense_config.sarsa.q_representation = rl::QRepresentation::kDense;
  const auto planner = TrainPlanner(instance, dense_config);

  PolicyRegistry registry(CatalogFingerprint(dataset.catalog),
                          dataset.catalog.size());
  ASSERT_TRUE(
      registry.Install("default", planner->q_table(), dense_config.sarsa)
          .ok());
  auto held = registry.Current("default");
  ASSERT_TRUE(held->dense.has_value());

  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  const std::string path = testing::TempDir() + "/swap_v2.snap";
  ASSERT_TRUE(snapshot.value().SaveToFile(path).ok());
  ASSERT_TRUE(
      registry.InstallSnapshotFile("default", path, SnapshotLoadMode::kMmap)
          .ok());

  // The holder still reads the dense version; fresh readers get the mmap.
  EXPECT_EQ(held->version, 1u);
  EXPECT_TRUE(held->dense.has_value());
  auto fresh = registry.Current("default");
  EXPECT_EQ(fresh->version, 2u);
  ASSERT_TRUE(fresh->mapped.has_value());
  // Identical policy either way.
  util::DynamicBitset allowed(dataset.catalog.size());
  allowed.SetAll();
  for (std::size_t s = 0; s < dataset.catalog.size(); ++s) {
    const auto state = static_cast<model::ItemId>(s);
    EXPECT_EQ(held->dense->ArgmaxAction(state, allowed),
              fresh->mapped->ArgmaxAction(state, allowed));
  }
}

TEST(SnapshotV2Test, DenseAndSparseTrainedPlannersInspectAsV2) {
  const Dataset dataset = datagen::MakeTableIIToy();
  const model::TaskInstance instance = dataset.Instance();
  core::PlannerConfig dense_config = SparseConfig(dataset);
  dense_config.sarsa.q_representation = rl::QRepresentation::kDense;
  const auto dense_planner = TrainPlanner(instance, dense_config);
  const auto sparse_planner = TrainPlanner(instance, SparseConfig(dataset));

  const std::string dense_path = testing::TempDir() + "/inspect_dense.snap";
  const std::string sparse_path = testing::TempDir() + "/inspect_sparse.snap";
  ASSERT_TRUE(DenseSnapshot(*dense_planner).SaveToFile(dense_path).ok());
  auto sparse = MakeSnapshotV2(*sparse_planner);
  ASSERT_TRUE(sparse.ok());
  ASSERT_TRUE(sparse.value().SaveToFile(sparse_path).ok());

  auto dense_info = InspectSnapshotFile(dense_path);
  ASSERT_TRUE(dense_info.ok()) << dense_info.status().ToString();
  auto sparse_info = InspectSnapshotFile(sparse_path);
  ASSERT_TRUE(sparse_info.ok()) << sparse_info.status().ToString();
  for (const SnapshotFileInfo& info :
       {dense_info.value(), sparse_info.value()}) {
    EXPECT_EQ(info.format_version, 2u);
    EXPECT_EQ(info.num_items, dataset.catalog.size());
    EXPECT_TRUE(info.checksum_ok);
    EXPECT_EQ(info.catalog_fingerprint, CatalogFingerprint(dataset.catalog));
  }
  EXPECT_EQ(sparse_info.value().entry_count,
            NonZeroCount(sparse.value().table));
  // Dense and sparse training are bit-identical, so the census agrees.
  EXPECT_EQ(dense_info.value().entry_count, sparse_info.value().entry_count);

  auto missing = InspectSnapshotFile(testing::TempDir() + "/nope.snap");
  EXPECT_FALSE(missing.ok());
}

TEST(SnapshotV2Test, EverySingleBitFlipIsRejected) {
  // The checksums cover the header fields and the sections; the padding
  // rule covers every other byte, so a full parse accepts no flip at all.
  const Dataset dataset = datagen::MakeUniv1DsCt();
  const model::TaskInstance instance = dataset.Instance();
  const auto planner = TrainPlanner(instance, SparseConfig(dataset));
  auto snapshot = MakeSnapshotV2(*planner);
  ASSERT_TRUE(snapshot.ok());
  const std::string bytes = snapshot.value().Serialize();
  ASSERT_TRUE(SparsePolicySnapshotV2::Deserialize(bytes).ok());

  std::vector<std::size_t> accepted;
  std::string flipped = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    flipped[i] = static_cast<char>(bytes[i] ^ (1u << (i % 8)));
    if (SparsePolicySnapshotV2::Deserialize(flipped).ok() ||
        PolicySnapshot::Deserialize(flipped).ok()) {
      accepted.push_back(i);
    }
    flipped[i] = bytes[i];
  }
  EXPECT_TRUE(accepted.empty())
      << accepted.size() << " of " << bytes.size()
      << " flips accepted, first at byte " << accepted.front();

  // A padding flip leaves both checksums intact; inspection still reports
  // the file as damaged. Offset 200 is header padding, the last byte is the
  // values section's page padding.
  for (const std::size_t at : {std::size_t{200}, bytes.size() - 1}) {
    std::string padded = bytes;
    padded[at] ^= 0x01;
    const std::string path =
        testing::TempDir() + "/padding_" + std::to_string(at) + ".snap";
    WriteFileBytes(path, padded);
    auto info = InspectSnapshotFile(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_FALSE(info.value().checksum_ok) << "flip at " << at;
  }
}

// The 97-byte v1-layout file whose num_items (2^31) wraps num_items^2 * 8
// to 0: magic "RLPSNAP1", u32 version, u64 fingerprint, u64 num_items,
// u64 seed, 53 provenance bytes, no payload, then an FNV-1a checksum of
// the preceding 89 bytes.
std::string OverflowingV1File() {
  std::string bytes = "RLPSNAP1";
  const std::uint32_t version = 1;
  const std::uint64_t fingerprint = 0, num_items = 1ull << 31, seed = 0;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&fingerprint),
               sizeof(fingerprint));
  bytes.append(reinterpret_cast<const char*>(&num_items), sizeof(num_items));
  bytes.append(reinterpret_cast<const char*>(&seed), sizeof(seed));
  bytes.append(53, '\0');
  const std::uint64_t checksum = Fnv1a64(bytes.data(), bytes.size());
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

TEST(SnapshotV2Test, NonV2FilesAreInvalidArgumentAtEveryEntryPoint) {
  const std::string v1 = OverflowingV1File();
  ASSERT_EQ(v1.size(), 97u);
  // Page-sized garbage too, so the rejection is the magic check and not
  // only the header-page size check.
  const std::string garbage(2 * kSnapshotV2PageBytes, 'x');

  for (const std::string& bytes : {v1, garbage}) {
    const std::string path = testing::TempDir() + "/not_v2_" +
                             std::to_string(bytes.size()) + ".snap";
    WriteFileBytes(path, bytes);
    auto expect_invalid = [&](const util::Status& status, const char* what) {
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
          << what << " on " << bytes.size() << " bytes: "
          << status.ToString();
    };
    expect_invalid(InspectSnapshotFile(path).status(), "InspectSnapshotFile");
    expect_invalid(PolicySnapshot::LoadFromFile(path).status(),
                   "PolicySnapshot::LoadFromFile");
    expect_invalid(SparsePolicySnapshotV2::LoadFromFile(path).status(),
                   "SparsePolicySnapshotV2::LoadFromFile");
    PolicyRegistry registry(0, 6);
    expect_invalid(
        registry
            .InstallSnapshotFile("default", path,
                                 SnapshotLoadMode::kDeserialize)
            .status(),
        "InstallSnapshotFile(kDeserialize)");
    expect_invalid(
        registry.InstallSnapshotFile("default", path, SnapshotLoadMode::kMmap)
            .status(),
        "InstallSnapshotFile(kMmap)");
    EXPECT_EQ(registry.install_count(), 0u);
  }
}

}  // namespace
}  // namespace rlplanner::serve
