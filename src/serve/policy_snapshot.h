#ifndef RLPLANNER_SERVE_POLICY_SNAPSHOT_H_
#define RLPLANNER_SERVE_POLICY_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/planner.h"
#include "mdp/q_table.h"
#include "mdp/sparse_q_table.h"
#include "model/catalog.h"
#include "rl/sarsa.h"
#include "util/bitset.h"
#include "util/status.h"

namespace rlplanner::serve {

/// FNV-1a 64-bit hash of `bytes` (the snapshot checksum primitive).
std::uint64_t Fnv1a64(const void* bytes, std::size_t size,
                      std::uint64_t seed = 14695981039346656037ull);

/// Structural fingerprint of a catalog: a 64-bit hash over the domain, the
/// topic vocabulary, the category names, and every item's code, type,
/// category, credits, prerequisites, topic bits, location, popularity and
/// theme. Two catalogs with the same fingerprint index the same Q-table
/// rows/columns, so a policy trained on one is servable on the other.
std::uint64_t CatalogFingerprint(const model::Catalog& catalog);

// ---------------------------------------------------------------------------
// Snapshot format v2, the one policy file format: page-aligned sparse
// layout, mmap-servable zero-copy.
// ---------------------------------------------------------------------------

/// Page size every v2 section offset is aligned to. 4096 matches the page
/// size of every platform this builds on, so a mapped section never shares
/// a page with the header (and madvise/fault behavior stays per-section).
inline constexpr std::size_t kSnapshotV2PageBytes = 4096;

/// Section kinds in a v2 section table, in required file order.
enum class SnapshotV2Section : std::uint32_t {
  kRowIndex = 1,      // num_items x {u64 begin_entry, u64 count}
  kPackedKeys = 2,    // entry_count x u32 action id, ascending within a row
  kPackedValues = 3,  // entry_count x f64, parallel to the keys
};

/// One row of the v2 row-index section: the row's stored entries occupy
/// [begin_entry, begin_entry + count) of the packed key/value arrays.
struct SnapshotV2RowSpan {
  std::uint64_t begin_entry = 0;
  std::uint64_t count = 0;
};
static_assert(sizeof(SnapshotV2RowSpan) == 16,
              "row-index entries are written raw into the file");

/// Everything a v2 header carries besides the section table (the fields a
/// consumer needs before touching any payload page).
struct SnapshotV2Meta {
  std::uint64_t catalog_fingerprint = 0;
  std::uint64_t num_items = 0;
  std::uint64_t seed = 0;
  std::uint64_t entry_count = 0;
  rl::SarsaConfig provenance;
};

/// A trained policy as a loadable artifact (the "train once, serve many"
/// half of the stack): the Q-table plus the provenance needed to validate
/// and reproduce it — integrity (checksums), compatibility (catalog
/// fingerprint) and provenance (SarsaConfig + seed). Every policy file is
/// this one format, whatever table trained it; it is designed to be served
/// straight off an mmap (MappedPolicy): fixed 4096-byte header page, then
/// page-aligned sections listed in a section table, all fixed-width
/// little-endian.
///
/// On-disk layout (byte offsets within the header page):
///     0  magic "RLPSNAP2" (8 bytes)
///     8  u32  format_version (= 2)
///    12  u32  header_bytes   (= 4096)
///    16  u64  catalog_fingerprint
///    24  u64  num_items
///    32  u64  seed
///    40  u64  entry_count    (non-zero entries written to the file; the
///                             in-memory table may store explicit zeros,
///                             which serialize as absent — they read back
///                             as the same +0.0)
///    48  provenance, 56 bytes: i32 num_episodes, f64 alpha, f64 gamma,
///        i32 exploration, i32 update_rule, f64 explore_epsilon,
///        i32 start_item, u8 mask_type_overflow, u8 pad[3],
///        i32 policy_rounds, f64 restart_decay
///   104  u32  section_count  (= 3)
///   108  u32  reserved       (= 0)
///   112  section table, 3 x 24 bytes:
///        {u32 kind, u32 reserved, u64 offset, u64 length}
///        kinds 1 (row index), 2 (packed keys), 3 (packed values), in that
///        order; every offset is a multiple of 4096 and offset + length
///        never exceeds the file size
///   184  u64  payload_checksum (FNV-1a over the three sections' bytes,
///        in section-table order)
///   192  u64  header_checksum  (FNV-1a over header bytes [0, 192))
///   200  zero padding to 4096; each section is likewise zero-padded to
///        the next page boundary
///
/// The header checksum makes header corruption detectable in O(1) at map
/// time; the payload checksum covers the data pages. The full parse
/// (Deserialize, LoadFromFile) and `rlplanner_cli snapshot-info` verify
/// both and also require every padding byte to be zero, so no byte of a
/// fully parsed file can change unnoticed. MappedPolicy::Map deliberately
/// checks neither the payload checksum nor the padding: it validates the
/// row index AND the packed-keys section (spans in bounds and disjoint,
/// keys < num_items and strictly ascending per row) without ever touching
/// the far larger values section, so the hot swap stays cheap (documented
/// trade-off: a flipped payload bit surfaces as a map-time rejection or a
/// wrong Q read, never as out-of-bounds access, because every index a read
/// dereferences is validated up front).
///
/// `Table` is mdp::QTable or mdp::SparseQTable (the two aliases below);
/// both write non-zero cells in ascending (state, action) order, so one
/// policy serializes to the same bytes whichever table holds it.
template <typename Table>
struct PolicySnapshotOf {
  static constexpr std::uint32_t kFormatVersion = 2;

  std::uint64_t catalog_fingerprint = 0;
  /// Training provenance: the SarsaConfig the table was learned with.
  rl::SarsaConfig provenance;
  /// The planner seed used for training.
  std::uint64_t seed = 0;
  Table table{0};

  /// Serializes to the page-aligned layout above.
  std::string Serialize() const;

  /// Full parse of `bytes`: both checksums and the zero padding verified;
  /// bad magic/version, truncated files, malformed section tables, and
  /// out-of-bounds row spans or keys are rejected with a descriptive
  /// InvalidArgument.
  static util::Result<PolicySnapshotOf> Deserialize(const std::string& bytes);

  util::Status SaveToFile(const std::string& path) const;
  static util::Result<PolicySnapshotOf> LoadFromFile(const std::string& path);
};

/// Dense alias. Deserialize allocates num_items^2 cells whatever the file
/// size, so it parses only bytes this process serialized itself (the
/// fleet's publish seam, in-process benches). Files from outside load
/// through SparsePolicySnapshotV2 or MappedPolicy, whose allocations are
/// bounded by the file size.
using PolicySnapshot = PolicySnapshotOf<mdp::QTable>;
/// Sparse alias: the parse for files from outside.
using SparsePolicySnapshotV2 = PolicySnapshotOf<mdp::SparseQTable>;

extern template struct PolicySnapshotOf<mdp::QTable>;
extern template struct PolicySnapshotOf<mdp::SparseQTable>;

/// Snapshots a trained planner (FailedPrecondition when untrained). A
/// dense-trained planner is converted through its non-zero entries (cheap
/// at dense-viable scales), so every trained planner yields the same file
/// for the same policy.
util::Result<SparsePolicySnapshotV2> MakeSnapshotV2(
    const core::RlPlanner& planner);

/// An immutable policy view served directly off an mmap of a v2 snapshot
/// file — the zero-copy half of the hot-swap story. Map() validates the
/// header checksum, the section table (kinds, order, alignment, bounds,
/// non-overlap), every row span (O(num_items)) and every packed key
/// (O(entry_count), keys pages only — the values section is never
/// faulted in), then serves `Get`/`ArgmaxAction` straight from the
/// mapping: installing a
/// multi-GB policy costs page-table setup, not a deserialize pass, and
/// resident memory is shared across processes mapping the same file.
///
/// Satisfies the recommender's QModel concept (`Get`, `ArgmaxAction`), so
/// rl::RecommendPlan/RecommendPlanBeam traverse it like any in-memory
/// table. Move-only; the mapping lives until destruction.
class MappedPolicy {
 public:
  /// Maps `path` and validates it as described above. The file must remain
  /// unmodified for the lifetime of the mapping (snapshot files are
  /// write-once by convention; PolicyRegistry never mutates them).
  static util::Result<MappedPolicy> Map(const std::string& path);

  MappedPolicy(MappedPolicy&& other) noexcept;
  MappedPolicy& operator=(MappedPolicy&& other) noexcept;
  MappedPolicy(const MappedPolicy&) = delete;
  MappedPolicy& operator=(const MappedPolicy&) = delete;
  ~MappedPolicy();

  std::size_t num_items() const {
    return static_cast<std::size_t>(meta_.num_items);
  }

  /// Q(state, action) and the greedy argmax, read in place through the
  /// one sparse row reader (mdp::KeyedRow): a v2 row is already the
  /// SparseQTable row format, so both serve identical results.
  double Get(model::ItemId state, model::ItemId action) const {
    return Row(state).Get(action);
  }
  model::ItemId ArgmaxAction(model::ItemId state,
                             const util::DynamicBitset& allowed) const {
    return Row(state).ArgmaxAction(allowed);
  }

  const SnapshotV2Meta& meta() const { return meta_; }
  std::uint64_t entry_count() const { return meta_.entry_count; }
  std::size_t file_bytes() const { return map_size_; }

 private:
  MappedPolicy() = default;

  // `state`'s stored entries, in place in the mapping.
  mdp::KeyedRow Row(model::ItemId state) const {
    const SnapshotV2RowSpan& span = rows_[static_cast<std::size_t>(state)];
    return {keys_ + span.begin_entry, values_ + span.begin_entry,
            static_cast<std::size_t>(span.count)};
  }

  void* map_ = nullptr;
  std::size_t map_size_ = 0;
  SnapshotV2Meta meta_;
  const SnapshotV2RowSpan* rows_ = nullptr;
  const std::uint32_t* keys_ = nullptr;
  const double* values_ = nullptr;
};

/// What `rlplanner_cli snapshot-info` prints: everything knowable about a
/// snapshot file without a catalog at hand.
struct SnapshotFileInfo {
  std::uint32_t format_version = 0;
  std::uint64_t num_items = 0;
  std::uint64_t entry_count = 0;      // stored entries
  double nonzero_fraction = 0.0;      // non-zero cells over |I|^2
  bool checksum_ok = false;           // both checksums and zero padding
  std::uint64_t catalog_fingerprint = 0;
  std::uint64_t seed = 0;
  std::uint64_t file_bytes = 0;
};

/// Fully validates the file: both checksums and the zero padding.
/// Corrupt-but-parseable headers yield `checksum_ok = false` rather than an
/// error when the dimensions are still readable; structurally unreadable
/// files (including anything that is not a v2 snapshot) yield
/// InvalidArgument.
util::Result<SnapshotFileInfo> InspectSnapshotFile(const std::string& path);

}  // namespace rlplanner::serve

#endif  // RLPLANNER_SERVE_POLICY_SNAPSHOT_H_
