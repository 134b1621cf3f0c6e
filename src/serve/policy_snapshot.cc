#include "serve/policy_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>


namespace rlplanner::serve {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Feeds one scalar into a running FNV-1a hash.
template <typename T>
std::uint64_t HashScalar(std::uint64_t hash, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return Fnv1a64(&value, sizeof(T), hash);
}

std::uint64_t HashString(std::uint64_t hash, const std::string& text) {
  hash = HashScalar(hash, static_cast<std::uint64_t>(text.size()));
  return Fnv1a64(text.data(), text.size(), hash);
}

// HashString of bits.ToString() (one '0'/'1' byte per bit, independent of
// the word layout), streamed from the words without building the string.
std::uint64_t HashBitString(std::uint64_t hash,
                            const util::DynamicBitset& bits) {
  hash = HashScalar(hash, static_cast<std::uint64_t>(bits.size()));
  for (std::size_t w = 0; w < bits.word_count(); ++w) {
    std::uint64_t word = bits.word_data()[w];
    const std::size_t width = std::min<std::size_t>(64, bits.size() - w * 64);
    for (std::size_t b = 0; b < width; ++b, word >>= 1) {
      hash = (hash ^ ('0' + (word & 1))) * kFnvPrime;
    }
  }
  return hash;
}

}  // namespace

std::uint64_t Fnv1a64(const void* bytes, std::size_t size,
                      std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t CatalogFingerprint(const model::Catalog& catalog) {
  std::uint64_t h = 14695981039346656037ull;
  h = HashScalar(h, static_cast<std::uint32_t>(catalog.domain()));
  h = HashScalar(h, static_cast<std::uint64_t>(catalog.size()));
  for (const std::string& topic : catalog.vocabulary()) {
    h = HashString(h, topic);
  }
  for (const std::string& name : catalog.category_names()) {
    h = HashString(h, name);
  }
  for (const model::Item& item : catalog.items()) {
    h = HashString(h, item.code);
    h = HashScalar(h, static_cast<std::uint32_t>(item.type));
    h = HashScalar(h, static_cast<std::int32_t>(item.category));
    h = HashScalar(h, item.credits);
    for (const auto& group : item.prereqs.groups()) {
      h = HashScalar(h, static_cast<std::uint64_t>(group.size()));
      for (const model::ItemId id : group) {
        h = HashScalar(h, static_cast<std::int32_t>(id));
      }
    }
    h = HashBitString(h, item.topics);
    h = HashScalar(h, item.location.lat);
    h = HashScalar(h, item.location.lng);
    h = HashScalar(h, item.popularity);
    h = HashScalar(h, static_cast<std::int32_t>(item.primary_theme));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Snapshot format v2
// ---------------------------------------------------------------------------

namespace {

constexpr char kMagic[8] = {'R', 'L', 'P', 'S', 'N', 'A', 'P', '2'};
// Header field offsets within the header page (see the header-file diagram).
constexpr std::size_t kV2SectionTableOffset = 112;
constexpr std::size_t kV2PayloadChecksumOffset = 184;
constexpr std::size_t kV2HeaderChecksumOffset = 192;
// End of the header fields; the rest of the header page is zero padding.
constexpr std::size_t kV2HeaderFieldsEnd = 200;
constexpr std::size_t kV2SectionCount = 3;

struct V2Section {
  std::uint32_t kind = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

struct V2Header {
  SnapshotV2Meta meta;
  V2Section sections[kV2SectionCount];
  std::uint64_t payload_checksum = 0;
  bool header_checksum_ok = false;
};

std::size_t AlignToPage(std::size_t offset) {
  return (offset + kSnapshotV2PageBytes - 1) & ~(kSnapshotV2PageBytes - 1);
}

// Writes `value` at `pos` inside the preallocated header page.
template <typename T>
void PutAt(std::string& out, std::size_t pos, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(out.data() + pos, &value, sizeof(T));
}

template <typename T>
T ReadAt(const char* data, std::size_t pos) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, data + pos, sizeof(T));
  return value;
}

// Serializes the provenance block at `pos` (56 bytes, see layout diagram).
void PutProvenance(std::string& out, std::size_t pos,
                   const rl::SarsaConfig& p) {
  PutAt(out, pos + 0, static_cast<std::int32_t>(p.num_episodes));
  PutAt(out, pos + 4, p.alpha);
  PutAt(out, pos + 12, p.gamma);
  PutAt(out, pos + 20, static_cast<std::int32_t>(p.exploration));
  PutAt(out, pos + 24, static_cast<std::int32_t>(p.update_rule));
  PutAt(out, pos + 28, p.explore_epsilon);
  PutAt(out, pos + 36, static_cast<std::int32_t>(p.start_item));
  PutAt(out, pos + 40, static_cast<std::uint8_t>(p.mask_type_overflow));
  // bytes 41..43 stay zero (padding)
  PutAt(out, pos + 44, static_cast<std::int32_t>(p.policy_rounds));
  PutAt(out, pos + 48, p.restart_decay);
}

rl::SarsaConfig ReadProvenance(const char* data, std::size_t pos) {
  rl::SarsaConfig p;
  p.num_episodes = ReadAt<std::int32_t>(data, pos + 0);
  p.alpha = ReadAt<double>(data, pos + 4);
  p.gamma = ReadAt<double>(data, pos + 12);
  p.exploration =
      static_cast<rl::ExplorationMode>(ReadAt<std::int32_t>(data, pos + 20));
  p.update_rule =
      static_cast<rl::UpdateRule>(ReadAt<std::int32_t>(data, pos + 24));
  p.explore_epsilon = ReadAt<double>(data, pos + 28);
  p.start_item =
      static_cast<model::ItemId>(ReadAt<std::int32_t>(data, pos + 36));
  p.mask_type_overflow = ReadAt<std::uint8_t>(data, pos + 40) != 0;
  p.policy_rounds = ReadAt<std::int32_t>(data, pos + 44);
  p.restart_decay = ReadAt<double>(data, pos + 48);
  return p;
}

// Parses and structurally validates a v2 header page: magic, version,
// header size, section table (kinds in order, page alignment, in-bounds,
// overflow-safe) and section-length consistency with num_items/entry_count.
// The header checksum verdict is reported, not enforced — Map() requires
// it, InspectSnapshotFile() reports it.
util::Result<V2Header> ParseV2Header(const char* data, std::size_t size) {
  if (size < sizeof(kMagic) || std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument(
        "bad snapshot magic (not a v2 policy snapshot)");
  }
  if (size < kSnapshotV2PageBytes) {
    return util::Status::InvalidArgument(
        "v2 snapshot smaller than one header page (" + std::to_string(size) +
        " bytes)");
  }
  const auto format_version = ReadAt<std::uint32_t>(data, 8);
  if (format_version != PolicySnapshot::kFormatVersion) {
    return util::Status::InvalidArgument(
        "unsupported v2 snapshot format version " +
        std::to_string(format_version));
  }
  // The checksum verdict is computed up front so that when a structural
  // check below fails AND the header fails its checksum, the error names
  // the root cause (bit rot) instead of the downstream symptom (a
  // nonsensical dimension). Checksum-only damage still parses — Inspect
  // reports it rather than dying on it.
  const bool header_checksum_ok =
      ReadAt<std::uint64_t>(data, kV2HeaderChecksumOffset) ==
      Fnv1a64(data, kV2HeaderChecksumOffset);
  auto structural_error = [&](std::string message) {
    if (!header_checksum_ok) {
      return util::Status::InvalidArgument(
          "v2 snapshot header checksum mismatch: header is corrupted (" +
          std::move(message) + ")");
    }
    return util::Status::InvalidArgument(std::move(message));
  };
  // Serialize() always pads the file out to whole pages, so a ragged tail
  // means truncation even when every section range still fits.
  if (size % kSnapshotV2PageBytes != 0) {
    return structural_error("v2 snapshot size " + std::to_string(size) +
                            " is not a whole number of " +
                            std::to_string(kSnapshotV2PageBytes) +
                            "-byte pages (truncated?)");
  }
  const auto header_bytes = ReadAt<std::uint32_t>(data, 12);
  if (header_bytes != kSnapshotV2PageBytes) {
    return structural_error(
        "v2 snapshot declares header size " + std::to_string(header_bytes) +
        " (expected " + std::to_string(kSnapshotV2PageBytes) + ")");
  }

  V2Header h;
  h.meta.catalog_fingerprint = ReadAt<std::uint64_t>(data, 16);
  h.meta.num_items = ReadAt<std::uint64_t>(data, 24);
  h.meta.seed = ReadAt<std::uint64_t>(data, 32);
  h.meta.entry_count = ReadAt<std::uint64_t>(data, 40);
  h.meta.provenance = ReadProvenance(data, 48);

  const auto section_count = ReadAt<std::uint32_t>(data, 104);
  if (section_count != kV2SectionCount) {
    return structural_error(
        "v2 snapshot declares " + std::to_string(section_count) +
        " sections (expected " + std::to_string(kV2SectionCount) + ")");
  }
  for (std::size_t i = 0; i < kV2SectionCount; ++i) {
    const std::size_t base = kV2SectionTableOffset + i * 24;
    h.sections[i].kind = ReadAt<std::uint32_t>(data, base);
    h.sections[i].offset = ReadAt<std::uint64_t>(data, base + 8);
    h.sections[i].length = ReadAt<std::uint64_t>(data, base + 16);
    if (h.sections[i].kind != i + 1) {
      return util::Status::InvalidArgument(
          "v2 section " + std::to_string(i) + " has kind " +
          std::to_string(h.sections[i].kind) + " (expected " +
          std::to_string(i + 1) + ": row index, keys, values in order)");
    }
    if (h.sections[i].offset % kSnapshotV2PageBytes != 0) {
      return util::Status::InvalidArgument(
          "v2 section " + std::to_string(i) + " offset " +
          std::to_string(h.sections[i].offset) + " is not page-aligned");
    }
    // Overflow-safe bounds: offset and length each within the file, and
    // length within what remains past offset.
    if (h.sections[i].offset > size ||
        h.sections[i].length > size - h.sections[i].offset) {
      return util::Status::InvalidArgument(
          "v2 section " + std::to_string(i) + " [" +
          std::to_string(h.sections[i].offset) + ", +" +
          std::to_string(h.sections[i].length) + ") exceeds the file size " +
          std::to_string(size));
    }
    if (h.sections[i].offset < kSnapshotV2PageBytes) {
      return util::Status::InvalidArgument(
          "v2 section " + std::to_string(i) + " overlaps the header page");
    }
  }
  // Sections must appear in file order without aliasing each other: a
  // header whose keys and values ranges overlap would otherwise pass every
  // per-section bound and serve garbage with a self-consistent payload
  // checksum. Offsets are page-aligned (checked above), so >= the previous
  // end implies >= its page-rounded end; no overflow, since offset + length
  // <= size for every section.
  for (std::size_t i = 1; i < kV2SectionCount; ++i) {
    const V2Section& prev = h.sections[i - 1];
    if (h.sections[i].offset < prev.offset + prev.length) {
      return structural_error(
          "v2 section " + std::to_string(i) + " offset " +
          std::to_string(h.sections[i].offset) + " overlaps section " +
          std::to_string(i - 1) + " ending at " +
          std::to_string(prev.offset + prev.length));
    }
  }
  // Section lengths must match the dimensions the header claims. The
  // num_items/entry_count multiplications cannot overflow: both factors are
  // bounded by the (already validated) section lengths below only if these
  // checks pass, so compare via division instead.
  const V2Section& rows = h.sections[0];
  const V2Section& keys = h.sections[1];
  const V2Section& values = h.sections[2];
  if (rows.length / sizeof(SnapshotV2RowSpan) != h.meta.num_items ||
      rows.length % sizeof(SnapshotV2RowSpan) != 0) {
    return structural_error(
        "v2 row-index length " + std::to_string(rows.length) +
        " does not match num_items " + std::to_string(h.meta.num_items));
  }
  if (keys.length / sizeof(std::uint32_t) != h.meta.entry_count ||
      keys.length % sizeof(std::uint32_t) != 0) {
    return structural_error(
        "v2 packed-keys length " + std::to_string(keys.length) +
        " does not match entry_count " + std::to_string(h.meta.entry_count));
  }
  if (values.length / sizeof(double) != h.meta.entry_count ||
      values.length % sizeof(double) != 0) {
    return structural_error(
        "v2 packed-values length " + std::to_string(values.length) +
        " does not match entry_count " + std::to_string(h.meta.entry_count));
  }

  h.payload_checksum = ReadAt<std::uint64_t>(data, kV2PayloadChecksumOffset);
  h.header_checksum_ok = header_checksum_ok;
  return h;
}

// FNV-1a over the three sections' byte ranges in section-table order.
std::uint64_t ComputePayloadChecksum(const char* data, const V2Header& h) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const V2Section& s : h.sections) {
    hash = Fnv1a64(data + s.offset, static_cast<std::size_t>(s.length), hash);
  }
  return hash;
}

// Everything a full parse verifies beyond the header structure: both
// checksums, and a zero in every byte neither covers — the header padding
// and the page-alignment gap after each section. Serialize zero-fills
// those bytes, so no byte of a fully parsed file can change unnoticed.
// Shared by Deserialize() and InspectSnapshotFile().
util::Status VerifyIntegrity(const char* data, std::size_t size,
                             const V2Header& h) {
  if (!h.header_checksum_ok) {
    return util::Status::InvalidArgument(
        "v2 snapshot header checksum mismatch: header is corrupted");
  }
  if (ComputePayloadChecksum(data, h) != h.payload_checksum) {
    return util::Status::InvalidArgument(
        "v2 snapshot payload checksum mismatch: file is corrupted");
  }
  // ParseV2Header guarantees the sections lie past the header page, in
  // file order and disjoint, so every gap below is a valid range.
  std::size_t gap_begin = kV2HeaderFieldsEnd;
  for (std::size_t i = 0; i <= kV2SectionCount; ++i) {
    const std::size_t gap_end =
        i < kV2SectionCount ? static_cast<std::size_t>(h.sections[i].offset)
                            : size;
    const char* hit = std::find_if(data + gap_begin, data + gap_end,
                                   [](char c) { return c != 0; });
    if (hit != data + gap_end) {
      return util::Status::InvalidArgument(
          "v2 snapshot padding byte " + std::to_string(hit - data) +
          " is non-zero: file is corrupted");
    }
    if (i < kV2SectionCount) {
      gap_begin = static_cast<std::size_t>(h.sections[i].offset +
                                           h.sections[i].length);
    }
  }
  return util::Status::Ok();
}

// The whole file at `path`; NotFound when it cannot be opened.
util::Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Validates every row span against entry_count (overflow-safe) and
// requires non-empty spans to be disjoint and ascending — Serialize's
// canonical packing, and what bounds ValidateRowKeys below to one pass over
// the keys section even on hostile input. Shared by Map() and Deserialize().
util::Status ValidateRowSpans(const SnapshotV2RowSpan* rows,
                              std::uint64_t num_items,
                              std::uint64_t entry_count) {
  std::uint64_t next_free = 0;
  for (std::uint64_t s = 0; s < num_items; ++s) {
    if (rows[s].begin_entry > entry_count ||
        rows[s].count > entry_count - rows[s].begin_entry) {
      return util::Status::InvalidArgument(
          "v2 row " + std::to_string(s) + " span [" +
          std::to_string(rows[s].begin_entry) + ", +" +
          std::to_string(rows[s].count) + ") exceeds entry_count " +
          std::to_string(entry_count));
    }
    if (rows[s].count == 0) continue;
    if (rows[s].begin_entry < next_free) {
      return util::Status::InvalidArgument(
          "v2 row " + std::to_string(s) + " span [" +
          std::to_string(rows[s].begin_entry) + ", +" +
          std::to_string(rows[s].count) +
          ") overlaps an earlier row's entries");
    }
    next_free = rows[s].begin_entry + rows[s].count;
  }
  return util::Status::Ok();
}

// Validates the packed-keys section against the (already validated) row
// index: within every row, keys strictly ascending and < num_items. One
// O(entry_count) pass over the 4-byte keys section — it never faults in
// the larger values section. This is what lets Get's binary search and
// ArgmaxAction's zero-max merge walk trust mapped key bytes without
// per-access checks (pass 1's keyed kernel bounds every key against the
// allowed set itself): after this, a corrupted key can only misdirect a
// read inside the table, never out of bounds. Shared by Map() and
// Deserialize().
util::Status ValidateRowKeys(const SnapshotV2RowSpan* rows,
                             const std::uint32_t* keys,
                             std::uint64_t num_items) {
  for (std::uint64_t s = 0; s < num_items; ++s) {
    const SnapshotV2RowSpan& span = rows[s];
    std::uint32_t prev_key = 0;
    for (std::uint64_t i = 0; i < span.count; ++i) {
      const std::uint32_t key = keys[span.begin_entry + i];
      if (key >= num_items) {
        return util::Status::InvalidArgument(
            "v2 row " + std::to_string(s) + " stores action " +
            std::to_string(key) + " outside the " +
            std::to_string(num_items) + "-item catalog");
      }
      if (i > 0 && key <= prev_key) {
        return util::Status::InvalidArgument(
            "v2 row " + std::to_string(s) +
            " keys are not strictly ascending");
      }
      prev_key = key;
    }
  }
  return util::Status::Ok();
}

}  // namespace

template <typename Table>
std::string PolicySnapshotOf<Table>::Serialize() const {
  const std::size_t n = table.num_items();

  // Pack the table once in canonical order: row spans over ascending
  // states, keys ascending within each row, values parallel.
  std::vector<SnapshotV2RowSpan> rows(n);
  std::vector<std::uint32_t> keys;
  std::vector<double> values;
  if constexpr (requires { table.entry_count(); }) {  // sparse tables only
    keys.reserve(table.entry_count());
    values.reserve(table.entry_count());
  }
  model::ItemId last_state = -1;
  table.ForEachNonZeroEntrySorted(
      [&](model::ItemId s, model::ItemId a, double v) {
        if (s != last_state) {
          rows[static_cast<std::size_t>(s)].begin_entry = keys.size();
          last_state = s;
        }
        rows[static_cast<std::size_t>(s)].count++;
        keys.push_back(static_cast<std::uint32_t>(a));
        values.push_back(v);
      });
  const std::uint64_t entry_count = keys.size();

  const std::size_t rows_offset = kSnapshotV2PageBytes;
  const std::size_t rows_len = n * sizeof(SnapshotV2RowSpan);
  const std::size_t keys_offset = AlignToPage(rows_offset + rows_len);
  const std::size_t keys_len = keys.size() * sizeof(std::uint32_t);
  const std::size_t values_offset = AlignToPage(keys_offset + keys_len);
  const std::size_t values_len = values.size() * sizeof(double);
  const std::size_t total = AlignToPage(values_offset + values_len);

  std::string out(total, '\0');
  std::memcpy(out.data(), kMagic, sizeof(kMagic));
  PutAt(out, 8, kFormatVersion);
  PutAt(out, 12, static_cast<std::uint32_t>(kSnapshotV2PageBytes));
  PutAt(out, 16, catalog_fingerprint);
  PutAt(out, 24, static_cast<std::uint64_t>(n));
  PutAt(out, 32, seed);
  PutAt(out, 40, entry_count);
  PutProvenance(out, 48, provenance);
  PutAt(out, 104, static_cast<std::uint32_t>(kV2SectionCount));
  const std::uint64_t offsets[kV2SectionCount] = {rows_offset, keys_offset,
                                                  values_offset};
  const std::uint64_t lengths[kV2SectionCount] = {rows_len, keys_len,
                                                  values_len};
  for (std::size_t i = 0; i < kV2SectionCount; ++i) {
    const std::size_t base = kV2SectionTableOffset + i * 24;
    PutAt(out, base, static_cast<std::uint32_t>(i + 1));
    PutAt(out, base + 8, offsets[i]);
    PutAt(out, base + 16, lengths[i]);
  }
  if (!rows.empty()) {
    std::memcpy(out.data() + rows_offset, rows.data(), rows_len);
  }
  if (!keys.empty()) {
    std::memcpy(out.data() + keys_offset, keys.data(), keys_len);
    std::memcpy(out.data() + values_offset, values.data(), values_len);
  }

  V2Header h;
  for (std::size_t i = 0; i < kV2SectionCount; ++i) {
    h.sections[i] = {static_cast<std::uint32_t>(i + 1), offsets[i],
                     lengths[i]};
  }
  PutAt(out, kV2PayloadChecksumOffset, ComputePayloadChecksum(out.data(), h));
  PutAt(out, kV2HeaderChecksumOffset,
        Fnv1a64(out.data(), kV2HeaderChecksumOffset));
  return out;
}

template <typename Table>
util::Result<PolicySnapshotOf<Table>> PolicySnapshotOf<Table>::Deserialize(
    const std::string& bytes) {
  auto parsed = ParseV2Header(bytes.data(), bytes.size());
  if (!parsed.ok()) return parsed.status();
  const V2Header& h = parsed.value();
  RLP_RETURN_IF_ERROR(VerifyIntegrity(bytes.data(), bytes.size(), h));

  const auto* rows = reinterpret_cast<const SnapshotV2RowSpan*>(
      bytes.data() + h.sections[0].offset);
  const auto* keys = reinterpret_cast<const std::uint32_t*>(
      bytes.data() + h.sections[1].offset);
  const auto* values = reinterpret_cast<const double*>(
      bytes.data() + h.sections[2].offset);
  RLP_RETURN_IF_ERROR(
      ValidateRowSpans(rows, h.meta.num_items, h.meta.entry_count));
  RLP_RETURN_IF_ERROR(ValidateRowKeys(rows, keys, h.meta.num_items));

  PolicySnapshotOf snapshot;
  snapshot.catalog_fingerprint = h.meta.catalog_fingerprint;
  snapshot.seed = h.meta.seed;
  snapshot.provenance = h.meta.provenance;
  snapshot.table = Table(static_cast<std::size_t>(h.meta.num_items));
  for (std::uint64_t s = 0; s < h.meta.num_items; ++s) {
    const SnapshotV2RowSpan& span = rows[s];
    for (std::uint64_t i = 0; i < span.count; ++i) {
      snapshot.table.Set(static_cast<model::ItemId>(s),
                         static_cast<model::ItemId>(keys[span.begin_entry + i]),
                         values[span.begin_entry + i]);
    }
  }
  return snapshot;
}

template <typename Table>
util::Status PolicySnapshotOf<Table>::SaveToFile(
    const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::Internal("cannot open for write: " + path);
  const std::string bytes = Serialize();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return util::Status::Internal("write failed: " + path);
  return util::Status::Ok();
}

template <typename Table>
util::Result<PolicySnapshotOf<Table>> PolicySnapshotOf<Table>::LoadFromFile(
    const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return Deserialize(bytes.value());
}

template struct PolicySnapshotOf<mdp::QTable>;
template struct PolicySnapshotOf<mdp::SparseQTable>;

util::Result<SparsePolicySnapshotV2> MakeSnapshotV2(
    const core::RlPlanner& planner) {
  if (!planner.trained()) {
    return util::Status::FailedPrecondition(
        "MakeSnapshotV2() requires a trained planner");
  }
  SparsePolicySnapshotV2 snapshot;
  snapshot.catalog_fingerprint =
      CatalogFingerprint(*planner.instance().catalog);
  snapshot.provenance = planner.config().sarsa;
  snapshot.seed = planner.config().seed;
  snapshot.table = planner.uses_sparse()
                       ? planner.sparse_q_table()
                       : mdp::SparseQTable::FromDense(planner.q_table());
  return snapshot;
}

// --- MappedPolicy ----------------------------------------------------------

MappedPolicy::MappedPolicy(MappedPolicy&& other) noexcept
    : map_(other.map_),
      map_size_(other.map_size_),
      meta_(other.meta_),
      rows_(other.rows_),
      keys_(other.keys_),
      values_(other.values_) {
  other.map_ = nullptr;
  other.map_size_ = 0;
  other.rows_ = nullptr;
  other.keys_ = nullptr;
  other.values_ = nullptr;
}

MappedPolicy& MappedPolicy::operator=(MappedPolicy&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    map_ = other.map_;
    map_size_ = other.map_size_;
    meta_ = other.meta_;
    rows_ = other.rows_;
    keys_ = other.keys_;
    values_ = other.values_;
    other.map_ = nullptr;
    other.map_size_ = 0;
    other.rows_ = nullptr;
    other.keys_ = nullptr;
    other.values_ = nullptr;
  }
  return *this;
}

MappedPolicy::~MappedPolicy() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

util::Result<MappedPolicy> MappedPolicy::Map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return util::Status::NotFound("cannot open: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return util::Status::Internal("fstat failed: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  // Reject before mapping: mmap of an empty file fails with EINVAL, which
  // would mask the descriptive truncation error ParseV2Header gives.
  if (size < kSnapshotV2PageBytes) {
    ::close(fd);
    return util::Status::InvalidArgument(
        "v2 snapshot smaller than one header page (" + std::to_string(size) +
        " bytes): " + path);
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping survives the close; the kernel keeps the file pinned.
  ::close(fd);
  if (map == MAP_FAILED) {
    return util::Status::Internal("mmap failed: " + path);
  }

  const char* data = static_cast<const char*>(map);
  auto parsed = ParseV2Header(data, size);
  if (!parsed.ok()) {
    ::munmap(map, size);
    return parsed.status();
  }
  const V2Header& h = parsed.value();
  if (!h.header_checksum_ok) {
    ::munmap(map, size);
    return util::Status::InvalidArgument(
        "v2 snapshot header checksum mismatch: header is corrupted (" + path +
        ")");
  }
  // Eagerly validate every row span (O(num_items) over the row index) and
  // every packed key (O(entry_count) over the 4-byte keys section), so
  // corrupt spans or keys can never send a later Get()/ArgmaxAction() out
  // of bounds — the serving hot loops index the Q row by these raw mapped
  // bytes without per-access checks. The payload checksum is deliberately
  // NOT verified here (that would fault in the far larger values section
  // and defeat the zero-copy swap); a flipped *value* bit yields a wrong Q
  // read, even NaN or +-inf, never an OOB access or an inadmissible action.
  const auto* rows = reinterpret_cast<const SnapshotV2RowSpan*>(
      data + h.sections[0].offset);
  const auto* keys =
      reinterpret_cast<const std::uint32_t*>(data + h.sections[1].offset);
  {
    auto status =
        ValidateRowSpans(rows, h.meta.num_items, h.meta.entry_count);
    if (status.ok()) status = ValidateRowKeys(rows, keys, h.meta.num_items);
    if (!status.ok()) {
      ::munmap(map, size);
      return status;
    }
  }

  MappedPolicy policy;
  policy.map_ = map;
  policy.map_size_ = size;
  policy.meta_ = h.meta;
  policy.rows_ = rows;
  policy.keys_ = keys;
  policy.values_ =
      reinterpret_cast<const double*>(data + h.sections[2].offset);
  return policy;
}

// --- snapshot-info ---------------------------------------------------------

util::Result<SnapshotFileInfo> InspectSnapshotFile(const std::string& path) {
  auto read = ReadFileBytes(path);
  if (!read.ok()) return read.status();
  const std::string& bytes = read.value();
  auto parsed = ParseV2Header(bytes.data(), bytes.size());
  if (!parsed.ok()) return parsed.status();
  const V2Header& h = parsed.value();
  SnapshotFileInfo info;
  info.format_version = PolicySnapshot::kFormatVersion;
  info.num_items = h.meta.num_items;
  info.entry_count = h.meta.entry_count;
  info.catalog_fingerprint = h.meta.catalog_fingerprint;
  info.seed = h.meta.seed;
  info.file_bytes = bytes.size();
  info.checksum_ok = VerifyIntegrity(bytes.data(), bytes.size(), h).ok();
  const auto* values = reinterpret_cast<const double*>(
      bytes.data() + h.sections[2].offset);
  std::uint64_t non_zero = 0;
  for (std::uint64_t i = 0; i < h.meta.entry_count; ++i) {
    if (values[i] != 0.0) ++non_zero;
  }
  info.nonzero_fraction =
      h.meta.num_items == 0
          ? 0.0
          : static_cast<double>(non_zero) /
                (static_cast<double>(h.meta.num_items) *
                 static_cast<double>(h.meta.num_items));
  return info;
}

}  // namespace rlplanner::serve
