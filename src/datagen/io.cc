#include "datagen/io.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/string_util.h"

namespace rlplanner::datagen {

namespace {

constexpr char kVocabularyRow[] = "__vocabulary__";
constexpr char kCategoriesRow[] = "__categories__";

// The one header SerializeCatalog writes. Both parsers index rows by these
// positions, and util::ParseCsv only holds each row to the header's width.
const std::vector<std::string>& CatalogHeader() {
  static const std::vector<std::string> header = {
      "code",   "name", "type", "category",   "credits", "prereqs",
      "topics", "lat",  "lng",  "popularity", "theme"};
  return header;
}

util::Status CheckCatalogHeader(const util::CsvDocument& doc) {
  if (doc.header != CatalogHeader()) {
    return util::Status::InvalidArgument(
        "CSV header must be " + util::Join(CatalogHeader(), ","));
  }
  return util::Status::Ok();
}

std::string RenderPrereqs(const model::Catalog& catalog,
                          const model::PrereqExpr& prereqs) {
  std::vector<std::string> groups;
  for (const auto& group : prereqs.groups()) {
    std::vector<std::string> codes;
    for (model::ItemId id : group) codes.push_back(catalog.item(id).code);
    groups.push_back(util::Join(codes, " OR "));
  }
  return util::Join(groups, " AND ");
}

util::Result<model::PrereqExpr> ParsePrereqs(const model::Catalog& catalog,
                                             const std::string& text) {
  model::PrereqExpr expr;
  if (util::StripWhitespace(text).empty()) return expr;
  // " AND " separates groups; " OR " separates members.
  std::vector<std::string> groups;
  std::string remaining = text;
  std::size_t pos;
  while ((pos = remaining.find(" AND ")) != std::string::npos) {
    groups.push_back(remaining.substr(0, pos));
    remaining = remaining.substr(pos + 5);
  }
  groups.push_back(remaining);
  for (const std::string& group_text : groups) {
    std::vector<model::ItemId> members;
    std::string rest = group_text;
    for (;;) {
      const std::size_t or_pos = rest.find(" OR ");
      const std::string code(util::StripWhitespace(
          or_pos == std::string::npos ? rest : rest.substr(0, or_pos)));
      auto found = catalog.FindByCode(code);
      if (!found.ok()) return found.status();
      members.push_back(found.value());
      if (or_pos == std::string::npos) break;
      rest = rest.substr(or_pos + 4);
    }
    expr.AddGroup(std::move(members));
  }
  return expr;
}

std::string RenderTopics(const model::Catalog& catalog,
                         const model::TopicVector& topics) {
  std::vector<std::string> names;
  for (std::size_t t = 0; t < topics.size(); ++t) {
    if (topics.Test(t)) names.push_back(catalog.vocabulary()[t]);
  }
  return util::Join(names, ";");
}

}  // namespace

std::string SerializeCatalog(const model::Catalog& catalog) {
  util::CsvDocument doc;
  doc.header = CatalogHeader();
  auto blank_row = [&doc]() {
    return std::vector<std::string>(doc.header.size());
  };

  {
    auto row = blank_row();
    row[0] = kVocabularyRow;
    std::vector<std::string> vocab = catalog.vocabulary();
    row[6] = util::Join(vocab, ";");
    doc.rows.push_back(std::move(row));
  }
  {
    auto row = blank_row();
    row[0] = kCategoriesRow;
    row[6] = util::Join(catalog.category_names(), ";");
    doc.rows.push_back(std::move(row));
  }

  for (const model::Item& item : catalog.items()) {
    auto row = blank_row();
    row[0] = item.code;
    row[1] = item.name;
    row[2] = item.type == model::ItemType::kPrimary ? "primary" : "secondary";
    row[3] = std::to_string(item.category);
    row[4] = util::FormatDouble(item.credits, 4);
    row[5] = RenderPrereqs(catalog, item.prereqs);
    row[6] = RenderTopics(catalog, item.topics);
    row[7] = util::FormatDouble(item.location.lat, 6);
    row[8] = util::FormatDouble(item.location.lng, 6);
    row[9] = util::FormatDouble(item.popularity, 3);
    row[10] = std::to_string(item.primary_theme);
    doc.rows.push_back(std::move(row));
  }
  return util::WriteCsv(doc);
}

util::Result<model::Catalog> ParseCatalog(model::Domain domain,
                                          const std::string& csv_text) {
  auto parsed = util::ParseCsv(csv_text);
  if (!parsed.ok()) return parsed.status();
  const util::CsvDocument& doc = parsed.value();
  RLP_RETURN_IF_ERROR(CheckCatalogHeader(doc));
  if (doc.rows.size() < 2 || doc.rows[0][0] != kVocabularyRow ||
      doc.rows[1][0] != kCategoriesRow) {
    return util::Status::InvalidArgument(
        "catalog CSV must start with __vocabulary__ and __categories__ rows");
  }
  std::vector<std::string> vocabulary;
  if (!doc.rows[0][6].empty()) {
    vocabulary = util::Split(doc.rows[0][6], ';');
  }
  model::Catalog catalog(domain, vocabulary);
  if (!doc.rows[1][6].empty()) {
    catalog.set_category_names(util::Split(doc.rows[1][6], ';'));
  }

  // First pass: items without prereqs (codes may reference later rows).
  for (std::size_t r = 2; r < doc.rows.size(); ++r) {
    const auto& row = doc.rows[r];
    model::Item item;
    item.code = row[0];
    item.name = row[1];
    if (row[2] != "primary" && row[2] != "secondary") {
      return util::Status::InvalidArgument("bad type in row for " + row[0]);
    }
    item.type = row[2] == "primary" ? model::ItemType::kPrimary
                                    : model::ItemType::kSecondary;
    item.category = std::atoi(row[3].c_str());
    item.credits = std::strtod(row[4].c_str(), nullptr);
    model::TopicVector topics(catalog.vocabulary_size());
    if (!row[6].empty()) {
      for (const std::string& name : util::Split(row[6], ';')) {
        const int id = catalog.TopicId(name);
        if (id < 0) {
          return util::Status::InvalidArgument("unknown topic: " + name);
        }
        topics.Set(static_cast<std::size_t>(id));
      }
    }
    item.topics = std::move(topics);
    item.location.lat = std::strtod(row[7].c_str(), nullptr);
    item.location.lng = std::strtod(row[8].c_str(), nullptr);
    item.popularity = std::strtod(row[9].c_str(), nullptr);
    item.primary_theme = std::atoi(row[10].c_str());
    auto added = catalog.AddItem(std::move(item));
    if (!added.ok()) return added.status();
  }

  // Second pass: prereqs, rebuilt into a fresh catalog.
  model::Catalog final_catalog(domain, vocabulary);
  final_catalog.set_category_names(catalog.category_names());
  for (std::size_t r = 2; r < doc.rows.size(); ++r) {
    model::Item item = catalog.item(static_cast<model::ItemId>(r - 2));
    auto prereqs = ParsePrereqs(catalog, doc.rows[r][5]);
    if (!prereqs.ok()) return prereqs.status();
    item.prereqs = std::move(prereqs).value();
    auto added = final_catalog.AddItem(std::move(item));
    if (!added.ok()) return added.status();
  }
  return final_catalog;
}

std::string SerializeDataset(const Dataset& dataset) {
  // Reuse the catalog serialization and prepend three reserved rows.
  auto parsed = util::ParseCsv(SerializeCatalog(dataset.catalog));
  util::CsvDocument doc = std::move(parsed).value();
  auto blank_row = [&doc]() {
    return std::vector<std::string>(doc.header.size());
  };

  std::vector<std::vector<std::string>> extra;
  {
    auto row = blank_row();
    row[0] = "__meta__";
    row[1] = dataset.name;
    row[2] = dataset.catalog.domain() == model::Domain::kTrip ? "trip"
                                                              : "course";
    row[6] = dataset.catalog.empty()
                 ? ""
                 : dataset.catalog.item(dataset.default_start).code;
    extra.push_back(std::move(row));
  }
  {
    const model::HardConstraints& hard = dataset.hard;
    auto row = blank_row();
    row[0] = "__hard__";
    row[1] = util::FormatDouble(hard.min_credits, 4);
    row[2] = std::to_string(hard.num_primary);
    row[3] = std::to_string(hard.num_secondary);
    row[4] = std::to_string(hard.gap);
    row[5] = std::isfinite(hard.distance_threshold_km)
                 ? util::FormatDouble(hard.distance_threshold_km, 4)
                 : "inf";
    std::vector<std::string> minima;
    for (int m : hard.category_min_counts) minima.push_back(std::to_string(m));
    row[6] = util::Join(minima, ";");
    row[7] = hard.no_consecutive_same_theme ? "1" : "0";
    extra.push_back(std::move(row));
  }
  {
    auto row = blank_row();
    row[0] = "__soft__";
    std::vector<std::string> templates;
    for (const auto& permutation :
         dataset.soft.interleaving.permutations()) {
      templates.push_back(
          model::InterleavingTemplate::ToCompactString(permutation));
    }
    row[1] = util::Join(templates, ";");
    row[6] = RenderTopics(dataset.catalog, dataset.soft.ideal_topics);
    extra.push_back(std::move(row));
  }
  doc.rows.insert(doc.rows.begin(), extra.begin(), extra.end());
  return util::WriteCsv(doc);
}

util::Result<Dataset> ParseDataset(const std::string& csv_text) {
  auto parsed = util::ParseCsv(csv_text);
  if (!parsed.ok()) return parsed.status();
  util::CsvDocument doc = std::move(parsed).value();
  RLP_RETURN_IF_ERROR(CheckCatalogHeader(doc));
  if (doc.rows.size() < 3 || doc.rows[0][0] != "__meta__" ||
      doc.rows[1][0] != "__hard__" || doc.rows[2][0] != "__soft__") {
    return util::Status::InvalidArgument(
        "dataset CSV must start with __meta__, __hard__, __soft__ rows");
  }
  const std::vector<std::string> meta = doc.rows[0];
  const std::vector<std::string> hard_row = doc.rows[1];
  const std::vector<std::string> soft_row = doc.rows[2];

  const model::Domain domain =
      meta[2] == "trip" ? model::Domain::kTrip : model::Domain::kCourse;
  if (meta[2] != "trip" && meta[2] != "course") {
    return util::Status::InvalidArgument("unknown domain: " + meta[2]);
  }

  // Strip the three dataset rows, re-serialize the remainder as a catalog
  // document, and reuse the catalog parser.
  util::CsvDocument catalog_doc;
  catalog_doc.header = doc.header;
  catalog_doc.rows.assign(doc.rows.begin() + 3, doc.rows.end());
  auto catalog = ParseCatalog(domain, util::WriteCsv(catalog_doc));
  if (!catalog.ok()) return catalog.status();

  Dataset dataset;
  dataset.name = meta[1];
  dataset.catalog = std::move(catalog).value();

  dataset.hard.min_credits = std::strtod(hard_row[1].c_str(), nullptr);
  dataset.hard.num_primary = std::atoi(hard_row[2].c_str());
  dataset.hard.num_secondary = std::atoi(hard_row[3].c_str());
  dataset.hard.gap = std::atoi(hard_row[4].c_str());
  dataset.hard.distance_threshold_km =
      hard_row[5] == "inf" ? std::numeric_limits<double>::infinity()
                           : std::strtod(hard_row[5].c_str(), nullptr);
  if (!hard_row[6].empty()) {
    for (const std::string& m : util::Split(hard_row[6], ';')) {
      dataset.hard.category_min_counts.push_back(std::atoi(m.c_str()));
    }
  }
  dataset.hard.no_consecutive_same_theme = hard_row[7] == "1";

  if (!soft_row[1].empty()) {
    auto templates = model::InterleavingTemplate::FromStrings(
        util::Split(soft_row[1], ';'));
    if (!templates.ok()) return templates.status();
    dataset.soft.interleaving = std::move(templates).value();
  }
  model::TopicVector ideal(dataset.catalog.vocabulary_size());
  if (!soft_row[6].empty()) {
    for (const std::string& name : util::Split(soft_row[6], ';')) {
      const int id = dataset.catalog.TopicId(name);
      if (id < 0) {
        return util::Status::InvalidArgument("unknown ideal topic: " + name);
      }
      ideal.Set(static_cast<std::size_t>(id));
    }
  }
  dataset.soft.ideal_topics = std::move(ideal);

  if (!meta[6].empty()) {
    auto start = dataset.catalog.FindByCode(meta[6]);
    if (!start.ok()) return start.status();
    dataset.default_start = start.value();
  }
  return dataset;
}

util::Status SaveDatasetCsv(const Dataset& dataset,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::Internal("cannot open for write: " + path);
  out << SerializeDataset(dataset);
  if (!out) return util::Status::Internal("write failed: " + path);
  return util::Status::Ok();
}

util::Result<Dataset> LoadDatasetCsv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseDataset(buffer.str());
}

util::Status SaveCatalogCsv(const model::Catalog& catalog,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::Internal("cannot open for write: " + path);
  out << SerializeCatalog(catalog);
  if (!out) return util::Status::Internal("write failed: " + path);
  return util::Status::Ok();
}

util::Result<model::Catalog> LoadCatalogCsv(model::Domain domain,
                                            const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCatalog(domain, buffer.str());
}

}  // namespace rlplanner::datagen
