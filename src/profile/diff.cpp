#include "profile/diff.hpp"

#include <cstdio>
#include <map>

#include "support/table.hpp"

namespace eclp::profile {

namespace {

/// Fetch doc[path...] asserting presence; used by the validator so every
/// failure names the offending field.
const json::Value& require_member(const json::Value& obj, const char* key,
                                  const char* where) {
  const json::Value* v = obj.find(key);
  ECLP_CHECK_MSG(v != nullptr, "profile: missing '" << where << "." << key
                                                    << "'");
  return *v;
}

void require_number(const json::Value& obj, const char* key,
                    const char* where) {
  ECLP_CHECK_MSG(require_member(obj, key, where).is_number(),
                 "profile: '" << where << "." << key << "' must be a number");
}

void require_string(const json::Value& obj, const char* key,
                    const char* where) {
  ECLP_CHECK_MSG(require_member(obj, key, where).is_string(),
                 "profile: '" << where << "." << key << "' must be a string");
}

/// Name-keyed map of the "kernels" array.
std::map<std::string, const json::Value*> kernels_by_name(
    const json::Value& doc) {
  std::map<std::string, const json::Value*> out;
  for (const json::Value& k : doc.at("kernels").items()) {
    out.emplace(k.at("name").as_string(), &k);
  }
  return out;
}

/// Flatten a validated profile into gated rows. `other` is the document it
/// is compared against; it only decides which kernels get an llc_misses row.
std::vector<DiffRow> profile_rows(const json::Value& doc,
                                  const json::Value& other,
                                  const DiffOptions& options) {
  const double cycle_tol = options.cycle_tolerance_pct;
  const double count_tol = options.counter_tolerance_pct;
  std::vector<DiffRow> rows;
  const json::Value& totals = doc.at("totals");
  rows.push_back({"totals/modeled_cycles",
                  totals.at("modeled_cycles").as_number(), cycle_tol});
  rows.push_back({"totals/launches", totals.at("launches").as_number(),
                  count_tol});
  rows.push_back({"totals/atomics", totals.at("atomics").as_number(),
                  count_tol});

  const auto other_kernels = kernels_by_name(other);
  for (const auto& [name, k] : kernels_by_name(doc)) {
    const std::string prefix = "kernel/" + name + "/";
    rows.push_back({prefix + "modeled_cycles",
                    k->at("modeled_cycles").as_number(), cycle_tol});
    rows.push_back({prefix + "launches", k->at("launches").as_number(),
                    count_tol});
    rows.push_back({prefix + "atomics", k->at("atomics").as_number(),
                    count_tol});
    // Modeled-LLC misses are optional (emitted only when the cache
    // classified something); gate them whenever either side recorded any,
    // treating the absent side as zero. Hits are not gated per kernel.
    const json::Value* misses = k->find("llc_misses");
    const auto peer = other_kernels.find(name);
    if (misses != nullptr || (peer != other_kernels.end() &&
                              peer->second->find("llc_misses") != nullptr)) {
      rows.push_back({prefix + "llc_misses",
                      misses == nullptr ? 0.0 : misses->as_number(),
                      count_tol});
    }
  }

  for (const auto& [name, value] : doc.at("counters").members()) {
    // llc.hits is informational: hit growth usually means *better*
    // locality, and llc.misses carries the regression gate.
    rows.push_back({"counter/" + name, value.as_number(),
                    name == "llc.hits" ? kInformational : count_tol});
  }
  return rows;
}

}  // namespace

const char* diff_status_name(DiffStatus status) {
  switch (status) {
    case DiffStatus::kOk: return "ok";
    case DiffStatus::kImproved: return "improved";
    case DiffStatus::kRegressed: return "REGRESSED";
    case DiffStatus::kAdded: return "added";
    case DiffStatus::kRemoved: return "removed";
  }
  return "unknown";
}

u32 DiffReport::regressions() const {
  u32 n = 0;
  for (const DiffEntry& e : entries) {
    if (e.status == DiffStatus::kRegressed) ++n;
  }
  return n;
}

std::string DiffReport::to_string(bool all) const {
  std::string out;
  char line[256];
  for (const DiffEntry& e : entries) {
    if (!all && e.status == DiffStatus::kOk) continue;
    const std::string delta = e.base == 0.0 && e.cand != 0.0
                                  ? "from 0"
                                  : fmt::signed_pct(e.delta_pct) + "%";
    std::snprintf(line, sizeof(line), "%-10s %-48s %14.0f -> %14.0f (%s)\n",
                  diff_status_name(e.status), e.metric.c_str(), e.base, e.cand,
                  delta.c_str());
    out += line;
  }
  const u32 n = regressions();
  std::snprintf(line, sizeof(line), "%u regression%s\n", n, n == 1 ? "" : "s");
  out += line;
  return out;
}

void validate_profile(const json::Value& doc) {
  ECLP_CHECK_MSG(doc.is_object(), "profile: document must be an object");
  require_string(doc, "schema", "$");
  ECLP_CHECK_MSG(doc.at("schema").as_string() == "eclp.profile",
                 "profile: schema tag is '" << doc.at("schema").as_string()
                                            << "', expected 'eclp.profile'");
  require_number(doc, "version", "$");
  ECLP_CHECK_MSG(doc.at("version").as_u64() == 1,
                 "profile: unsupported version " << doc.at("version").as_u64());

  ECLP_CHECK_MSG(require_member(doc, "meta", "$").is_object(),
                 "profile: 'meta' must be an object");
  for (const auto& [key, value] : doc.at("meta").members()) {
    ECLP_CHECK_MSG(value.is_string(),
                   "profile: 'meta." << key << "' must be a string");
  }

  const json::Value& totals = require_member(doc, "totals", "$");
  ECLP_CHECK_MSG(totals.is_object(), "profile: 'totals' must be an object");
  require_number(totals, "modeled_cycles", "totals");
  require_number(totals, "launches", "totals");
  require_number(totals, "atomics", "totals");
  require_number(totals, "spans", "totals");

  const json::Value& spans = require_member(doc, "spans", "$");
  ECLP_CHECK_MSG(spans.is_array(), "profile: 'spans' must be an array");
  ECLP_CHECK_MSG(spans.items().size() == totals.at("spans").as_u64(),
                 "profile: totals.spans says "
                     << totals.at("spans").as_u64() << " but 'spans' holds "
                     << spans.items().size());
  for (const json::Value& s : spans.items()) {
    ECLP_CHECK_MSG(s.is_object(), "profile: span entries must be objects");
    require_number(s, "id", "spans[]");
    require_number(s, "parent", "spans[]");
    require_string(s, "kind", "spans[]");
    require_string(s, "name", "spans[]");
    require_number(s, "start_cycles", "spans[]");
    require_number(s, "cycles", "spans[]");
    const std::string& kind = s.at("kind").as_string();
    ECLP_CHECK_MSG(kind == "algorithm" || kind == "phase" ||
                       kind == "iteration" || kind == "operator" ||
                       kind == "kernel",
                   "profile: unknown span kind '" << kind << "'");
    const double parent = s.at("parent").as_number();
    ECLP_CHECK_MSG(parent >= -1.0 && parent < s.at("id").as_number(),
                   "profile: span " << s.at("id").as_number()
                                    << " has invalid parent " << parent);
  }

  const json::Value& kernels = require_member(doc, "kernels", "$");
  ECLP_CHECK_MSG(kernels.is_array(), "profile: 'kernels' must be an array");
  for (const json::Value& k : kernels.items()) {
    ECLP_CHECK_MSG(k.is_object(), "profile: kernel entries must be objects");
    require_string(k, "name", "kernels[]");
    require_number(k, "launches", "kernels[]");
    require_number(k, "modeled_cycles", "kernels[]");
    require_number(k, "atomics", "kernels[]");
  }

  const json::Value& counters = require_member(doc, "counters", "$");
  ECLP_CHECK_MSG(counters.is_object(), "profile: 'counters' must be an object");
  for (const auto& [key, value] : counters.members()) {
    ECLP_CHECK_MSG(value.is_number(),
                   "profile: 'counters." << key << "' must be a number");
  }

  const json::Value& workers = require_member(doc, "workers", "$");
  ECLP_CHECK_MSG(workers.is_array(), "profile: 'workers' must be an array");
  for (const json::Value& w : workers.items()) {
    ECLP_CHECK_MSG(w.is_object(), "profile: worker entries must be objects");
    require_number(w, "worker", "workers[]");
    require_number(w, "busy_ns", "workers[]");
  }
}

DiffReport diff_rows(const std::vector<DiffRow>& base,
                     const std::vector<DiffRow>& cand) {
  const auto index = [](const std::vector<DiffRow>& rows, const char* side) {
    std::map<std::string, const DiffRow*> out;
    for (const DiffRow& r : rows) {
      ECLP_CHECK_MSG(out.emplace(r.key, &r).second,
                     "diff: " << side << " repeats row '" << r.key << "'");
    }
    return out;
  };
  const auto base_rows = index(base, "base");
  const auto cand_rows = index(cand, "candidate");

  DiffReport report;
  for (const DiffRow& b : base) {
    const auto it = cand_rows.find(b.key);
    if (it == cand_rows.end()) {
      report.entries.push_back(
          {b.key, b.value, 0.0, 0.0, DiffStatus::kRemoved});
      continue;
    }
    const DiffRow& c = *it->second;
    DiffEntry e{b.key, b.value, c.value, 0.0, DiffStatus::kOk};
    if (b.value != 0.0) e.delta_pct = (c.value - b.value) / b.value * 100.0;
    if (c.value > b.value) {
      const bool within = b.value == 0.0
                              ? c.tolerance_pct == kInformational
                              : e.delta_pct <= c.tolerance_pct;
      if (!within) e.status = DiffStatus::kRegressed;
    } else if (c.value < b.value) {
      e.status = DiffStatus::kImproved;
    }
    report.entries.push_back(std::move(e));
  }
  for (const DiffRow& c : cand) {
    if (base_rows.count(c.key) == 0) {
      report.entries.push_back({c.key, 0.0, c.value, 0.0, DiffStatus::kAdded});
    }
  }
  return report;
}

DiffReport diff_profiles(const json::Value& base, const json::Value& cand,
                         const DiffOptions& options) {
  validate_profile(base);
  validate_profile(cand);
  return diff_rows(profile_rows(base, cand, options),
                   profile_rows(cand, base, options));
}

}  // namespace eclp::profile
