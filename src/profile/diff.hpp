// Run-to-run regression gating: one comparison rule over flattened rows.
//
// Each document kind flattens itself into rows of (key, value, tolerance);
// diff_rows pairs them by key and gives each pair one verdict. Growth beyond
// the row's tolerance (percent of the base) regresses, and growth from a
// zero base regresses at any finite tolerance. Decreases are improvements
// and keys on only one side are added / removed; neither ever fails the
// gate (renames should not — their cost shows up in the totals).
//
// Profiles flatten here (diff_profiles, front end eclp-profile-diff) into
// purely modeled rows — cycles, launches, atomics, LLC misses, counters —
// so they are bit-stable across machines and sim-thread counts; wall_ns and
// workers are never rows. Metrics snapshots flatten in serve::diff_metrics.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/types.hpp"

namespace eclp::profile {

struct DiffOptions {
  /// Allowed growth of modeled-cycle metrics, in percent.
  double cycle_tolerance_pct = 2.0;
  /// Allowed growth of event-count metrics (atomics, counters, launches),
  /// in percent. Zero by default: modeled counts are deterministic.
  double counter_tolerance_pct = 0.0;
};

enum class DiffStatus : u8 {
  kOk,        ///< within tolerance (including unchanged)
  kImproved,  ///< decreased — reported, never gated
  kRegressed, ///< grew beyond tolerance
  kAdded,     ///< only in the candidate (informational)
  kRemoved,   ///< only in the baseline (informational)
};
const char* diff_status_name(DiffStatus status);

struct DiffEntry {
  std::string metric;  ///< e.g. "kernel/cc_compute_low/modeled_cycles"
  double base = 0.0;
  double cand = 0.0;
  double delta_pct = 0.0;  ///< (cand - base) / base * 100; 0 when base == 0
  DiffStatus status = DiffStatus::kOk;
};

struct DiffReport {
  std::vector<DiffEntry> entries;
  u32 regressions() const;
  /// Human-readable listing; `all` includes unchanged metrics.
  std::string to_string(bool all = false) const;
};

/// One comparable metric of a document. `tolerance_pct` is the allowed
/// growth in percent; kInformational reports the row without gating it.
struct DiffRow {
  std::string key;
  double value = 0.0;
  double tolerance_pct = 0.0;
};
inline constexpr double kInformational =
    std::numeric_limits<double>::infinity();

/// The comparison rule (see the file comment). Pairs the rows by key; the
/// report lists base rows in order, then the candidate-only rows. A key
/// repeated within one side throws CheckFailure. A paired row takes the
/// candidate's tolerance.
DiffReport diff_rows(const std::vector<DiffRow>& base,
                     const std::vector<DiffRow>& cand);

/// Structural validation of an eclp.profile document: schema tag, version,
/// required sections and their field types. Throws CheckFailure with a
/// field-path message on the first violation.
void validate_profile(const json::Value& doc);

/// Compare candidate against baseline. Both documents are validated first.
/// A kernel's llc_misses row exists on both sides when either side
/// recorded misses for it, the absent side reading as zero.
DiffReport diff_profiles(const json::Value& base, const json::Value& cand,
                         const DiffOptions& options = {});

}  // namespace eclp::profile
