// Kernel launch timeline views over a profiling session.
//
// Complements the counter framework with the one thing general-purpose
// profilers *do* provide — a per-launch timeline — so instrumented runs can
// relate their application-specific counts to where modeled time goes.
// Every view reads only the session's kernel spans (one per launch, in
// launch order), so attaching a Session is all a run needs to render them.
#pragma once

#include <string>

#include "profile/session.hpp"
#include "support/table.hpp"

namespace eclp::profile {

/// Aggregate by kernel name: launches, total/share of cycles, atomics.
/// Rows are sorted by descending cycle share.
Table timeline_summary(const Session& session,
                       const std::string& title = "kernel timeline summary");

/// Aggregate the paper's §3.1 general metrics by kernel name: average
/// active thread fraction (vs. idle, §3.1.3-3.1.4) and load imbalance
/// (§3.1.1). Rows are name-ordered. An all-idle launch counts as 0% active
/// and imbalance 1.0 (trivially balanced), never a division by zero.
Table load_balance(const Session& session,
                   const std::string& title = "load balance by kernel");

/// One CSV line per launch for external timeline tools. `sequence` is the
/// device's launch number and `cumulative_cycles` the device total after
/// the launch; wall-clock and per-block times are left out so the CSV is
/// byte-stable across machines and sim-thread counts.
std::string timeline_csv(const Session& session);

}  // namespace eclp::profile
