#include "profile/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace eclp::profile {

Table timeline_summary(const Session& session, const std::string& title) {
  struct Agg {
    u64 launches = 0;
    u64 cycles = 0;
    u64 atomics = 0;
  };
  std::map<std::string, Agg> by_kernel;
  u64 total_cycles = 0;
  for (const Span& s : session.spans()) {
    if (s.kind != SpanKind::kKernel) continue;
    auto& agg = by_kernel[s.name];
    agg.launches++;
    agg.cycles += s.cycles();
    agg.atomics += s.atomics;
    total_cycles += s.cycles();
  }
  // Sort by descending cycle share.
  std::vector<std::pair<std::string, Agg>> rows(by_kernel.begin(),
                                                by_kernel.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.cycles > b.second.cycles;
  });
  Table t(title);
  t.set_header({"kernel", "launches", "cycles", "share", "atomics"});
  for (const auto& [name, agg] : rows) {
    const double share =
        total_cycles ? 100.0 * static_cast<double>(agg.cycles) /
                           static_cast<double>(total_cycles)
                     : 0.0;
    t.add_row({name, fmt::grouped(agg.launches), fmt::grouped(agg.cycles),
               fmt::fixed(share, 1) + "%", fmt::grouped(agg.atomics)});
  }
  return t;
}

Table load_balance(const Session& session, const std::string& title) {
  struct Agg {
    u64 launches = 0;
    double active_sum = 0.0;
    double imbalance_sum = 0.0;
    double imbalance_max = 1.0;
  };
  std::map<std::string, Agg> by_kernel;
  for (const Span& s : session.spans()) {
    if (s.kind != SpanKind::kKernel) continue;
    auto& agg = by_kernel[s.name];
    agg.launches++;
    // An all-idle launch reports imbalance 1.0 (KernelCost::imbalance guards
    // it) and contributes 0% active; a grid with no threads at all
    // (active == idle == 0) contributes 0% rather than dividing by zero.
    const u32 total = s.active_threads + s.idle_threads;
    agg.active_sum += total ? static_cast<double>(s.active_threads) /
                                  static_cast<double>(total)
                            : 0.0;
    agg.imbalance_sum += s.imbalance;
    agg.imbalance_max = std::max(agg.imbalance_max, s.imbalance);
  }
  Table t(title);
  t.set_header({"kernel", "launches", "avg active %", "avg imbalance",
                "worst imbalance"});
  for (const auto& [name, agg] : by_kernel) {
    const double n = static_cast<double>(agg.launches);
    t.add_row({name, fmt::grouped(agg.launches),
               fmt::fixed(100.0 * agg.active_sum / n, 1),
               fmt::fixed(agg.imbalance_sum / n, 2),
               fmt::fixed(agg.imbalance_max, 2)});
  }
  return t;
}

std::string timeline_csv(const Session& session) {
  std::ostringstream os;
  os << "sequence,kernel,blocks,threads_per_block,modeled_cycles,"
        "cumulative_cycles,atomics_delta,active_threads,idle_threads,"
        "imbalance\n";
  u64 sequence = session.start_launches();
  for (const Span& s : session.spans()) {
    if (s.kind != SpanKind::kKernel) continue;
    os << ++sequence << ',' << s.name << ',' << s.blocks << ','
       << s.threads_per_block << ',' << s.cycles() << ',' << s.end_cycles
       << ',' << s.atomics << ',' << s.active_threads << ','
       << s.idle_threads << ',' << s.imbalance << '\n';
  }
  return os.str();
}

}  // namespace eclp::profile
