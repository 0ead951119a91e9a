// The simulator's host thread-count configuration.
//
// The work-stealing pool itself is eclp::Pool in support/pool.hpp (it also
// powers the graph ingest pipeline via support/parallel_for.hpp). This
// header only owns the *simulator's* process-wide configuration: how many
// host threads a Device dispatches block-independent launches across, and
// the shared pool of that size. That knob (ECLP_SIM_THREADS /
// --sim-threads) is deliberately separate from the ingest knob
// (ECLP_BUILD_THREADS): simulation thread counts are an experimental
// variable, ingest just wants the hardware.
//
// Determinism is the launch discipline's job (per-block state, per-block
// PRNG streams, shard merges in block-index order), not the scheduler's —
// see support/pool.hpp for the stealing mechanics and the
// lowest-failing-task exception contract.
#pragma once

#include "support/pool.hpp"

namespace eclp::sim {

/// Number of simulator host threads currently configured (>= 1). The first
/// call reads the ECLP_SIM_THREADS environment variable; set_sim_threads
/// overrides it.
u32 sim_threads();

/// Configure the simulator host thread count (0 = one per hardware
/// thread). Takes effect for Devices constructed afterwards: the shared
/// pool is rebuilt, and Devices capture it at construction.
void set_sim_threads(u32 n);

/// The process-wide pool Devices attach to by default: nullptr when
/// sim_threads() == 1 (sequential execution), a live Pool otherwise.
Pool* shared_pool();

}  // namespace eclp::sim
