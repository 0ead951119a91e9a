// Reusable host-side data parallelism on the work-stealing Pool.
//
// parallel_for_chunks() splits an index range [0, total) into a fixed
// number of contiguous chunks and runs one callback per chunk on a Pool
// (inline on the caller when the pool is null or a single chunk suffices).
// Chunk boundaries are a pure function of (total, chunk count), so a
// caller that needs reproducible *chunking* — as opposed to reproducible
// results, which the ingest pipeline guarantees for any chunking — can
// simply pin the chunk count.
//
// The ingest pipeline (CSR assembly in graph/stream_build.hpp and the
// text readers in graph/io.hpp) runs on a process-wide "build pool"
// configured separately from the simulator's sim_threads(): graph
// construction wants all the hardware parallelism it can get, while
// simulation thread counts are an experimental variable.
#pragma once

#include <utility>

#include "support/pool.hpp"
#include "support/types.hpp"

namespace eclp {

/// Host threads used for parallel graph ingest (CSR assembly and chunked
/// text parsing). The first call reads the ECLP_BUILD_THREADS environment
/// variable (0 or unset = one per hardware thread); set_build_threads
/// overrides it. Always >= 1.
u32 build_threads();

/// Configure the ingest thread count (0 = one per hardware thread). The
/// process-wide build pool is rebuilt on the next build_pool() call.
void set_build_threads(u32 n);

/// The process-wide pool ingest runs on: nullptr when build_threads() == 1
/// (sequential ingest), a live Pool otherwise. Created lazily.
Pool* build_pool();

/// The contiguous subrange of [0, total) owned by `chunk` of `chunks`
/// (remainder spread over the leading chunks, same split Pool::run uses).
inline std::pair<u64, u64> chunk_range(u64 total, u64 chunks, u64 chunk) {
  const u64 per = total / chunks;
  const u64 extra = total % chunks;
  const u64 begin = chunk * per + (chunk < extra ? chunk : extra);
  return {begin, begin + per + (chunk < extra ? 1 : 0)};
}

/// The chunk count parallel_for_chunks() actually runs for (total,
/// chunks): at least 1, never more than `total` (0 when total is 0 — no
/// chunks run at all). Callers that size per-chunk state (histogram rows,
/// shard buffers) use this so their arrays line up with the loop's chunk
/// ids exactly.
inline u64 clamped_chunks(u64 total, u64 chunks) {
  if (total == 0) return 0;
  const u64 c = chunks < 1 ? 1 : chunks;
  return c > total ? total : c;
}

/// Run fn(chunk, begin, end, worker) for every chunk of [0, total) split
/// into clamped_chunks(total, chunks) contiguous ranges. Executes inline,
/// in chunk order, when `pool` is null or one chunk suffices; otherwise
/// the chunks are distributed over the pool's workers and this call
/// returns only once all of them finished (rethrowing the lowest failing
/// chunk's exception, per Pool::run).
template <typename Fn>
void parallel_for_chunks(Pool* pool, u64 total, u64 chunks, Fn&& fn) {
  const u64 c = clamped_chunks(total, chunks);
  if (c == 0) return;
  if (pool == nullptr || c == 1) {
    const u32 worker = current_worker_slot();
    for (u64 chunk = 0; chunk < c; ++chunk) {
      const auto [begin, end] = chunk_range(total, c, chunk);
      fn(chunk, begin, end, worker);
    }
    return;
  }
  pool->run(c, [&](u64 chunk, u32 worker) {
    const auto [begin, end] = chunk_range(total, c, chunk);
    fn(chunk, begin, end, worker);
  });
}

}  // namespace eclp
