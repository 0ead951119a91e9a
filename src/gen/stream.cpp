#include "gen/stream.hpp"

namespace eclp::gen {

namespace {

// Scheduling granularity only — the generated graph is chunk-count-
// invariant by construction (block-aligned chunk boundaries). 64 gives
// the work-stealing pool slack over any realistic host thread count.
constexpr u64 kDefaultGenChunks = 64;

}  // namespace

namespace detail {

u64 stream_chunks(u64 requested, u64 blocks) {
  const u64 want = requested == 0 ? kDefaultGenChunks : requested;
  return std::max<u64>(1, std::min(want, std::max<u64>(1, blocks)));
}

}  // namespace detail

PreferentialAttachmentStream::PreferentialAttachmentStream(vidx n, u32 m,
                                                           u64 seed,
                                                           u64 chunks)
    : n_(n),
      m_(m),
      key_(splitmix64(splitmix64(seed) ^ kStreamTagPa)),
      attach_edges_(static_cast<u64>(n - m - 1) * m),
      chunks_(detail::stream_chunks(chunks, attach_edges_)) {
  ECLP_CHECK(n > m && m >= 1);
  // Seed clique over the first m+1 vertices, flattened into endpoint
  // positions: clique edge p contributes positions 2p (its lower
  // endpoint) and 2p+1 (its upper). Tiny — (m+1)m entries.
  skeleton_.reserve(static_cast<usize>(m + 1) * m);
  for (vidx u = 0; u <= m; ++u) {
    for (vidx v = u + 1; v <= m; ++v) {
      skeleton_.push_back(u);
      skeleton_.push_back(v);
    }
  }
}

}  // namespace eclp::gen
