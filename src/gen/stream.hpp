// Chunked streaming generators (KaGen discipline): the one implementation
// of the uniform, R-MAT/Kronecker, and preferential-attachment families.
// gen::uniform_random, rmat, kronecker, and preferential_attachment
// (gen/generators.hpp) stage these streams through
// graph::build_materialized; scale=huge suite entries hand them straight
// to graph::build_from_chunks, so the edge list never materializes. Either
// way a family is the same edge sequence at every scale.
//
// Each stream carves its edge-id space into fixed blocks of
// kEdgesPerBlock edges and derives an independent RNG seed per block with
// stream_block_seed(seed, tag, block). Chunks are contiguous *block*
// ranges, so the canonical edge sequence — chunks concatenated in chunk
// order == blocks concatenated in block order — is one fixed function of
// (generator parameters, seed), whatever the chunk count or thread
// count. That is the whole determinism story: change the chunk count,
// change ECLP_BUILD_THREADS, re-emit chunks in any schedule — same graph,
// byte for byte (tests/stream_test.cpp pins it at 1/4/13 chunks x 1/2/7
// threads).
//
// Per-chunk seeding scheme: DESIGN.md §2. Memory model and the two-pass
// build: docs/INGEST.md "Chunked streaming generation".
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "support/parallel_for.hpp"
#include "support/prng.hpp"

namespace eclp::gen {

/// Edges per seeding block. Big enough that per-block Rng construction
/// (4 SplitMix64 steps) is noise, small enough that any chunk count up
/// to ~edges/65536 still divides into whole blocks.
inline constexpr u64 kEdgesPerBlock = u64{1} << 16;

/// Version of the per-chunk seeding scheme + canonical sequence layout.
/// Mixed into suite cache keys: bump it if stream_block_seed, the block
/// size, a draw, or any stream's emission order changes, so stale .eclg
/// entries generated by an older scheme cannot alias. v2: the
/// preferential-attachment position draw became one hash per hop.
inline constexpr u64 kChunkStreamVersion = 2;

/// The seed of block `block` of stream family `tag` under user seed
/// `seed`: three chained SplitMix64 mixes so that block seeds are
/// decorrelated across blocks, across families (uniform/rmat/pa), and
/// across user seeds. Rng::reseed then expands the result into 256-bit
/// Xoshiro state.
constexpr u64 stream_block_seed(u64 seed, u64 tag, u64 block) {
  return splitmix64(splitmix64(splitmix64(seed) ^ tag) ^ block);
}

/// Stream-family tags (arbitrary distinct constants, part of the
/// kChunkStreamVersion contract).
inline constexpr u64 kStreamTagUniform = 0x756e69666f726dULL;  // "uniform"
inline constexpr u64 kStreamTagRmat = 0x726d6174ULL;           // "rmat"
inline constexpr u64 kStreamTagPa = 0x7061ULL;                 // "pa"

namespace detail {

/// Chunk count a stream actually uses: the request (0 = the default of
/// 64, scheduling granularity only), clamped to the number of seeding
/// blocks so chunk boundaries always align with block boundaries.
u64 stream_chunks(u64 requested, u64 blocks);

/// One RMAT edge sample in a 2^scale x 2^scale adjacency matrix: descend
/// the matrix one bit per level, picking a quadrant with probabilities
/// (a, b, c, 1-a-b-c).
inline std::pair<vidx, vidx> rmat_edge(Rng& rng, u32 scale, double a,
                                       double b, double c) {
  vidx u = 0, v = 0;
  for (u32 bit = 0; bit < scale; ++bit) {
    const double r = rng.unit();
    u <<= 1;
    v <<= 1;
    if (r < a) {
      // top-left: nothing to add
    } else if (r < a + b) {
      v |= 1;
    } else if (r < a + b + c) {
      u |= 1;
    } else {
      u |= 1;
      v |= 1;
    }
  }
  return {u, v};
}

}  // namespace detail

/// uniform_random(): `edges` endpoint pairs drawn uniformly, self-pairs
/// resampled (per block, deterministically).
class UniformRandomStream {
 public:
  UniformRandomStream(vidx n, u64 edges, u64 seed, u64 chunks = 0)
      : n_(n),
        edges_(edges),
        seed_(seed),
        blocks_((edges + kEdgesPerBlock - 1) / kEdgesPerBlock),
        chunks_(detail::stream_chunks(chunks, blocks_)) {
    ECLP_CHECK(n >= 2);
  }

  vidx num_vertices() const { return n_; }
  u64 num_chunks() const { return chunks_; }
  u64 estimated_edges() const { return edges_; }

  template <typename Sink>
  void emit(u64 chunk, Sink&& sink) const {
    const auto [bbegin, bend] = chunk_range(blocks_, chunks_, chunk);
    for (u64 b = bbegin; b < bend; ++b) {
      Rng rng(stream_block_seed(seed_, kStreamTagUniform, b));
      const u64 end = std::min(edges_, (b + 1) * kEdgesPerBlock);
      for (u64 e = b * kEdgesPerBlock; e < end; ++e) {
        const vidx u = static_cast<vidx>(rng.below(n_));
        vidx v = static_cast<vidx>(rng.below(n_));
        while (v == u) v = static_cast<vidx>(rng.below(n_));
        sink(u, v);
      }
    }
  }

 private:
  vidx n_;
  u64 edges_;
  u64 seed_;
  u64 blocks_;
  u64 chunks_;
};

/// rmat() and kronecker(): `edges` recursive-matrix samples per
/// rmat_edge; self-pairs are dropped, so `edges` counts attempts.
class RmatStream {
 public:
  /// The Graph500 Kronecker parameterization (a=.57, b=.19, c=.19).
  static RmatStream kronecker(u32 scale, u64 edges, u64 seed,
                              u64 chunks = 0) {
    return RmatStream(scale, edges, 0.57, 0.19, 0.19, seed, chunks);
  }

  RmatStream(u32 scale, u64 edges, double a, double b, double c, u64 seed,
             u64 chunks = 0)
      : scale_(scale),
        edges_(edges),
        a_(a),
        b_(b),
        c_(c),
        seed_(seed),
        blocks_((edges + kEdgesPerBlock - 1) / kEdgesPerBlock),
        chunks_(detail::stream_chunks(chunks, blocks_)) {
    ECLP_CHECK(scale >= 2 && scale <= 28);
    ECLP_CHECK(a + b + c < 1.0 + 1e-9);
  }

  vidx num_vertices() const { return vidx{1} << scale_; }
  u64 num_chunks() const { return chunks_; }
  u64 estimated_edges() const { return edges_; }

  template <typename Sink>
  void emit(u64 chunk, Sink&& sink) const {
    const auto [bbegin, bend] = chunk_range(blocks_, chunks_, chunk);
    for (u64 b = bbegin; b < bend; ++b) {
      Rng rng(stream_block_seed(seed_, kStreamTagRmat, b));
      const u64 end = std::min(edges_, (b + 1) * kEdgesPerBlock);
      for (u64 e = b * kEdgesPerBlock; e < end; ++e) {
        const auto [u, v] = detail::rmat_edge(rng, scale_, a_, b_, c_);
        if (u != v) sink(u, v);
      }
    }
  }

 private:
  u32 scale_;
  u64 edges_;
  double a_, b_, c_;
  u64 seed_;
  u64 blocks_;
  u64 chunks_;
};

/// preferential_attachment(): Barabási–Albert in the communication-free
/// style of Sanders & Schulz. Instead of a shared degree-proportional
/// endpoint array (inherently sequential), attachment edge i draws a
/// uniform *position* in the endpoint-position space built up so far —
/// positions [0, 2S) land in a precomputed seed-clique skeleton, position
/// 2S+2j is attachment edge j's (deterministic) source, and 2S+2j+1 is
/// edge j's destination, resolved by recursively replaying edge j's own
/// draw. Every edge is thus a pure function of (seed, i): any chunk, any
/// thread, any schedule recomputes it identically. Expected resolution
/// depth is O(log i) hops. Draws that resolve to the edge's own source
/// are skipped; their positions remain defined, so later edges resolve
/// through them unchanged.
class PreferentialAttachmentStream {
 public:
  PreferentialAttachmentStream(vidx n, u32 m, u64 seed, u64 chunks = 0);

  vidx num_vertices() const { return n_; }
  u64 num_chunks() const { return chunks_; }
  u64 estimated_edges() const {
    return skeleton_.size() / 2 + attach_edges_;
  }

  template <typename Sink>
  void emit(u64 chunk, Sink&& sink) const {
    if (chunk == 0) {
      // The seed clique is part of chunk 0's canonical output.
      for (usize p = 0; p < skeleton_.size(); p += 2) {
        sink(skeleton_[p], skeleton_[p + 1]);
      }
    }
    const auto [begin, end] = chunk_range(attach_edges_, chunks_, chunk);
    for (u64 i = begin; i < end; ++i) {
      const vidx u = source_of(i);
      const vidx v = resolve(choice(i));
      if (v != u) sink(u, v);
    }
  }

 private:
  /// Attachment edge i's source vertex: vertex m+1+i/m adds its k-th edge
  /// at i = (vertex - m - 1) * m + k.
  vidx source_of(u64 i) const {
    return static_cast<vidx>(m_ + 1 + i / m_);
  }

  /// Edge i's position draw: uniform over the 2S skeleton endpoints plus
  /// the 2i endpoints of the attachment edges before it. One SplitMix64
  /// hash of key_ ^ i (= stream_block_seed(seed, kStreamTagPa, i)) reduced
  /// by Lemire's multiply-shift, rejected exactly as Rng::below rejects
  /// and re-hashed on a rejection: exactly uniform at one hash per
  /// resolution hop, the cost that dominates emission.
  u64 choice(u64 i) const {
    const u64 bound = skeleton_.size() + 2 * i;
    u64 x = splitmix64(key_ ^ i);
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    if (static_cast<u64>(m) < bound) {
      const u64 threshold = (0 - bound) % bound;
      while (static_cast<u64>(m) < threshold) {
        x = splitmix64(x);
        m = static_cast<__uint128_t>(x) * bound;
      }
    }
    return static_cast<u64>(m >> 64);
  }

  /// Walk a position back to a concrete vertex (see class comment).
  vidx resolve(u64 pos) const {
    while (pos >= skeleton_.size()) {
      const u64 j = (pos - skeleton_.size()) / 2;
      if ((pos - skeleton_.size()) % 2 == 0) return source_of(j);
      pos = choice(j);
    }
    return skeleton_[pos];
  }

  vidx n_;
  u32 m_;
  u64 key_;  ///< splitmix64(splitmix64(seed) ^ kStreamTagPa)
  u64 attach_edges_;
  u64 chunks_;
  std::vector<vidx> skeleton_;  ///< 2S seed-clique endpoint positions
};

}  // namespace eclp::gen
