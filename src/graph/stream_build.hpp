// CSR assembly: the one pipeline every CSR in the repository is built
// through. A *chunk source* exposes a fixed number of chunks and can
// (re)emit any chunk's edges on demand, deterministically per chunk id
// (the KaGen discipline). build_from_chunks() then runs a two-pass
// pipeline —
//
//   pass 1  re-emit every chunk, accumulating per-(slot, row) degree
//           histograms (slots group contiguous chunks so the cursor
//           matrix stays under kParallelHistogramEntryCap);
//   pass 2  re-emit every chunk again and scatter each arc straight into
//           the final adjacency array through per-(slot, row) cursors,
//
// followed by a per-row sort + keep-first dedupe and an in-place
// compaction. Sources come in two kinds: the generator streams
// (gen/stream.hpp) recompute their chunks, so the edge list never exists
// and peak memory is the final CSR plus the cursor matrix; and
// VectorChunkSource serves edges that already sit in memory — the
// Builder's staging vector (Builder::build, from_edges) and the text
// readers' per-chunk parse buffers.
//
// Determinism contract (docs/INGEST.md "Why bit-identity is the
// contract"): emission within a chunk is sequential and a pure function of
// the chunk id, so the concatenation of chunks in chunk order is one
// canonical edge sequence. An undirected build mirrors every arc right
// next to its original. Both passes replay chunks in chunk order within
// each slot, which makes the scatter a stable counting sort by source over
// that canonical sequence; the per-row sort by target on top of it equals
// one stable sort by (src, dst) followed by a keep-first dedupe. The
// output is therefore a pure function of the canonical sequence — the
// same bytes at any build thread count and any chunk or slot grouping.
//
// Weights: a source may call sink(src, dst, w); the generator streams call
// sink(src, dst) and carry weight 0. Weighted builds scatter (dst, w)
// slots and sort each row stably by dst, so a duplicate keeps the weight
// that came first in canonical order — and because a mirror sits next to
// its original, both directions of an undirected edge keep the same one.
// Unweighted builds scatter bare targets and sort them with std::sort:
// equal u32 targets are interchangeable, so stability buys nothing there.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "support/parallel_for.hpp"

namespace eclp::graph {

/// A re-emittable chunked edge stream. `emit(chunk, sink)` must call
/// `sink(src, dst)` or `sink(src, dst, w)` for every edge of that chunk,
/// in a fixed order that depends only on the chunk id — never on thread
/// count, emission order across chunks, or how often the chunk was emitted
/// before.
template <typename S>
concept ChunkedEdgeSource =
    requires(const S& s, u64 chunk, void (&sink)(vidx, vidx)) {
      { s.num_vertices() } -> std::convertible_to<vidx>;
      { s.num_chunks() } -> std::convertible_to<u64>;
      { s.estimated_edges() } -> std::convertible_to<u64>;
      s.emit(chunk, sink);
    };

/// Serve edges already in memory as a chunk source, weights included. The
/// spans must outlive the adapter.
class VectorChunkSource {
 public:
  /// Split one edge list into `chunks` contiguous chunks.
  VectorChunkSource(vidx num_vertices, std::span<const Edge> edges,
                    u64 chunks)
      : num_vertices_(num_vertices), edges_(edges.size()) {
    const u64 n = std::max<u64>(1, std::min<u64>(chunks, edges.size()));
    for (u64 c = 0; c < n; ++c) {
      const auto [begin, end] = chunk_range(edges.size(), n, c);
      chunks_.push_back(edges.subspan(begin, end - begin));
    }
  }

  /// One chunk per buffer, in buffer order.
  VectorChunkSource(vidx num_vertices,
                    std::span<const std::vector<Edge>> buffers)
      : num_vertices_(num_vertices), chunks_(buffers.begin(), buffers.end()) {
    for (const auto& chunk : chunks_) edges_ += chunk.size();
    if (chunks_.empty()) chunks_.emplace_back();
  }

  vidx num_vertices() const { return num_vertices_; }
  u64 num_chunks() const { return chunks_.size(); }
  u64 estimated_edges() const { return edges_; }

  template <typename Sink>
  void emit(u64 chunk, Sink&& sink) const {
    for (const Edge& e : chunks_[chunk]) sink(e.src, e.dst, e.w);
  }

 private:
  vidx num_vertices_;
  u64 edges_ = 0;
  std::vector<std::span<const Edge>> chunks_;
};

/// Footprint cap on the pipeline's cursor matrix: at most this many
/// (slot, row) histogram/cursor entries (256 MiB of eidx). Slot counts
/// shrink to fit under it on huge vertex sets.
inline constexpr usize kParallelHistogramEntryCap = usize{1} << 26;

namespace detail {

/// Slot count: one slot per pool worker (1 when ingest is sequential),
/// never more than the source has chunks, and capped so the cursor matrix
/// (slots x V entries of eidx) stays inside kParallelHistogramEntryCap.
inline u64 stream_build_slots(u64 chunks, usize num_vertices) {
  Pool* pool = build_pool();
  u64 slots = pool == nullptr ? 1 : pool->size();
  slots = std::max<u64>(1, std::min(slots, chunks));
  const usize v = std::max<usize>(1, num_vertices);
  while (slots > 1 && slots * v > kParallelHistogramEntryCap) --slots;
  return slots;
}

/// One adjacency slot of a weighted build: the weight travels with its
/// target through scatter, sort, and compaction.
struct WeightedSlot {
  vidx dst;
  weight_t w;
};

inline vidx slot_dst(vidx slot) { return slot; }
inline vidx slot_dst(const WeightedSlot& slot) { return slot.dst; }
inline void put_slot(vidx& slot, vidx dst, weight_t) { slot = dst; }
inline void put_slot(WeightedSlot& slot, vidx dst, weight_t w) {
  slot = {dst, w};
}

/// The pipeline over `Slot`-typed adjacency entries (vidx or
/// WeightedSlot). Returns the final row offsets and the compacted slots.
template <typename Slot, ChunkedEdgeSource S>
std::pair<std::vector<eidx>, std::vector<Slot>> assemble_rows(
    const S& source, const BuildOptions& opt) {
  const vidx num_vertices = source.num_vertices();
  const usize V = num_vertices;
  const u64 chunks = std::max<u64>(1, source.num_chunks());
  const u64 slots = stream_build_slots(chunks, V);
  Pool* pool = build_pool();

  // Pass 1: per-slot degree histograms over the re-emitted stream. Mirror
  // arcs are counted here too, so the mirrored edge list never
  // materializes. Row `slot * V + src` is written only by the worker
  // draining that slot's chunk range.
  std::vector<eidx> cursors(slots * V, 0);
  parallel_for_chunks(pool, chunks, slots,
                      [&](u64 slot, u64 cbegin, u64 cend, u32) {
                        eidx* mine = cursors.data() + slot * V;
                        const auto count = [&](vidx u, vidx v,
                                               weight_t = 0) {
                          ECLP_CHECK_MSG(
                              u < num_vertices && v < num_vertices,
                              "edge (" << u << "," << v
                                       << ") out of range, n="
                                       << num_vertices);
                          if (u == v && opt.remove_self_loops) return;
                          mine[u]++;
                          if (!opt.directed) mine[v]++;
                        };
                        for (u64 c = cbegin; c < cend; ++c) {
                          source.emit(c, count);
                        }
                      });

  // Row starts (exclusive prefix over per-row totals), then a column-wise
  // exclusive scan turning the histograms into per-(slot, row) scatter
  // cursors.
  std::vector<eidx> row_start(V + 1, 0);
  {
    u64 running = 0;
    for (usize s = 0; s < V; ++s) {
      row_start[s] = static_cast<eidx>(running);
      for (u64 c = 0; c < slots; ++c) running += cursors[c * V + s];
    }
    ECLP_CHECK_MSG(running <= static_cast<u64>(kNoEdge),
                   "graph exceeds 32-bit edge indices (" << running
                                                         << " arcs)");
    row_start[V] = static_cast<eidx>(running);
  }
  parallel_for_chunks(pool, V, slots, [&](u64, u64 begin, u64 end, u32) {
    for (u64 s = begin; s < end; ++s) {
      eidx cursor = row_start[s];
      for (u64 c = 0; c < slots; ++c) {
        const eidx count = cursors[c * V + s];
        cursors[c * V + s] = cursor;
        cursor += count;
      }
    }
  });

  // Pass 2: re-emit every chunk and scatter arcs, each mirror right after
  // its original, straight into the final adjacency array. Cursor slots
  // are private per (slot, row), so no atomics; within every row, slot
  // order equals chunk order equals canonical order.
  std::vector<Slot> adj(row_start[V]);
  parallel_for_chunks(pool, chunks, slots,
                      [&](u64 slot, u64 cbegin, u64 cend, u32) {
                        eidx* cursor = cursors.data() + slot * V;
                        const auto scatter = [&](vidx u, vidx v,
                                                 weight_t w = 0) {
                          if (u == v && opt.remove_self_loops) return;
                          put_slot(adj[cursor[u]++], v, w);
                          if (!opt.directed) put_slot(adj[cursor[v]++], u, w);
                        };
                        for (u64 c = cbegin; c < cend; ++c) {
                          source.emit(c, scatter);
                        }
                      });
  cursors.clear();
  cursors.shrink_to_fit();

  // Per-row sort + keep-first dedupe, in place. More chunks than workers
  // so stealing can rebalance hub rows.
  std::vector<eidx> kept(V, 0);
  const u64 row_chunks = std::min<u64>(std::max<usize>(1, V), slots * 8);
  parallel_for_chunks(pool, V, row_chunks, [&](u64, u64 bv, u64 ev, u32) {
    for (u64 s = bv; s < ev; ++s) {
      Slot* const begin = adj.data() + row_start[s];
      Slot* const end = adj.data() + row_start[s + 1];
      if constexpr (std::is_same_v<Slot, vidx>) {
        std::sort(begin, end);
      } else {
        std::stable_sort(begin, end, [](const Slot& a, const Slot& b) {
          return a.dst < b.dst;
        });
      }
      if (opt.dedupe) {
        const Slot* last = std::unique(
            begin, end, [](const Slot& a, const Slot& b) {
              return slot_dst(a) == slot_dst(b);
            });
        kept[s] = static_cast<eidx>(last - begin);
      } else {
        kept[s] = static_cast<eidx>(end - begin);
      }
    }
  });

  std::vector<eidx> offsets(V + 1, 0);
  for (usize s = 0; s < V; ++s) offsets[s + 1] = offsets[s] + kept[s];

  // Compact the surviving prefixes left, in place (a fresh copy would
  // spike peak memory right at the worst moment). Phase A squeezes each
  // segment's rows against the segment's own base — reads and writes stay
  // inside the segment, so segments run in parallel. Phase B then slides
  // each segment's now-contiguous block down to its final offset; that
  // move can cross into the previous segment's old span, so it runs
  // serially, ascending (dest <= src throughout, memmove handles the
  // overlap).
  parallel_for_chunks(pool, V, row_chunks,
                      [&](u64, u64 bv, u64 ev, u32) {
                        eidx w = row_start[bv];
                        for (u64 s = bv; s < ev; ++s) {
                          Slot* const from = adj.data() + row_start[s];
                          if (w != row_start[s] && kept[s] != 0) {
                            std::memmove(adj.data() + w, from,
                                         kept[s] * sizeof(Slot));
                          }
                          w += kept[s];
                        }
                      });
  for (u64 c = 0; c < row_chunks; ++c) {
    const auto [bv, ev] = chunk_range(V, row_chunks, c);
    const eidx dest = offsets[bv];
    const eidx src = row_start[bv];
    const eidx count = offsets[ev] - offsets[bv];
    if (dest != src && count != 0) {
      std::memmove(adj.data() + dest, adj.data() + src,
                   static_cast<usize>(count) * sizeof(Slot));
    }
  }
  // resize() keeps the capacity — a shrink_to_fit here would briefly hold
  // both buffers, defeating the bounded-memory point. The slack is the
  // dedupe loss only.
  adj.resize(offsets[V]);
  return {std::move(offsets), std::move(adj)};
}

}  // namespace detail

/// Assemble a CSR from a chunk source: the source's canonical edge
/// sequence (chunks concatenated in chunk order), mirrored inline when
/// undirected, stably sorted by (src, dst), and deduped keep-first.
template <ChunkedEdgeSource S>
Csr build_from_chunks(const S& source, const BuildOptions& opt = {}) {
  if (!opt.weighted) {
    auto [offsets, targets] = detail::assemble_rows<vidx>(source, opt);
    return Csr::from_parts(source.num_vertices(), std::move(offsets),
                           std::move(targets), {}, opt.directed);
  }
  auto [offsets, slots] =
      detail::assemble_rows<detail::WeightedSlot>(source, opt);
  std::vector<vidx> targets(slots.size());
  std::vector<weight_t> weights(slots.size());
  for (usize i = 0; i < slots.size(); ++i) {
    targets[i] = slots[i].dst;
    weights[i] = slots[i].w;
  }
  return Csr::from_parts(source.num_vertices(), std::move(offsets),
                         std::move(targets), std::move(weights),
                         opt.directed);
}

/// Materialize the source's canonical edge sequence (chunks in chunk
/// order). The tests use it to hand a stream to their reference assembler.
template <ChunkedEdgeSource S>
std::vector<Edge> materialize_chunks(const S& source) {
  std::vector<Edge> edges;
  edges.reserve(source.estimated_edges());
  for (u64 c = 0; c < std::max<u64>(1, source.num_chunks()); ++c) {
    source.emit(c, [&](vidx u, vidx v, weight_t w = 0) {
      edges.push_back({u, v, w});
    });
  }
  return edges;
}

/// The staged arm over a chunk source: copy the stream into a Builder,
/// then Builder::build runs the same pipeline over the staged copy. One
/// generation pass instead of two, at the cost of holding the edge list:
/// the generator functions below scale=huge build this way, and the
/// peak-RSS bench compares it against the direct streamed build.
template <ChunkedEdgeSource S>
Csr build_materialized(const S& source, const BuildOptions& opt = {}) {
  Builder b(source.num_vertices());
  b.reserve_edges(source.estimated_edges());
  for (u64 c = 0; c < std::max<u64>(1, source.num_chunks()); ++c) {
    source.emit(c, [&](vidx u, vidx v, weight_t w = 0) { b.add(u, v, w); });
  }
  return b.build(opt);
}

}  // namespace eclp::graph
