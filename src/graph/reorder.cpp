#include "graph/reorder.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <queue>

#include "graph/cache.hpp"
#include "graph/transforms.hpp"

namespace eclp::graph {

std::vector<vidx> order_by_degree_desc(const Csr& g) {
  const vidx n = g.num_vertices();
  std::vector<vidx> by_degree(n);
  for (vidx v = 0; v < n; ++v) by_degree[v] = v;
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](vidx a, vidx b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });
  std::vector<vidx> perm(n);
  for (vidx rank = 0; rank < n; ++rank) perm[by_degree[rank]] = rank;
  return perm;
}

std::vector<vidx> order_bfs(const Csr& g, vidx source) {
  const vidx n = g.num_vertices();
  ECLP_CHECK(source < n || n == 0);
  std::vector<vidx> perm(n, kNoVertex);
  vidx next_rank = 0;
  std::queue<vidx> queue;
  std::vector<vidx> nbrs;

  const auto visit_from = [&](vidx start) {
    perm[start] = next_rank++;
    queue.push(start);
    while (!queue.empty()) {
      const vidx u = queue.front();
      queue.pop();
      // Cuthill-McKee: expand neighbors in ascending-degree order.
      const auto adj = g.neighbors(u);
      nbrs.assign(adj.begin(), adj.end());
      std::stable_sort(nbrs.begin(), nbrs.end(), [&](vidx a, vidx b) {
        return g.degree(a) < g.degree(b);
      });
      for (const vidx v : nbrs) {
        if (perm[v] == kNoVertex) {
          perm[v] = next_rank++;
          queue.push(v);
        }
      }
    }
  };

  if (n > 0) visit_from(source);
  for (vidx v = 0; v < n; ++v) {
    if (perm[v] == kNoVertex) visit_from(v);
  }
  return perm;
}

std::vector<vidx> order_random(const Csr& g, u64 seed) {
  Rng rng(seed);
  return rng.permutation(g.num_vertices());
}

std::vector<vidx> order_morton_grid(u32 side) {
  // Row-major ids are y*side + x; the vertex count side*side must fit vidx
  // (ranks are counted in vidx too). Without this check a side >= 2^16
  // silently wraps the 32-bit id arithmetic and the "permutation" stops
  // being one.
  ECLP_CHECK_MSG(static_cast<u64>(side) * side <=
                     std::numeric_limits<vidx>::max(),
                 "morton grid side " << side << " needs " << side << "x"
                                     << side
                                     << " vertex ids, which overflows the "
                                        "32-bit vertex index type");
  // Only the bits that can be set in a coordinate < side matter for the
  // interleave; everything above is zero.
  const u32 coord_bits = side <= 1 ? 1 : std::bit_width(side - 1);
  const auto morton = [coord_bits](u32 x, u32 y) {
    u64 key = 0;
    for (u32 bit = 0; bit < coord_bits; ++bit) {
      key |= (static_cast<u64>((x >> bit) & 1) << (2 * bit)) |
             (static_cast<u64>((y >> bit) & 1) << (2 * bit + 1));
    }
    return key;
  };
  std::vector<std::pair<u64, vidx>> keyed;
  keyed.reserve(static_cast<usize>(side) * side);
  for (u32 y = 0; y < side; ++y) {
    for (u32 x = 0; x < side; ++x) {
      keyed.push_back(
          {morton(x, y), static_cast<vidx>(static_cast<u64>(y) * side + x)});
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<vidx> perm(static_cast<usize>(side) * side);
  for (vidx rank = 0; rank < keyed.size(); ++rank) {
    perm[keyed[rank].second] = rank;
  }
  return perm;
}

std::vector<vidx> order_hub(const Csr& g) {
  const vidx n = g.num_vertices();
  std::vector<vidx> perm(n);
  if (n == 0) return perm;
  // A hub is a vertex whose degree strictly exceeds the mean degree.
  const double mean = static_cast<double>(g.num_edges()) /
                      static_cast<double>(n);
  std::vector<vidx> hubs;
  for (vidx v = 0; v < n; ++v) {
    if (static_cast<double>(g.degree(v)) > mean) hubs.push_back(v);
  }
  std::stable_sort(hubs.begin(), hubs.end(), [&](vidx a, vidx b) {
    return g.degree(a) != g.degree(b) ? g.degree(a) > g.degree(b) : a < b;
  });
  vidx rank = 0;
  for (const vidx v : hubs) perm[v] = rank++;
  // Tail keeps its original relative order (perm stays monotone on it).
  std::vector<bool> is_hub(n, false);
  for (const vidx v : hubs) is_hub[v] = true;
  for (vidx v = 0; v < n; ++v) {
    if (!is_hub[v]) perm[v] = rank++;
  }
  return perm;
}

std::vector<vidx> order_hub_cluster(const Csr& g) {
  const vidx n = g.num_vertices();
  std::vector<vidx> perm(n);
  if (n == 0) return perm;
  // Bucket index = floor(log2(degree + 1)): 0 holds isolated vertices,
  // each higher bucket doubles the degree range. Emit hottest bucket first.
  const auto bucket_of = [&](vidx v) {
    u32 b = 0;
    for (u64 d = static_cast<u64>(g.degree(v)) + 1; d > 1; d >>= 1) ++b;
    return b;
  };
  u32 max_bucket = 0;
  std::vector<u32> bucket(n);
  for (vidx v = 0; v < n; ++v) {
    bucket[v] = bucket_of(v);
    max_bucket = std::max(max_bucket, bucket[v]);
  }
  vidx rank = 0;
  for (u32 b = max_bucket + 1; b-- > 0;) {
    for (vidx v = 0; v < n; ++v) {
      if (bucket[v] == b) perm[v] = rank++;
    }
  }
  return perm;
}

std::vector<vidx> order_gorder(const Csr& g, u32 window) {
  ECLP_CHECK(window >= 1);
  const vidx n = g.num_vertices();
  std::vector<vidx> perm(n, kNoVertex);
  if (n == 0) return perm;
  // Sibling expansion through a high-degree vertex would make the greedy
  // pass quadratic on power-law graphs; skip it there (Gorder §5.3).
  const u64 hub_cap = std::max<u64>(
      64, 8 * (static_cast<u64>(g.num_edges()) / std::max<vidx>(n, 1)));

  // Indexed binary max-heap over exactly the unplaced vertices with a
  // positive score, keyed by (score, lower id wins); its root is the next
  // pick. slot[v] is v's heap index, kAbsent (unplaced, score 0) or kPlaced.
  // A heap never holds more than n - 1 entries, so no index reaches the
  // two sentinels.
  constexpr vidx kAbsent = kNoVertex;
  constexpr vidx kPlaced = kNoVertex - 1;
  struct Entry {
    i64 score;
    vidx v;
  };
  std::vector<Entry> heap;
  std::vector<vidx> slot(n, kAbsent);
  const auto above = [](const Entry& a, const Entry& b) {
    return a.score != b.score ? a.score > b.score : a.v < b.v;
  };
  const auto put = [&](usize i, const Entry& e) {
    heap[i] = e;
    slot[e.v] = static_cast<vidx>(i);
  };
  const auto sift_up = [&](usize i) {
    const Entry e = heap[i];
    while (i > 0) {
      const usize parent = (i - 1) / 2;
      if (!above(e, heap[parent])) break;
      put(i, heap[parent]);
      i = parent;
    }
    put(i, e);
  };
  const auto sift_down = [&](usize i) {
    const Entry e = heap[i];
    while (2 * i + 1 < heap.size()) {
      usize child = 2 * i + 1;
      if (child + 1 < heap.size() && above(heap[child + 1], heap[child])) {
        ++child;
      }
      if (!above(heap[child], e)) break;
      put(i, heap[child]);
      i = child;
    }
    put(i, e);
  };
  // Take heap[i] out (its vertex's slot is set by the caller) and refill
  // the hole with the last entry.
  const auto remove_at = [&](usize i) {
    const Entry last = heap.back();
    heap.pop_back();
    if (i == heap.size()) return;
    put(i, last);
    if (i > 0 && above(last, heap[(i - 1) / 2])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  };
  // +1 inserts or raises v; -1 lowers it, dropping it from the heap at 0.
  // Scores never go negative: every -1 undoes an earlier +1 from the same
  // window vertex, and a vertex only stops receiving both once placed.
  const auto add = [&](vidx v, i64 delta) {
    const vidx i = slot[v];
    if (i == kPlaced) return;
    if (delta > 0) {
      if (i == kAbsent) {
        heap.push_back({1, v});
        sift_up(heap.size() - 1);
      } else {
        ++heap[i].score;
        sift_up(i);
      }
    } else if (--heap[i].score == 0) {
      slot[v] = kAbsent;
      remove_at(i);
    } else {
      sift_down(i);
    }
  };

  // Add (+1) or remove (-1) vertex u's affinity contributions: +delta to
  // every unplaced direct neighbor, and +delta to every unplaced sibling
  // reachable through a non-hub shared neighbor. u itself is placed, so
  // add() skips the paths u -> nb -> u.
  const auto contribute = [&](vidx u, i64 delta) {
    for (const vidx nb : g.neighbors(u)) {
      add(nb, delta);
      if (g.degree(nb) > hub_cap) continue;
      for (const vidx sib : g.neighbors(nb)) add(sib, delta);
    }
  };

  std::vector<vidx> order;  // placement sequence (order[rank] = old id)
  order.reserve(n);
  vidx next_fallback = 0;  // lowest id not yet known to be placed
  for (vidx rank = 0; rank < n; ++rank) {
    vidx pick;
    if (!heap.empty()) {
      pick = heap[0].v;
      remove_at(0);
    } else {
      // Nothing has affinity left: fall back to id order.
      while (slot[next_fallback] == kPlaced) ++next_fallback;
      pick = next_fallback;
    }
    slot[pick] = kPlaced;
    perm[pick] = rank;
    order.push_back(pick);
    contribute(pick, +1);
    if (rank >= window) contribute(order[rank - window], -1);
  }
  return perm;
}

namespace {

/// Parse a digit-checked spec argument into an unsigned integer type,
/// reporting overflow as a CheckFailure diagnostic instead of letting
/// std::out_of_range escape (std::stoull on "9999...9" would abort a
/// --reorder=random:<hugeseed> run with an uncaught exception).
template <typename T>
T parse_spec_number(const std::string& spec, const std::string& arg) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(arg.data(), arg.data() + arg.size(), value);
  ECLP_CHECK_MSG(ec != std::errc::result_out_of_range,
                 "reorder spec '" << spec << "' argument '" << arg
                                  << "' does not fit in " << 8 * sizeof(T)
                                  << " bits");
  ECLP_CHECK_MSG(ec == std::errc{} && ptr == arg.data() + arg.size(),
                 "reorder spec '" << spec << "' has a malformed argument '"
                                  << arg << "'");
  return value;
}

}  // namespace

ReorderSpec ReorderSpec::parse(const std::string& spec) {
  ReorderSpec out;
  std::string head = spec;
  std::string arg;
  if (const usize colon = spec.find(':'); colon != std::string::npos) {
    head = spec.substr(0, colon);
    arg = spec.substr(colon + 1);
    ECLP_CHECK_MSG(!arg.empty(), "reorder spec '" << spec
                                                  << "' has an empty argument");
    for (const char c : arg) {
      ECLP_CHECK_MSG(c >= '0' && c <= '9', "reorder spec argument must be "
                                               "numeric, got '"
                                               << arg << "'");
    }
  }
  if (head.empty() || head == "natural" || head == "none") {
    out.kind = Kind::kNatural;
  } else if (head == "random") {
    out.kind = Kind::kRandom;
    if (!arg.empty()) out.seed = parse_spec_number<u64>(spec, arg);
  } else if (head == "bfs") {
    out.kind = Kind::kBfs;
  } else if (head == "degree") {
    out.kind = Kind::kDegree;
  } else if (head == "hub") {
    out.kind = Kind::kHub;
  } else if (head == "hubcluster") {
    out.kind = Kind::kHubCluster;
  } else if (head == "gorder") {
    out.kind = Kind::kGorder;
    if (!arg.empty()) {
      out.window = parse_spec_number<u32>(spec, arg);
      ECLP_CHECK_MSG(out.window >= 1, "gorder window must be >= 1");
    }
  } else {
    ECLP_CHECK_MSG(false, "unknown reorder spec '"
                              << spec
                              << "' (expected natural, random[:SEED], bfs, "
                                 "degree, hub, hubcluster, gorder[:WINDOW])");
  }
  ECLP_CHECK_MSG(arg.empty() || out.kind == Kind::kRandom ||
                     out.kind == Kind::kGorder,
                 "reorder spec '" << spec << "' does not take an argument");
  return out;
}

std::string ReorderSpec::canonical() const {
  switch (kind) {
    case Kind::kNatural: return "natural";
    case Kind::kRandom: return "random:" + std::to_string(seed);
    case Kind::kBfs: return "bfs";
    case Kind::kDegree: return "degree";
    case Kind::kHub: return "hub";
    case Kind::kHubCluster: return "hubcluster";
    case Kind::kGorder: return "gorder:" + std::to_string(window);
  }
  return "natural";
}

std::vector<vidx> make_order(const Csr& g, const ReorderSpec& spec) {
  switch (spec.kind) {
    case ReorderSpec::Kind::kNatural: {
      std::vector<vidx> identity(g.num_vertices());
      for (vidx v = 0; v < g.num_vertices(); ++v) identity[v] = v;
      return identity;
    }
    case ReorderSpec::Kind::kRandom: return order_random(g, spec.seed);
    case ReorderSpec::Kind::kBfs: return order_bfs(g);
    case ReorderSpec::Kind::kDegree: return order_by_degree_desc(g);
    case ReorderSpec::Kind::kHub: return order_hub(g);
    case ReorderSpec::Kind::kHubCluster: return order_hub_cluster(g);
    case ReorderSpec::Kind::kGorder: return order_gorder(g, spec.window);
  }
  ECLP_CHECK_MSG(false, "unhandled reorder kind");
  return {};
}

namespace {

/// Content hash of a CSR for reorder memoization: shape + the raw index
/// and weight arrays. Two graphs with identical content share relabeled
/// cache entries regardless of how they were obtained.
CacheKey csr_content_key(const Csr& g, const ReorderSpec& spec) {
  CacheKey key;
  key.mix("eclp-reorder-v1");
  key.mix_u64(g.num_vertices());
  key.mix_u64(g.num_edges());
  const auto mix_span = [&key](const auto& span) {
    if (span.empty()) {
      key.mix("");
      return;
    }
    key.mix(std::string_view(reinterpret_cast<const char*>(span.data()),
                             span.size_bytes()));
  };
  mix_span(g.row_offsets());
  mix_span(g.col_indices());
  mix_span(g.weights());
  key.mix(spec.canonical());
  return key;
}

}  // namespace

Csr apply_reorder(const Csr& g, const ReorderSpec& spec) {
  if (spec.is_natural()) return g;
  // Hashing the whole CSR for the key costs a pass over its bytes; skip it
  // when there is no cache to look the key up in.
  if (cache_dir().empty()) return relabel(g, make_order(g, spec));
  return cache_or_build(csr_content_key(g, spec),
                        [&] { return relabel(g, make_order(g, spec)); });
}

const std::vector<ReorderSpec>& reorder_suite() {
  static const std::vector<ReorderSpec> kSuite = {
      ReorderSpec::parse("natural"), ReorderSpec::parse("random"),
      ReorderSpec::parse("bfs"),     ReorderSpec::parse("degree"),
      ReorderSpec::parse("hub"),     ReorderSpec::parse("gorder"),
  };
  return kSuite;
}

double block_affinity(const Csr& g, vidx block_size) {
  ECLP_CHECK(block_size > 0);
  if (g.num_edges() == 0) return 1.0;
  u64 inside = 0;
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    for (const vidx v : g.neighbors(u)) {
      inside += (u / block_size == v / block_size);
    }
  }
  return static_cast<double>(inside) / static_cast<double>(g.num_edges());
}

double locality_score(const Csr& g) {
  if (g.num_edges() == 0 || g.num_vertices() == 0) return 0.0;
  double total = 0.0;
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    for (const vidx v : g.neighbors(u)) {
      total += std::abs(static_cast<double>(u) - static_cast<double>(v));
    }
  }
  return total / static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_vertices());
}

}  // namespace eclp::graph
