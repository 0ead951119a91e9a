#include "gen/suite.hpp"

#include <utility>

#include "gen/generators.hpp"
#include "gen/meshes.hpp"
#include "gen/stream.hpp"
#include "graph/cache.hpp"
#include "graph/transforms.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace eclp::gen {

namespace {

// Deterministic per-input seeds; distinct per input so the suite is not
// accidentally correlated.
constexpr u64 kSuiteSeed = 0xec1900df11e00001ULL;

// Version tag mixed into every suite cache key. The generator parameters
// live in the make_* lambdas below, so the key cannot hash them directly;
// instead (name, scale, kSuiteSeed, this version) addresses the content.
// BUMP THIS whenever a generator or a suite entry's parameters change, or
// stale cache directories will keep serving the old graphs.
// v2: suite gained scale=huge streamed entries and the Builder's CSR
// assembly grew the chunked streaming path — old .eclg entries keyed
// under v1 must not alias the new generation scheme.
// v3: the uniform, R-MAT/Kronecker, and preferential-attachment families
// generate through the chunked streams at every scale, so the tiny to
// default graphs of six entries changed.
constexpr u64 kSuiteCacheVersion = 3;

/// Wrap every entry's generator in the content-addressed graph cache
/// (graph/cache.hpp): when ECLP_GRAPH_CACHE / --graph-cache names a
/// directory, the first make() stores the finished CSR as .eclg and every
/// later run — any process — deserializes it instead of regenerating and
/// rebuilding. Disabled cache = straight call; no behavior change.
void memoize_suite(std::vector<InputSpec>& specs) {
  for (InputSpec& spec : specs) {
    auto generate = std::move(spec.make);
    const std::string name = spec.name;
    spec.make = [name, generate](Scale s) {
      if (graph::cache_dir().empty()) return generate(s);
      return graph::cache_or_build(suite_cache_key(name, s),
                                   [&] { return generate(s); });
    };
  }
}

u64 seed_for(const char* name) {
  u64 h = kSuiteSeed;
  for (const char* p = name; *p; ++p) h = splitmix64(h ^ static_cast<u8>(*p));
  return h;
}

/// Pick a dimension by scale. Only the entries whose family is a chunked
/// stream (InputSpec::huge) pass a `huge` size; on every other entry the
/// default 0 rejects kHuge.
template <typename T>
T by_scale(Scale s, T tiny, T small, T def, T huge = T{}) {
  switch (s) {
    case Scale::kTiny:
      return tiny;
    case Scale::kSmall:
      return small;
    case Scale::kDefault:
      return def;
    case Scale::kHuge:
      ECLP_CHECK_MSG(huge != T{},
                     "scale=huge is only available for inputs with a "
                     "streamed generator (InputSpec::huge)");
      return huge;
  }
  ECLP_CHECK_MSG(false, "invalid scale");
  return def;
}

std::vector<InputSpec> make_general() {
  std::vector<InputSpec> v;

  // The original grid/triangulation files carry vertex numberings that are
  // uncorrelated with adjacency (Table 4 of the paper shows ~20% of grid
  // vertices find no smaller neighbor, impossible under row-major order),
  // so the stand-ins are relabeled by a deterministic random permutation.
  const auto shuffled = [](graph::Csr g, const char* name) {
    Rng rng(seed_for(name) ^ 0x5eedULL);
    const auto perm = rng.permutation(g.num_vertices());
    return graph::relabel(g, perm);
  };

  v.push_back({"2d-2e20.sym",
               {4190208, 1048576, "grid", 4.0, 4},
               false,
               [shuffled](Scale s) {
                 return shuffled(grid2d_torus(by_scale<u32>(s, 48, 192, 384)),
                                 "2d-2e20.sym");
               }});

  v.push_back({"amazon0601",
               {4886816, 403394, "co-purchases", 12.1, 2752},
               false,
               [](Scale s) {
                 const vidx n = by_scale<vidx>(s, 3000, 12000, 50000);
                 return clique_union(n, n * 9 / 10, 2, 10,
                                     seed_for("amazon0601"));
               }});

  // Huge-capable entries: the family functions stream their chunked
  // generator (gen/stream.hpp) into build_from_chunks at every scale, so
  // scale=huge is one more size, ~10^8 arcs in bounded memory.
  v.push_back({"as-skitter",
               {22190596, 1696415, "InTopo", 13.1, 35455},
               false,
               [](Scale s) {
                 return preferential_attachment(
                     by_scale<vidx>(s, 4000, 30000, 120000, 1u << 21), 7,
                     seed_for("as-skitter"));
               },
               /*huge=*/true});

  v.push_back({"citationCiteseer",
               {2313294, 268495, "PubCit", 8.6, 1318},
               false,
               [](Scale s) {
                 return citation(by_scale<vidx>(s, 3000, 9000, 34000), 4.3,
                                 0.20, seed_for("citationCiteseer"));
               }});

  v.push_back({"cit-Patents",
               {33037894, 3774768, "PatCit", 8.0, 793},
               false,
               [](Scale s) {
                 return citation(by_scale<vidx>(s, 4000, 60000, 240000), 4.0,
                                 0.35, seed_for("cit-Patents"));
               }});

  v.push_back({"coPapersDBLP",
               {30491458, 540486, "PubCit", 56.4, 3299},
               false,
               [](Scale s) {
                 const vidx n = by_scale<vidx>(s, 3000, 9000, 35000);
                 return clique_union(n, n / 3, 3, 44,
                                     seed_for("coPapersDBLP"));
               }});

  v.push_back({"delaunay_n24",
               {100663202, 16777216, "triangulation", 6.0, 26},
               false,
               [shuffled](Scale s) {
                 return shuffled(
                     triangulated_grid(by_scale<u32>(s, 48, 192, 384),
                                       seed_for("delaunay_n24")),
                     "delaunay_n24");
               }});

  v.push_back({"europe_osm",
               {108109320, 50912018, "roadmap", 2.1, 13},
               false,
               [](Scale s) {
                 return road_network(by_scale<u32>(s, 56, 300, 600), 0.06,
                                     seed_for("europe_osm"));
               }});

  v.push_back({"in-2004",
               {27182946, 1382908, "weblinks", 19.7, 21869},
               false,
               [](Scale s) {
                 return weblink(by_scale<vidx>(s, 3000, 25000, 90000), 19.7,
                                seed_for("in-2004"));
               }});

  v.push_back({"internet",
               {387240, 124651, "InTopo", 3.1, 151},
               false,
               [](Scale s) {
                 return internet_topology(by_scale<vidx>(s, 3000, 12000, 40000),
                                          seed_for("internet"));
               }});

  v.push_back({"kron_g500-logn21",
               {182081864, 2097152, "Kronecker", 86.8, 213904},
               false,
               [](Scale s) {
                 // Huge is the paper's actual vertex count (2^21); 22
                 // samples per vertex keep the hub skew while fitting the
                 // single-host time budget.
                 const u32 scale = by_scale<u32>(s, 11, 14, 16, 21);
                 const u64 edges = u64{22} << scale;  // dense, hub-skewed
                 return kronecker(scale, edges, seed_for("kron_g500-logn21"));
               },
               /*huge=*/true});

  v.push_back({"r4-2e23.sym",
               {67108846, 8388608, "random", 8.0, 26},
               false,
               [](Scale s) {
                 // Huge: 2^24 vertices x 4 draws each -> ~1.3x10^8 arcs
                 // after mirroring, past the paper's own r4-2e23.
                 const vidx n =
                     by_scale<vidx>(s, 4000, 60000, 250000, vidx{1} << 24);
                 return uniform_random(n, static_cast<u64>(n) * 4,
                                       seed_for("r4-2e23.sym"));
               },
               /*huge=*/true});

  v.push_back({"rmat16.sym",
               {967866, 65536, "RMAT", 14.8, 569},
               false,
               [](Scale s) {
                 const u32 scale = by_scale<u32>(s, 11, 13, 14);
                 return rmat(scale, u64{8} << scale, 0.45, 0.22, 0.22,
                             seed_for("rmat16.sym"));
               }});

  v.push_back({"rmat22.sym",
               {65660814, 4194304, "RMAT", 15.7, 3687},
               false,
               [](Scale s) {
                 // Huge is the paper's actual parameterization: scale 22,
                 // 8 samples per vertex.
                 const u32 scale = by_scale<u32>(s, 12, 15, 17, 22);
                 return rmat(scale, u64{8} << scale, 0.45, 0.22, 0.22,
                             seed_for("rmat22.sym"));
               },
               /*huge=*/true});

  v.push_back({"soc-LiveJournal1",
               {85702474, 4847571, "community", 20.3, 20333},
               false,
               [](Scale s) {
                 return preferential_attachment(
                     by_scale<vidx>(s, 4000, 40000, 150000), 10,
                     seed_for("soc-LiveJournal1"));
               }});

  v.push_back({"USA-road-d.NY",
               {730100, 264346, "roadmap", 2.8, 8},
               false,
               [](Scale s) {
                 return road_network(by_scale<u32>(s, 48, 80, 160), 0.40,
                                     seed_for("USA-road-d.NY"));
               }});

  v.push_back({"USA-road-d.USA",
               {57708624, 23947347, "roadmap", 2.4, 9},
               false,
               [](Scale s) {
                 return road_network(by_scale<u32>(s, 56, 280, 550), 0.20,
                                     seed_for("USA-road-d.USA"));
               }});

  return v;
}

std::vector<InputSpec> make_meshes() {
  std::vector<InputSpec> v;

  v.push_back({"toroid-wedge",
               {485564, 196608, "mesh", 2.47, 4},
               true,
               [](Scale s) {
                 return gen::toroid_wedge(by_scale<u32>(s, 32, 128, 256),
                                          seed_for("toroid-wedge"));
               }});

  v.push_back({"star",
               {654080, 327680, "mesh", 2.00, 2},
               true,
               [](Scale s) {
                 return star_mesh(by_scale<u32>(s, 24, 150, 600),
                                  by_scale<u32>(s, 60, 120, 160),
                                  seed_for("star"));
               }});

  v.push_back({"toroid-hex",
               {4684142, 1572864, "mesh", 2.98, 4},
               true,
               [](Scale s) {
                 return gen::toroid_hex(by_scale<u32>(s, 32, 160, 320),
                                        seed_for("toroid-hex"));
               }});

  v.push_back({"cold-flow",
               {6295558, 2112512, "mesh", 2.98, 5},
               true,
               [](Scale s) {
                 return gen::cold_flow(by_scale<u32>(s, 32, 176, 352),
                                       seed_for("cold-flow"));
               }});

  v.push_back({"klein-bottle",
               {18793715, 8388608, "mesh", 2.24, 4},
               true,
               [](Scale s) {
                 return gen::klein_bottle(by_scale<u32>(s, 32, 208, 416),
                                          seed_for("klein-bottle"));
               }});

  return v;
}

}  // namespace

Scale parse_scale(const std::string& s) {
  if (s == "tiny") return Scale::kTiny;
  if (s == "small") return Scale::kSmall;
  if (s == "default") return Scale::kDefault;
  if (s == "huge") return Scale::kHuge;
  ECLP_CHECK_MSG(false, "unknown scale '" << s
                                          << "' (tiny|small|default|huge)");
  return Scale::kDefault;
}

const char* scale_name(Scale s) {
  switch (s) {
    case Scale::kTiny: return "tiny";
    case Scale::kSmall: return "small";
    case Scale::kDefault: return "default";
    case Scale::kHuge: return "huge";
  }
  return "default";
}

u64 suite_cache_version() {
  // The chunk-stream version rides along so a change to the per-chunk
  // seeding scheme moves every key even without a suite-level bump.
  return kSuiteCacheVersion ^ (kChunkStreamVersion << 32);
}

graph::CacheKey suite_cache_key(const std::string& name, Scale s) {
  graph::CacheKey key;
  key.mix("eclp-suite").mix_u64(suite_cache_version()).mix(name)
      .mix_u64(static_cast<u64>(s)).mix_u64(kSuiteSeed);
  return key;
}

const std::vector<InputSpec>& general_inputs() {
  static const std::vector<InputSpec> inputs = [] {
    auto v = make_general();
    memoize_suite(v);
    return v;
  }();
  return inputs;
}

const std::vector<InputSpec>& mesh_inputs() {
  static const std::vector<InputSpec> inputs = [] {
    auto v = make_meshes();
    memoize_suite(v);
    return v;
  }();
  return inputs;
}

const InputSpec& find_input(const std::string& name) {
  for (const auto& spec : general_inputs()) {
    if (spec.name == name) return spec;
  }
  for (const auto& spec : mesh_inputs()) {
    if (spec.name == name) return spec;
  }
  ECLP_CHECK_MSG(false, "unknown input '" << name << "'");
  static const InputSpec dummy{};
  return dummy;
}

}  // namespace eclp::gen
