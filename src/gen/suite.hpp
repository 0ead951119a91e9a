// The input suite mirroring the paper's Table 1.
//
// Every entry names one of the paper's inputs and provides (a) the values
// Table 1 reports for the original file and (b) a generator producing a
// scaled-down synthetic stand-in of the same structural class (see
// generators.hpp / meshes.hpp for why each class preserves the profiled
// behaviour). Three scales are provided: kDefault for the bench harness,
// kSmall for quick runs, kTiny for unit tests.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "graph/cache.hpp"
#include "graph/csr.hpp"

namespace eclp::gen {

/// kHuge is one more size of the families whose generator is a chunked
/// stream (gen/stream.hpp, InputSpec::huge): ~10^8-arc graphs, built in
/// bounded memory because build_from_chunks never holds the edge list.
enum class Scale : u8 { kTiny = 0, kSmall = 1, kDefault = 2, kHuge = 3 };

/// Parse "tiny"/"small"/"default"/"huge" (used by bench --scale flags).
Scale parse_scale(const std::string& s);
/// The name parse_scale() maps back to `s`.
const char* scale_name(Scale s);

/// The row Table 1 reports for the original input file.
struct PaperRow {
  u64 edges = 0;
  u64 vertices = 0;
  std::string type;
  double d_avg = 0.0;
  double d_max = 0.0;
};

struct InputSpec {
  std::string name;       ///< the paper's input name (e.g. "europe_osm")
  PaperRow paper;         ///< Table 1 values for the original file
  bool directed = false;  ///< true for the SCC meshes
  /// Generate the stand-in at the given scale. Memoized through the
  /// content-addressed graph cache (graph/cache.hpp) when a cache
  /// directory is configured: repeat runs deserialize the finished CSR
  /// instead of regenerating and rebuilding it.
  std::function<graph::Csr(Scale)> make;
  /// True when make() supports Scale::kHuge via the chunked streaming
  /// pipeline; other entries CHECK-fail on kHuge.
  bool huge = false;
};

/// The 17 general inputs (upper block of Table 1): MIS, CC, MST, GC.
const std::vector<InputSpec>& general_inputs();
/// The 5 directed meshes (lower block of Table 1): SCC.
const std::vector<InputSpec>& mesh_inputs();

/// Look up any input by name across both blocks. Throws if unknown.
const InputSpec& find_input(const std::string& name);

/// Version tag mixed into every suite cache key (the suite's own version
/// plus the chunk-stream seeding-scheme version). Exposed so the
/// cache-key regression test can pin that key derivation actually moved
/// when the builder/generator contract changed.
u64 suite_cache_version();

/// The content address memoize_suite files (name, scale) under. Stable
/// across processes; changes exactly when suite_cache_version() or the
/// entry's identity does.
graph::CacheKey suite_cache_key(const std::string& name, Scale s);

}  // namespace eclp::gen
