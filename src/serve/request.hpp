// Serving request/response schema.
//
// A request is everything that determines one analytics run: the
// algorithm, the graph (a Table-1 suite input at a scale, or a graph
// file), the device seed, and the per-algorithm knobs the one-shot CLI
// exposes. Requests arrive as JSONL (one JSON object per line; blank
// lines and '#' comments skipped) so request files are diffable, seekable,
// and trivially generated — see docs/SERVING.md for the full schema.
//
// Responses come in two renderings:
//  * deterministic (the default): only modeled quantities — result
//    summary, modeled cycles, a content checksum of the solution vector.
//    Byte-identical across serving thread counts, which is what the serve
//    goldens pin, and across serve-vs-CLI by construction: eclp-run and
//    the server run every request through the same job runner
//    (serve/job.hpp).
//  * timing: adds wall-clock latency and the pool hit/miss outcome, which
//    depend on scheduling and are therefore kept out of golden output.
#pragma once

#include <string>
#include <vector>

#include "gen/suite.hpp"
#include "support/json.hpp"
#include "support/types.hpp"

namespace eclp::serve {

enum class Algo : u8 { kCc, kGc, kMis, kMst, kScc };
const char* algo_name(Algo a);
/// Parse "cc" | "gc" | "mis" | "mst" | "scc"; throws CheckFailure.
Algo parse_algo(const std::string& s);

struct Request {
  std::string id;          ///< defaults to "r<line index>" when absent
  Algo algo = Algo::kCc;
  std::string input;       ///< suite input name (exclusive with `file`)
  std::string file;        ///< graph file path (.eclg/.mtx/.gr/.col/.el)
  gen::Scale scale = gen::Scale::kTiny;  ///< with `input`
  u64 seed = 0;            ///< device seed (shuffled schedule if nonzero)
  u64 weights_seed = 42;   ///< MST random-weight seed for unweighted graphs
  bool directed = false;   ///< for edge-list files without inherent direction
  bool verify = false;     ///< check against the sequential reference
  /// Vertex reordering spec ("" = natural): natural, random[:SEED], bfs,
  /// degree, hub, hubcluster, gorder[:WINDOW]. Part of the graph pool key —
  /// reordered graphs never alias natural-order entries.
  std::string reorder;
  /// Modeled-LLC spec ("" = off): off, on, or LINE:WAYS:SETS. Changes
  /// modeled results when enabled, so it is part of the pool key too.
  std::string llc;

  /// Parse one JSONL object. `index` names anonymous requests.
  static Request from_json(const json::Value& v, usize index);
  json::Value to_json() const;

  /// "rmat16.sym" / the file path — the label responses echo back.
  const std::string& graph_label() const { return input.empty() ? file : input; }
};

/// Parse a JSONL request file body. Blank lines and lines starting with
/// '#' are skipped; anything else must be a JSON object. A bad line throws
/// a CheckFailure whose message() starts with its 1-based line number:
/// "line 3: unknown algo 'nope' ...".
std::vector<Request> parse_requests_jsonl(const std::string& text);

enum class Status : u8 { kOk, kRejected, kError };
const char* status_name(Status s);

struct Response {
  std::string id;
  Algo algo = Algo::kCc;
  std::string graph;       ///< the request's graph label
  Status status = Status::kOk;
  std::string error;       ///< reject/error detail (empty when ok)
  std::string summary;     ///< deterministic one-line result (CLI-shaped)
  u64 modeled_cycles = 0;
  u64 llc_hits = 0;        ///< modeled-LLC split; zero when the cache is off
  u64 llc_misses = 0;
  std::string checksum;    ///< 32-hex fingerprint of the solution vector
  bool pool_hit = false;   ///< graph served from the in-process pool
  double wall_ms = 0.0;    ///< request latency (admission to completion)

  /// `timing` adds the scheduling-dependent fields (wall_ms, pool hit);
  /// without it the rendering is byte-stable across thread counts.
  json::Value to_json(bool timing) const;
};

/// Render responses as JSONL, one compact object per line, in the order
/// given (the server already returns request order).
std::string responses_to_jsonl(const std::vector<Response>& responses,
                               bool timing);

}  // namespace eclp::serve
