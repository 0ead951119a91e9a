#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/cache.hpp"
#include "graph/dimacs.hpp"
#include "graph/stream_build.hpp"
#include "graph/text_parse.hpp"

namespace eclp::graph {

namespace {

constexpr u64 kMagic = 0x45434c5047525048ULL;  // "ECLPGRPH"
constexpr u32 kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  ECLP_CHECK_MSG(is.good(), "binary graph: truncated stream");
  return v;
}

template <typename T>
void write_vec(std::ostream& os, std::span<const T> v) {
  write_pod<u64>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Bytes between the read position of `is` and its end.
u64 bytes_left(std::istream& is) {
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(here);
  ECLP_CHECK_MSG(here != std::streampos(-1) && end != std::streampos(-1) &&
                     is.good(),
                 "binary graph: stream is not seekable");
  return static_cast<u64>(end - here);
}

/// An array's length prefix is checked against the bytes the stream still
/// holds before anything is allocated, so a corrupt prefix cannot ask for
/// more memory than the file could fill.
template <typename T>
std::vector<T> read_vec(std::istream& is) {
  const u64 n = read_pod<u64>(is);
  const u64 left = bytes_left(is);
  ECLP_CHECK_MSG(n <= left / sizeof(T),
                 "binary graph: array length "
                     << n << " (x " << sizeof(T) << " bytes) exceeds the "
                     << left << " bytes left in the stream");
  std::vector<T> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  ECLP_CHECK_MSG(is.good(), "binary graph: truncated array");
  return v;
}

std::string slurp_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ECLP_CHECK_MSG(is.is_open(), "cannot open " << path);
  return detail::slurp(is);
}

}  // namespace

void write_binary(const Csr& g, std::ostream& os) {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod<u8>(os, g.directed() ? 1 : 0);
  write_pod<u8>(os, g.weighted() ? 1 : 0);
  write_pod<u32>(os, g.num_vertices());
  write_vec(os, g.row_offsets());
  write_vec(os, g.col_indices());
  if (g.weighted()) write_vec(os, g.weights());
  ECLP_CHECK_MSG(os.good(), "binary graph: write failed");
}

Csr read_binary(std::istream& is) {
  ECLP_CHECK_MSG(read_pod<u64>(is) == kMagic, "binary graph: bad magic");
  ECLP_CHECK_MSG(read_pod<u32>(is) == kVersion, "binary graph: bad version");
  const bool directed = read_pod<u8>(is) != 0;
  const bool weighted = read_pod<u8>(is) != 0;
  const u32 n = read_pod<u32>(is);
  auto offsets = read_vec<eidx>(is);
  auto targets = read_vec<vidx>(is);
  std::vector<weight_t> weights;
  if (weighted) weights = read_vec<weight_t>(is);
  return Csr::from_parts(n, std::move(offsets), std::move(targets),
                         std::move(weights), directed);
}

void save_binary(const Csr& g, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  ECLP_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  write_binary(g, os);
}

Csr load_binary(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ECLP_CHECK_MSG(is.is_open(), "cannot open " << path);
  return read_binary(is);
}

void write_matrix_market(const Csr& g, std::ostream& os) {
  const bool sym = !g.directed();
  os << "%%MatrixMarket matrix coordinate "
     << (g.weighted() ? "integer" : "pattern") << ' '
     << (sym ? "symmetric" : "general") << '\n';
  // Count emitted entries first (symmetric stores the lower triangle only).
  u64 entries = 0;
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    for (const vidx v : g.neighbors(u)) {
      if (!sym || v <= u) ++entries;
    }
  }
  os << g.num_vertices() << ' ' << g.num_vertices() << ' ' << entries << '\n';
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      const vidx v = nbrs[i];
      if (sym && v > u) continue;
      os << (u + 1) << ' ' << (v + 1);
      if (g.weighted()) os << ' ' << g.weights_of(u)[i];
      os << '\n';
    }
  }
  ECLP_CHECK_MSG(os.good(), "matrix market: write failed");
}

Csr parse_matrix_market(std::string_view text) {
  using detail::next_line;
  using detail::parse_f64;
  using detail::parse_u64;

  std::string_view rest = text;
  ECLP_CHECK_MSG(!rest.empty(), "matrix market: empty stream");
  std::istringstream head{std::string(next_line(rest))};
  std::string banner, object, format, field, symmetry;
  head >> banner >> object >> format >> field >> symmetry;
  ECLP_CHECK_MSG(banner == "%%MatrixMarket", "matrix market: bad banner");
  ECLP_CHECK_MSG(object == "matrix" && format == "coordinate",
                 "matrix market: only coordinate matrices supported");
  const bool weighted = field == "integer" || field == "real";
  ECLP_CHECK_MSG(weighted || field == "pattern",
                 "matrix market: unsupported field " << field);
  const bool symmetric = symmetry == "symmetric";
  ECLP_CHECK_MSG(symmetric || symmetry == "general",
                 "matrix market: unsupported symmetry " << symmetry);

  // Skip comments, then read the size line. Everything after it is the
  // entry body, handed to the chunk-parallel sweep below.
  u64 rows = 0, cols = 0, entries = 0;
  bool saw_size = false;
  while (!rest.empty()) {
    std::string_view line = next_line(rest);
    if (line.empty() || line[0] == '%') continue;
    ECLP_CHECK_MSG(parse_u64(line, rows) && parse_u64(line, cols) &&
                       parse_u64(line, entries),
                   "matrix market: malformed size line");
    saw_size = true;
    break;
  }
  ECLP_CHECK_MSG(saw_size, "matrix market: missing size line");
  ECLP_CHECK_MSG(rows == cols, "matrix market: matrix must be square");
  ECLP_CHECK_MSG(rows < kNoVertex, "matrix market: too many vertices");

  const auto chunk_edges = detail::sweep_lines(
      rest, [&](std::string_view line, std::vector<Edge>& out) {
        if (line.empty()) return;
        u64 r = 0, cc = 0;
        double w = 0.0;
        std::string_view s = line;
        ECLP_CHECK_MSG(parse_u64(s, r) && parse_u64(s, cc),
                       "matrix market: malformed entry: " << line);
        if (weighted) parse_f64(s, w);
        ECLP_CHECK_MSG(r >= 1 && r <= rows && cc >= 1 && cc <= cols,
                       "matrix market: index out of range: " << line);
        out.push_back({static_cast<vidx>(r - 1), static_cast<vidx>(cc - 1),
                       static_cast<weight_t>(w)});
      });

  u64 total = 0;
  for (const auto& ce : chunk_edges) total += ce.size();
  ECLP_CHECK_MSG(total == entries, "matrix market: header promised "
                                       << entries << " entries, file had "
                                       << total);
  BuildOptions opt;
  opt.directed = !symmetric;
  opt.weighted = weighted;
  return build_from_chunks(
      VectorChunkSource(static_cast<vidx>(rows), chunk_edges), opt);
}

Csr read_matrix_market(std::istream& is) {
  return parse_matrix_market(detail::slurp(is));
}

Csr parse_edge_list(std::string_view text, bool directed, vidx num_vertices) {
  using detail::parse_u64;

  struct ChunkResult {
    std::vector<Edge> edges;
    vidx max_id = 0;
    bool weighted = false;
  };
  std::vector<ChunkResult> results = detail::sweep_lines<ChunkResult>(
      text, [&](std::string_view line, ChunkResult& out) {
        if (line.empty() || line[0] == '#' || line[0] == '%') return;
        u64 u = 0, v = 0, w = 0;
        std::string_view s = line;
        ECLP_CHECK_MSG(parse_u64(s, u) && parse_u64(s, v),
                       "edge list: malformed line: " << line);
        // A third numeric token is a weight; trailing non-numeric noise is
        // ignored, as the stream-based reader always did.
        if (parse_u64(s, w)) out.weighted = true;
        ECLP_CHECK_MSG(u < kNoVertex && v < kNoVertex,
                       "edge list: id too large");
        out.max_id = std::max({out.max_id, static_cast<vidx>(u),
                               static_cast<vidx>(v)});
        out.edges.push_back({static_cast<vidx>(u), static_cast<vidx>(v),
                             static_cast<weight_t>(w)});
      });

  vidx max_id = 0;
  bool weighted = false;
  u64 total = 0;
  std::vector<std::vector<Edge>> chunk_edges;
  for (ChunkResult& r : results) {
    max_id = std::max(max_id, r.max_id);
    weighted = weighted || r.weighted;
    total += r.edges.size();
    chunk_edges.push_back(std::move(r.edges));
  }
  const vidx n = num_vertices > 0 ? num_vertices
                                  : (total == 0 ? 0 : max_id + 1);
  ECLP_CHECK_MSG(n > max_id || total == 0,
                 "edge list: forced vertex count too small");
  BuildOptions opt;
  opt.directed = directed;
  opt.weighted = weighted;
  return build_from_chunks(VectorChunkSource(n, chunk_edges), opt);
}

Csr read_edge_list(std::istream& is, bool directed, vidx num_vertices) {
  return parse_edge_list(detail::slurp(is), directed, num_vertices);
}

namespace {

std::string extension_of(const std::string& path) {
  const auto dot = path.rfind('.');
  ECLP_CHECK_MSG(dot != std::string::npos && dot + 1 < path.size(),
                 "no file extension on '" << path << "'");
  return path.substr(dot + 1);
}

Csr parse_by_extension(const std::string& ext, std::string_view text,
                       bool directed) {
  if (ext == "mtx") return parse_matrix_market(text);
  if (ext == "gr") return parse_dimacs_sp(text);
  if (ext == "col") return parse_dimacs_col(text);
  if (ext == "el" || ext == "txt") return parse_edge_list(text, directed);
  ECLP_CHECK_MSG(false, "unknown graph format '." << ext << "' ("
                        << "known: eclg, mtx, gr, col, el, txt)");
  return {};
}

}  // namespace

Csr load_any(const std::string& path, bool directed) {
  const std::string ext = extension_of(path);
  if (ext == "eclg") return load_binary(path);  // already the cached form
  const std::string text = slurp_file(path);
  if (cache_dir().empty()) return parse_by_extension(ext, text, directed);
  // Content-addressed: the key covers the bytes (not the path — renames
  // and copies still hit) plus everything else that shapes the CSR.
  CacheKey key;
  key.mix("eclp-file-v1").mix(ext).mix_u64(directed ? 1 : 0).mix(text);
  return cache_or_build(key,
                        [&] { return parse_by_extension(ext, text, directed); });
}

void save_any(const Csr& g, const std::string& path) {
  const std::string ext = extension_of(path);
  if (ext == "eclg") {
    save_binary(g, path);
    return;
  }
  std::ofstream os(path);
  ECLP_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  if (ext == "mtx") {
    write_matrix_market(g, os);
  } else if (ext == "gr") {
    write_dimacs_sp(g, os);
  } else if (ext == "col") {
    write_dimacs_col(g, os);
  } else if (ext == "el" || ext == "txt") {
    write_edge_list(g, os);
  } else {
    ECLP_CHECK_MSG(false, "unknown graph format '." << ext << "'");
  }
}

void write_edge_list(const Csr& g, std::ostream& os) {
  os << "# vertices " << g.num_vertices() << " edges " << g.num_edges()
     << (g.directed() ? " directed" : " undirected") << '\n';
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      const vidx v = nbrs[i];
      if (!g.directed() && v < u) continue;  // emit each edge once
      os << u << ' ' << v;
      if (g.weighted()) os << ' ' << g.weights_of(u)[i];
      os << '\n';
    }
  }
  ECLP_CHECK_MSG(os.good(), "edge list: write failed");
}

}  // namespace eclp::graph
