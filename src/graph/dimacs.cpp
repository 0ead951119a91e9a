#include "graph/dimacs.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/stream_build.hpp"
#include "graph/text_parse.hpp"

namespace eclp::graph {

namespace {

struct Header {
  u64 vertices = 0;
  u64 edges = 0;
};

/// Skip "c" comment lines and parse the "p <kind> n m" line; `text` is
/// left pointing at the first body line.
Header read_header(std::string_view& text, const std::string& expected_kind) {
  while (!text.empty()) {
    std::string_view line = detail::next_line(text);
    if (line.empty() || line[0] == 'c') continue;
    ECLP_CHECK_MSG(line[0] == 'p', "dimacs: expected 'p' line, got: " << line);
    std::istringstream ls{std::string(line)};
    char p = 0;
    std::string kind;
    Header h;
    ls >> p >> kind >> h.vertices >> h.edges;
    ECLP_CHECK_MSG(static_cast<bool>(ls), "dimacs: malformed 'p' line");
    ECLP_CHECK_MSG(kind == expected_kind,
                   "dimacs: expected 'p " << expected_kind << "', got 'p "
                                          << kind << "'");
    ECLP_CHECK_MSG(h.vertices < kNoVertex, "dimacs: too many vertices");
    return h;
  }
  ECLP_CHECK_MSG(false, "dimacs: missing 'p' line");
  return {};
}

/// Sweep the body lines: every line must be a comment, blank, or start
/// with `tag`; fn parses the payload after the tag into the chunk's edge
/// buffer.
template <typename ParseLine>
std::vector<std::vector<Edge>> parse_body(std::string_view body, char tag,
                                          const char* what,
                                          ParseLine&& parse_line) {
  return detail::sweep_lines(
      body, [&](std::string_view line, std::vector<Edge>& out) {
        if (line.empty() || line[0] == 'c') return;
        ECLP_CHECK_MSG(line[0] == tag, "dimacs " << what << ": expected '"
                                                 << tag << "' line: " << line);
        parse_line(line.substr(1), line, out);
      });
}

}  // namespace

Csr parse_dimacs_sp(std::string_view text, bool symmetrize) {
  const Header h = read_header(text, "sp");
  const auto chunk_edges = parse_body(
      text, 'a', "sp",
      [&](std::string_view s, std::string_view line, std::vector<Edge>& out) {
        u64 u = 0, v = 0, w = 0;
        ECLP_CHECK_MSG(detail::parse_u64(s, u) && detail::parse_u64(s, v) &&
                           detail::parse_u64(s, w),
                       "dimacs sp: malformed arc: " << line);
        ECLP_CHECK_MSG(u >= 1 && u <= h.vertices && v >= 1 && v <= h.vertices,
                       "dimacs sp: arc endpoint out of range: " << line);
        out.push_back({static_cast<vidx>(u - 1), static_cast<vidx>(v - 1),
                       static_cast<weight_t>(w)});
      });
  u64 arcs = 0;
  for (const auto& ce : chunk_edges) arcs += ce.size();
  ECLP_CHECK_MSG(arcs == h.edges, "dimacs sp: header promised "
                                      << h.edges << " arcs, file had "
                                      << arcs);
  BuildOptions opt;
  opt.directed = !symmetrize;
  opt.weighted = true;
  return build_from_chunks(
      VectorChunkSource(static_cast<vidx>(h.vertices), chunk_edges), opt);
}

Csr read_dimacs_sp(std::istream& is, bool symmetrize) {
  return parse_dimacs_sp(detail::slurp(is), symmetrize);
}

void write_dimacs_sp(const Csr& g, std::ostream& os) {
  ECLP_CHECK_MSG(g.weighted(), "dimacs sp: graph needs weights");
  os << "c written by ecl-profile\n";
  os << "p sp " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.weights_of(u);
    for (usize i = 0; i < nbrs.size(); ++i) {
      os << "a " << (u + 1) << ' ' << (nbrs[i] + 1) << ' ' << ws[i] << '\n';
    }
  }
  ECLP_CHECK_MSG(os.good(), "dimacs sp: write failed");
}

Csr parse_dimacs_col(std::string_view text) {
  const Header h = read_header(text, "edge");
  const auto chunk_edges = parse_body(
      text, 'e', "col",
      [&](std::string_view s, std::string_view line, std::vector<Edge>& out) {
        u64 u = 0, v = 0;
        ECLP_CHECK_MSG(detail::parse_u64(s, u) && detail::parse_u64(s, v),
                       "dimacs col: malformed edge: " << line);
        ECLP_CHECK_MSG(u >= 1 && u <= h.vertices && v >= 1 && v <= h.vertices,
                       "dimacs col: endpoint out of range: " << line);
        out.push_back({static_cast<vidx>(u - 1), static_cast<vidx>(v - 1), 0});
      });
  u64 edges = 0;
  for (const auto& ce : chunk_edges) edges += ce.size();
  ECLP_CHECK_MSG(edges == h.edges, "dimacs col: header promised "
                                       << h.edges << " edges, file had "
                                       << edges);
  return build_from_chunks(
      VectorChunkSource(static_cast<vidx>(h.vertices), chunk_edges));
}

Csr read_dimacs_col(std::istream& is) {
  return parse_dimacs_col(detail::slurp(is));
}

void write_dimacs_col(const Csr& g, std::ostream& os) {
  ECLP_CHECK_MSG(!g.directed(), "dimacs col: graph must be undirected");
  os << "c written by ecl-profile\n";
  os << "p edge " << g.num_vertices() << ' ' << g.num_edges() / 2 << '\n';
  for (vidx u = 0; u < g.num_vertices(); ++u) {
    for (const vidx v : g.neighbors(u)) {
      if (v < u) continue;  // each edge once
      os << "e " << (u + 1) << ' ' << (v + 1) << '\n';
    }
  }
  ECLP_CHECK_MSG(os.good(), "dimacs col: write failed");
}

}  // namespace eclp::graph
