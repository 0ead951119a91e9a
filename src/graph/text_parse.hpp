// Internal helpers for chunk-parallel text-format parsing.
//
// The four text readers (.mtx and .el in io.cpp, .gr and .col in
// dimacs.cpp) slurp their input into one buffer, read their header lines
// with next_line, and hand the body to sweep_lines: it splits the body
// into byte ranges aligned to line boundaries (one chunk per build-pool
// worker), parses each chunk into a private edge buffer, and returns the
// buffers in chunk order. Concatenating the chunks in order reproduces
// the input byte-for-byte, so the merged edge sequence equals what a
// serial line-by-line sweep produces — the chunking is invisible in the
// output (see docs/INGEST.md for the determinism argument).
//
// Number scanning uses std::from_chars instead of istringstream: the
// per-line stream construction was itself a measurable slice of ingest.
#pragma once

#include <charconv>
#include <istream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/builder.hpp"
#include "support/parallel_for.hpp"
#include "support/types.hpp"

namespace eclp::graph::detail {

inline std::string slurp(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

/// Consume one line off the front of `text` (no '\n', no trailing '\r').
inline std::string_view next_line(std::string_view& text) {
  const usize nl = text.find('\n');
  std::string_view line = text.substr(0, nl);
  text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Split `text` into at most `max_chunks` contiguous ranges whose
/// boundaries fall on line starts. Concatenating the ranges in order
/// reproduces `text` exactly.
inline std::vector<std::string_view> chunk_at_lines(std::string_view text,
                                                    u64 max_chunks) {
  std::vector<std::string_view> chunks;
  if (text.empty()) return chunks;
  if (max_chunks < 1) max_chunks = 1;
  const usize target = (text.size() + max_chunks - 1) / max_chunks;
  usize begin = 0;
  while (begin < text.size()) {
    usize end = begin + target;
    if (end >= text.size()) {
      end = text.size();
    } else {
      const usize nl = text.find('\n', end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
    }
    chunks.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return chunks;
}

/// Call fn(line) for every '\n'-terminated line of `chunk` (a final
/// unterminated line included); a trailing '\r' (CRLF input) is stripped.
template <typename Fn>
void for_each_line(std::string_view chunk, Fn&& fn) {
  usize begin = 0;
  while (begin < chunk.size()) {
    const usize nl = chunk.find('\n', begin);
    const usize end = nl == std::string_view::npos ? chunk.size() : nl;
    std::string_view line = chunk.substr(begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    fn(line);
    begin = end + 1;
  }
}

/// The chunk-parallel line sweep of every text reader: parse_line(line,
/// out) runs for each line of `body`, where `out` is the private State of
/// the line's chunk, and the States come back in chunk order. State is an
/// edge buffer (std::vector<Edge>) or a struct holding one as `edges`
/// next to per-chunk facts the reader merges afterwards.
template <typename State = std::vector<Edge>, typename ParseLine>
std::vector<State> sweep_lines(std::string_view body, ParseLine&& parse_line) {
  auto* pool = build_pool();
  const auto chunks = chunk_at_lines(body, pool == nullptr ? 1 : pool->size());
  std::vector<State> states(chunks.size());
  parallel_for_chunks(
      pool, chunks.size(), chunks.size(), [&](u64 c, u64, u64, u32) {
        State& out = states[c];
        const usize guess = chunks[c].size() / 8 + 1;
        if constexpr (std::is_same_v<State, std::vector<Edge>>) {
          out.reserve(guess);
        } else {
          out.edges.reserve(guess);
        }
        for_each_line(chunks[c],
                      [&](std::string_view line) { parse_line(line, out); });
      });
  return states;
}

inline void skip_spaces(std::string_view& s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
}

/// Parse an unsigned integer off the front of `s` (leading blanks
/// skipped). Advances `s` past the number on success.
inline bool parse_u64(std::string_view& s, u64& out) {
  skip_spaces(s);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{}) return false;
  s.remove_prefix(static_cast<usize>(ptr - s.data()));
  return true;
}

/// Parse a floating-point value off the front of `s` (Matrix Market
/// `real` entries; values are truncated to integer weights by the caller).
inline bool parse_f64(std::string_view& s, double& out) {
  skip_spaces(s);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{}) return false;
  s.remove_prefix(static_cast<usize>(ptr - s.data()));
  return true;
}

/// True when nothing but blanks remains (used to ignore trailing noise the
/// old istringstream readers also ignored).
inline bool only_blanks(std::string_view s) {
  skip_spaces(s);
  return s.empty();
}

}  // namespace eclp::graph::detail
