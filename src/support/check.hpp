// Lightweight runtime checking.
//
// ECLP_CHECK is always on (release included): the library's invariants are
// cheap relative to graph processing and violations indicate programmer
// error, so we fail fast with a descriptive exception instead of undefined
// behaviour (C++ Core Guidelines I.6/E.12).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace eclp {

/// Exception thrown when a runtime check fails. what() names the failed
/// expression and its source location; message() is only the check's own
/// text, stable across checkouts, for reports that leave the process.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what)
      : CheckFailure(what, 0, what.size()) {}
  /// `what` whose message() is its `len` characters from `pos`.
  CheckFailure(const std::string& what, std::size_t pos, std::size_t len)
      : std::logic_error(what), pos_(pos), len_(len) {}
  std::string_view message() const {
    return std::string_view(what()).substr(pos_, len_);
  }

 private:
  std::size_t pos_;
  std::size_t len_;
};

namespace detail {
[[noreturn]] void check_failed(const char* expr, const char* file, int line,
                               const std::string& msg);
}  // namespace detail

}  // namespace eclp

/// Check a condition; throws eclp::CheckFailure with location info on failure.
#define ECLP_CHECK(cond)                                                  \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::eclp::detail::check_failed(#cond, __FILE__, __LINE__, "");        \
    }                                                                     \
  } while (false)

/// Check with a streamed message: ECLP_CHECK_MSG(x < n, "x=" << x).
#define ECLP_CHECK_MSG(cond, stream_expr)                                 \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::std::ostringstream eclp_check_os_;                                \
      eclp_check_os_ << stream_expr;                                      \
      ::eclp::detail::check_failed(#cond, __FILE__, __LINE__,             \
                                   eclp_check_os_.str());                 \
    }                                                                     \
  } while (false)

// Hot-path checks: bounds checks executed once per simulated memory op or
// counter increment, where the check itself is a measurable fraction of the
// work. ECLP_ASSERT* behaves exactly like ECLP_CHECK* when ECLP_HARDENED is
// nonzero (the default, and what every test build uses); bench builds
// compile with ECLP_HARDENED=0 (see bench/CMakeLists.txt) and the condition
// is not evaluated — only syntax-checked — mirroring the NDEBUG/assert
// convention. Use ECLP_CHECK* for everything that is not per-element hot.
#ifndef ECLP_HARDENED
#define ECLP_HARDENED 1
#endif

#if ECLP_HARDENED
#define ECLP_ASSERT(cond) ECLP_CHECK(cond)
#define ECLP_ASSERT_MSG(cond, stream_expr) ECLP_CHECK_MSG(cond, stream_expr)
#else
#define ECLP_ASSERT(cond) ((void)sizeof(!(cond)))
#define ECLP_ASSERT_MSG(cond, stream_expr) ((void)sizeof(!(cond)))
#endif
