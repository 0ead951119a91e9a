#include "support/check.hpp"

namespace eclp::detail {

void check_failed(const char* expr, const char* file, int line,
                  const std::string& msg) {
  std::ostringstream os;
  os << "check failed: " << expr;
  const auto expr_end = static_cast<std::size_t>(os.tellp());
  os << " at " << file << ":" << line;
  if (msg.empty()) throw CheckFailure(os.str(), 0, expr_end);
  os << " — " << msg;
  const std::string what = os.str();
  throw CheckFailure(what, what.size() - msg.size(), msg.size());
}

}  // namespace eclp::detail
