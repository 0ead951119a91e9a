// Minimal command-line option parser for the bench/example binaries.
//
// Supported syntax: --key=value, --key value, --flag, and positional
// arguments. Unknown options are an error so typos do not silently run the
// default configuration.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace eclp {

class Cli {
 public:
  /// Declare an option before parsing. `help` is shown by usage().
  void add_option(std::string name, std::string help,
                  std::string default_value = "");
  void add_flag(std::string name, std::string help);

  /// Parse argv. Throws CheckFailure on unknown/malformed options.
  void parse(int argc, const char* const* argv);

  /// Typed accessors (fall back to the declared default). Integer
  /// accessors throw CheckFailure naming the option on a malformed or
  /// out-of-range value; they never wrap.
  std::string get(const std::string& name) const;
  i64 get_int(const std::string& name) const;
  u32 get_u32(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;
  const std::vector<std::string>& positional() const { return positional_; }

  /// Human-readable usage text.
  std::string usage(const std::string& program) const;

 private:
  struct Opt {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool set = false;
  };
  std::map<std::string, Opt> opts_;
  std::vector<std::string> positional_;
};

}  // namespace eclp
