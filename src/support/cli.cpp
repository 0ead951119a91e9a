#include "support/cli.hpp"

#include <charconv>
#include <limits>
#include <sstream>

#include "support/check.hpp"

namespace eclp {

void Cli::add_option(std::string name, std::string help,
                     std::string default_value) {
  ECLP_CHECK(!name.empty());
  Opt o;
  o.help = std::move(help);
  o.value = std::move(default_value);
  opts_.emplace(std::move(name), std::move(o));
}

void Cli::add_flag(std::string name, std::string help) {
  Opt o;
  o.help = std::move(help);
  o.is_flag = true;
  opts_.emplace(std::move(name), std::move(o));
}

void Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = opts_.find(name);
    ECLP_CHECK_MSG(it != opts_.end(), "unknown option --" << name);
    Opt& opt = it->second;
    if (opt.is_flag) {
      ECLP_CHECK_MSG(!value.has_value(), "flag --" << name
                                                   << " takes no value");
      opt.value = "1";
    } else {
      if (!value.has_value()) {
        ECLP_CHECK_MSG(i + 1 < argc, "option --" << name << " needs a value");
        value = argv[++i];
      }
      opt.value = *value;
    }
    opt.set = true;
  }
}

std::string Cli::get(const std::string& name) const {
  auto it = opts_.find(name);
  ECLP_CHECK_MSG(it != opts_.end(), "undeclared option --" << name);
  return it->second.value;
}

i64 Cli::get_int(const std::string& name) const {
  const std::string v = get(name);
  const char* end = v.data() + v.size();
  i64 out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  ECLP_CHECK_MSG(ec != std::errc::result_out_of_range,
                 "--" << name << "=" << v << " is out of the 64-bit range");
  ECLP_CHECK_MSG(ec == std::errc() && ptr == end,
                 "--" << name << "=" << v << " is not an integer");
  return out;
}

u32 Cli::get_u32(const std::string& name) const {
  const i64 v = get_int(name);
  ECLP_CHECK_MSG(v >= 0 && v <= i64{std::numeric_limits<u32>::max()},
                 "--" << name << "=" << v << " is out of range [0, "
                      << std::numeric_limits<u32>::max() << "]");
  return static_cast<u32>(v);
}

double Cli::get_double(const std::string& name) const {
  const std::string v = get(name);
  usize pos = 0;
  const double out = std::stod(v, &pos);
  ECLP_CHECK_MSG(pos == v.size(), "--" << name << "=" << v
                                       << " is not a number");
  return out;
}

bool Cli::get_flag(const std::string& name) const {
  return get(name) == "1";
}

std::string Cli::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  for (const auto& [name, opt] : opts_) {
    os << "  --" << name;
    if (!opt.is_flag) os << "=<value>";
    os << "  " << opt.help;
    if (!opt.is_flag && !opt.value.empty()) os << " (default: " << opt.value
                                              << ")";
    os << '\n';
  }
  return os.str();
}

}  // namespace eclp
