#include "support/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace eclp::json {

namespace {

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kBool: return "bool";
    case Value::Kind::kNumber: return "number";
    case Value::Kind::kString: return "string";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kObject: return "object";
  }
  return "?";
}

/// End of the RFC 8259 number token starting at s[i] (an optional '-', an
/// integer part without leading zeros, optional fraction and exponent), or
/// i when none starts there.
usize scan_number(const std::string& s, usize i) {
  const usize start = i;
  const auto digits = [&] {
    const usize from = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > from;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') {
    ++i;  // a leading zero is the whole integer part
  } else if (!digits()) {
    return start;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return start;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return start;
  }
  return i;
}

/// Recursive-descent parser over the whole input string.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    ECLP_CHECK_MSG(pos_ == text_.size(),
                   "JSON: trailing characters at offset " << pos_);
    return v;
  }

 private:
  Value parse_value() {
    skip_ws();
    ECLP_CHECK_MSG(pos_ < text_.size(), "JSON: unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't': expect_word("true"); return Value(true);
      case 'f': expect_word("false"); return Value(false);
      case 'n': expect_word("null"); return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object() {
    consume('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      ECLP_CHECK_MSG(peek() == '"',
                     "JSON: expected object key at offset " << pos_);
      std::string key = parse_string();
      skip_ws();
      consume(':');
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      consume('}');
      return obj;
    }
  }

  Value parse_array() {
    consume('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      consume(']');
      return arr;
    }
  }

  std::string parse_string() {
    consume('"');
    std::string out;
    while (true) {
      ECLP_CHECK_MSG(pos_ < text_.size(),
                     "JSON: unterminated string at offset " << pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      ECLP_CHECK_MSG(pos_ < text_.size(),
                     "JSON: unterminated escape at offset " << pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          ECLP_CHECK_MSG(pos_ + 4 <= text_.size(),
                         "JSON: truncated \\u escape at offset " << pos_);
          u32 code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<u32>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<u32>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<u32>(h - 'A' + 10);
            } else {
              ECLP_CHECK_MSG(false,
                             "JSON: bad \\u escape at offset " << pos_);
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writer; decode them as-is if encountered).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          ECLP_CHECK_MSG(false, "JSON: bad escape '\\" << e << "' at offset "
                                                       << (pos_ - 1));
      }
    }
  }

  Value parse_number() {
    const usize start = pos_;
    pos_ = scan_number(text_, pos_);
    ECLP_CHECK_MSG(pos_ > start, "JSON: bad number at offset " << start);
    const double d =
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    ECLP_CHECK_MSG(std::isfinite(d),
                   "JSON: number out of range at offset " << start);
    return Value(d);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void consume(char c) {
    skip_ws();
    ECLP_CHECK_MSG(peek() == c, "JSON: expected '" << c << "' at offset "
                                                   << pos_);
    ++pos_;
  }
  void expect_word(const char* w) {
    for (const char* p = w; *p != '\0'; ++p) {
      ECLP_CHECK_MSG(pos_ < text_.size() && text_[pos_] == *p,
                     "JSON: bad literal at offset " << pos_);
      ++pos_;
    }
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  usize pos_ = 0;
};

}  // namespace

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool is_number_token(const std::string& s) {
  return !s.empty() && scan_number(s, 0) == s.size();
}

std::string format_number(double d) {
  // Integral magnitudes render exactly, without a decimal point, so u64
  // counters survive a write/parse/write round trip unchanged.
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    return buf;
  }
  if (!std::isfinite(d)) return "0";  // JSON has no Inf/NaN
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

u64 Value::as_u64() const {
  const double d = as_number();
  ECLP_CHECK_MSG(d >= 0.0 && d == std::floor(d),
                 "JSON: number " << d << " is not a non-negative integer");
  return static_cast<u64>(d);
}

void Value::require(Kind k) const {
  ECLP_CHECK_MSG(kind_ == k, "JSON: expected " << kind_name(k) << ", got "
                                               << kind_name(kind_));
}

Value& Value::set(const std::string& key, Value v) {
  require(Kind::kObject);
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  members_.emplace_back(key, std::move(v));
  return members_.back().second;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  ECLP_CHECK_MSG(v != nullptr, "JSON: missing member '" << key << "'");
  return *v;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<usize>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += format_number(num_); break;
    case Kind::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      for (usize i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (usize i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        out += '"';
        out += escape(members_[i].first);
        out += "\":";
        if (indent >= 0) out += ' ';
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Value Value::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace eclp::json
