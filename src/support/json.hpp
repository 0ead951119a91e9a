// Minimal JSON document model: parse, navigate, serialize.
//
// The observability layer both *writes* JSON (profile artifacts, Perfetto
// traces) and *reads* it back (eclp_profile_diff compares two profile
// files; tests validate emitted artifacts), so the repo needs a real
// parser, not just a writer. This is a deliberately small recursive-descent
// implementation of RFC 8259:
//  * numbers are stored as double (53-bit integer precision — far beyond
//    any modeled-cycle count the suite produces) and serialized without a
//    decimal point when integral, so u64 counters round-trip textually;
//  * objects preserve insertion order and serialization is fully
//    deterministic, which is what makes golden-file tests of emitted
//    artifacts byte-stable;
//  * errors throw CheckFailure with an offset-annotated message; numbers
//    follow the RFC grammar exactly (no leading '+' or leading zeros) and
//    must fit a double.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/types.hpp"

namespace eclp::json {

class Value;

/// Object member list. Insertion-ordered (vector of pairs, not a map): the
/// writer controls field order, and dumps are reproducible.
using Members = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), num_(d) {}
  Value(int v) : Value(static_cast<double>(v)) {}
  Value(u32 v) : Value(static_cast<double>(v)) {}
  Value(u64 v) : Value(static_cast<double>(v)) {}
  Value(i64 v) : Value(static_cast<double>(v)) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const {
    require(Kind::kBool);
    return bool_;
  }
  double as_number() const {
    require(Kind::kNumber);
    return num_;
  }
  /// Number as u64 (checked: must be integral and non-negative).
  u64 as_u64() const;
  const std::string& as_string() const {
    require(Kind::kString);
    return str_;
  }
  const std::vector<Value>& items() const {
    require(Kind::kArray);
    return items_;
  }
  const Members& members() const {
    require(Kind::kObject);
    return members_;
  }

  // --- building --------------------------------------------------------------
  /// Append to an array (value must already be an array).
  Value& push_back(Value v) {
    require(Kind::kArray);
    items_.push_back(std::move(v));
    return items_.back();
  }
  /// Set (or overwrite) an object member, preserving first-set order.
  Value& set(const std::string& key, Value v);

  // --- navigation ------------------------------------------------------------
  /// Object member by key; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
  /// Object member by key; throws CheckFailure when absent.
  const Value& at(const std::string& key) const;

  // --- serialization ---------------------------------------------------------
  /// Compact when indent < 0, pretty-printed otherwise.
  std::string dump(int indent = -1) const;
  /// Parse a complete JSON document; throws CheckFailure on malformed input
  /// or trailing garbage.
  static Value parse(const std::string& text);

 private:
  void require(Kind k) const;
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> items_;
  Members members_;
};

/// JSON string escaping (quotes, backslash, control characters).
std::string escape(const std::string& s);

/// True when `s` is exactly one RFC 8259 number token: an optional '-', an
/// integer part without leading zeros, then optional fraction and exponent.
bool is_number_token(const std::string& s);

/// Format a double the way the writer does: integral values without a
/// decimal point, everything else with up to 17 significant digits.
std::string format_number(double d);

}  // namespace eclp::json
