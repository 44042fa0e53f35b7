// Minimal JSON value tree: enough to compose run reports, serialize them
// (compact or pretty), and parse them back for validation. Object keys keep
// insertion order so emitted reports are stable and diffable.
//
// Not a general-purpose JSON library: numbers wider than uint64/int64/double
// and non-UTF-8 byte sequences are out of scope.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace compsyn {

class Json {
 public:
  enum class Type { Null, Bool, Int, Uint, Double, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), b_(b) {}
  Json(std::int64_t v) : type_(Type::Int), i_(v) {}
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}
  Json(std::uint64_t v) : type_(Type::Uint), u_(v) {}
  Json(unsigned v) : Json(static_cast<std::uint64_t>(v)) {}
  Json(double v) : type_(Type::Double), d_(v) {}
  Json(std::string s) : type_(Type::String), s_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), s_(s) {}
  Json(const char* s) : type_(Type::String), s_(s) {}

  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::Object; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_number() const {
    return type_ == Type::Int || type_ == Type::Uint || type_ == Type::Double;
  }

  /// Object member assignment (replaces an existing key, keeps order).
  Json& set(std::string key, Json value);

  /// Array append.
  Json& push(Json value);

  /// Object lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;

  /// Array / object element count; 0 for scalars.
  std::size_t size() const;

  /// Array element access (valid for i < size()).
  const Json& at(std::size_t i) const;
  /// Object entries, in insertion order.
  const std::vector<std::pair<std::string, Json>>& items() const { return obj_; }

  bool as_bool() const { return b_; }
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  double as_double() const;
  const std::string& as_string() const { return s_; }

  /// Serialization. indent <= 0: compact one-liner; indent > 0: pretty-printed
  /// with that many spaces per level.
  void write(std::ostream& os, int indent = 0) const;
  std::string dump(int indent = 0) const;

  /// Strict parser; returns nullopt and fills *error on malformed input.
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

 private:
  void write_impl(std::ostream& os, int indent, int depth) const;

  Type type_;
  bool b_ = false;
  std::int64_t i_ = 0;
  std::uint64_t u_ = 0;
  double d_ = 0.0;
  std::string s_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace compsyn
