// Minimal JSON library (parse + serialize) used by JsonCodec and by the
// RIC communication plugins that choose JSON as their payload encoding.
// Supports the full JSON grammar except surrogate-pair escapes; numbers are
// doubles (adequate for the RAN message schema).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace waran::codec {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(double n) : type_(Type::kNumber), num_(n) {}  // NOLINT
  Json(int n) : type_(Type::kNumber), num_(n) {}  // NOLINT
  Json(uint32_t n) : type_(Type::kNumber), num_(n) {}  // NOLINT
  Json(int64_t n) : type_(Type::kNumber), num_(static_cast<double>(n)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(Array a) : type_(Type::kArray), arr_(std::move(a)) {}  // NOLINT
  Json(Object o) : type_(Type::kObject), obj_(std::move(o)) {}  // NOLINT

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const Array& as_array() const { return arr_; }
  Array& as_array() { return arr_; }
  const Object& as_object() const { return obj_; }
  Object& as_object() { return obj_; }

  /// Object field access; returns null Json when absent or not an object.
  const Json& operator[](const std::string& key) const;
  /// Object field insertion (value must be an object).
  Json& set(const std::string& key, Json v);
  /// Array append (value must be an array).
  void push_back(Json v) { arr_.push_back(std::move(v)); }

  size_t size() const {
    if (is_array()) return arr_.size();
    if (is_object()) return obj_.size();
    return 0;
  }

  bool operator==(const Json& other) const;

  /// Compact serialization.
  std::string dump() const;

  static Result<Json> parse(std::string_view text);

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace waran::codec
