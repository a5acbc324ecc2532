// A minimal JSON value type and recursive-descent parser, used for the
// TrainGML(...) payload in SPARQL-ML INSERT queries (paper Figure 8).
//
// Extensions over strict JSON, matching the paper's examples: object keys
// may be unquoted identifiers (including '-' and ':'), and string values
// may be single-quoted.
#ifndef KGNET_CORE_JSON_H_
#define KGNET_CORE_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace kgnet::core {

/// A JSON value (null / bool / number / string / array / object).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), str_(std::move(s)) {}

  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return num_; }
  const std::string& AsString() const { return str_; }
  const std::vector<JsonValue>& AsArray() const { return arr_; }
  const std::map<std::string, JsonValue>& AsObject() const { return obj_; }

  /// Object field access; returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    if (kind_ != Kind::kObject) return nullptr;
    auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
  }

  /// Case-insensitive, separator-insensitive field lookup: "GML-Task",
  /// "gmltask" and "GML_Task" all match. Useful because the paper's
  /// examples are inconsistent about key spelling.
  const JsonValue* FindRelaxed(const std::string& key) const;

  /// String field with fallback.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    const JsonValue* v = FindRelaxed(key);
    return v != nullptr && v->is_string() ? v->AsString() : fallback;
  }
  /// Numeric field with fallback.
  double GetNumber(const std::string& key, double fallback) const {
    const JsonValue* v = FindRelaxed(key);
    return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
  }

  void Push(JsonValue v) { arr_.push_back(std::move(v)); }
  void Set(std::string key, JsonValue v) {
    obj_[std::move(key)] = std::move(v);
  }

 private:
  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue> obj_;
};

/// Deepest array/object nesting ParseJson accepts. The parser recurses
/// once per level, so a hostile frame of nested brackets would otherwise
/// overflow the stack.
inline constexpr int kMaxJsonDepth = 128;

/// Parses `text` into a JsonValue. Nesting deeper than kMaxJsonDepth is
/// InvalidArgument.
Result<JsonValue> ParseJson(std::string_view text);

/// Serializes `value` as strict, deterministic JSON: object keys are
/// emitted in std::map order with double quotes, strings are escaped
/// (\" \\ \n \t \r, \u00XX for other control bytes), and numbers print
/// as decimal integers when integral (else %.17g, enough digits to
/// round-trip a double). The serving protocol relies on this
/// determinism: the same JsonValue always produces the same bytes, so
/// responses can be compared byte-for-byte in differential tests.
std::string DumpJson(const JsonValue& value);

}  // namespace kgnet::core

#endif  // KGNET_CORE_JSON_H_
