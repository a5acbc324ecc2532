#include "core/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace kgnet::core {

namespace {

std::string NormalizeKey(std::string_view key) {
  std::string out;
  for (char c : key) {
    if (c == '-' || c == '_' || c == ' ' || c == ':') continue;
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  Result<JsonValue> Parse() {
    KGNET_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWs();
    if (pos_ != s_.size())
      return Status::ParseError("trailing characters after JSON value");
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool Accept(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(char c) {
    if (!Accept(c))
      return Status::ParseError(std::string("expected '") + c +
                                "' at offset " + std::to_string(pos_));
    return Status::OK();
  }

  Result<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) return Status::ParseError("unexpected end of JSON");
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth)
        return Status::InvalidArgument(
            "JSON nesting deeper than " + std::to_string(kMaxJsonDepth) +
            " levels at offset " + std::to_string(pos_));
      ++depth_;
      Result<JsonValue> v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"' || c == '\'') {
      KGNET_ASSIGN_OR_RETURN(std::string str, ParseString());
      return JsonValue(std::move(str));
    }
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') {
      if (s_.substr(pos_, 4) == "null") {
        pos_ += 4;
        return JsonValue();
      }
      return Status::ParseError("bad literal at offset " +
                                std::to_string(pos_));
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
      return ParseNumber();
    // Bare word value (e.g. 50GB, 1h, ModelScore): read until delimiter and
    // treat as a string. This accommodates the paper's informal syntax.
    size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ']' && !std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    if (pos_ == start)
      return Status::ParseError("cannot parse JSON value at offset " +
                                std::to_string(pos_));
    return JsonValue(std::string(s_.substr(start, pos_ - start)));
  }

  Result<JsonValue> ParseObject() {
    KGNET_RETURN_IF_ERROR(Expect('{'));
    JsonValue obj = JsonValue::Object();
    SkipWs();
    if (Accept('}')) return obj;
    while (true) {
      KGNET_ASSIGN_OR_RETURN(std::string key, ParseKey());
      KGNET_RETURN_IF_ERROR(Expect(':'));
      KGNET_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      obj.Set(std::move(key), std::move(v));
      if (Accept(',')) continue;
      KGNET_RETURN_IF_ERROR(Expect('}'));
      return obj;
    }
  }

  Result<JsonValue> ParseArray() {
    KGNET_RETURN_IF_ERROR(Expect('['));
    JsonValue arr = JsonValue::Array();
    SkipWs();
    if (Accept(']')) return arr;
    while (true) {
      KGNET_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      arr.Push(std::move(v));
      if (Accept(',')) continue;
      KGNET_RETURN_IF_ERROR(Expect(']'));
      return arr;
    }
  }

  Result<std::string> ParseKey() {
    SkipWs();
    if (pos_ < s_.size() && (s_[pos_] == '"' || s_[pos_] == '\''))
      return ParseString();
    // Unquoted key: identifier characters plus '-', '.' and spaces inside
    // (e.g. "Task Budget"); the ':' separator ends the key.
    size_t start = pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == '.' || c == ' ') {
        ++pos_;
      } else {
        break;
      }
    }
    while (pos_ > start && s_[pos_ - 1] == ' ') --pos_;  // rstrip
    if (pos_ == start)
      return Status::ParseError("expected object key at offset " +
                                std::to_string(pos_));
    return std::string(s_.substr(start, pos_ - start));
  }

  Result<std::string> ParseString() {
    SkipWs();
    const char quote = s_[pos_];
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\' && pos_ + 1 < s_.size()) {
        const char e = s_[pos_ + 1];
        out += (e == 'n' ? '\n' : e == 't' ? '\t' : e);
        pos_ += 2;
        continue;
      }
      if (c == quote) {
        ++pos_;
        return out;
      }
      out += c;
      ++pos_;
    }
    return Status::ParseError("unterminated string");
  }

  Result<JsonValue> ParseBool() {
    if (s_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return JsonValue(true);
    }
    if (s_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return JsonValue(false);
    }
    return Status::ParseError("bad literal at offset " + std::to_string(pos_));
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    // A trailing unit (e.g. 50GB, 1h) turns the token into a string.
    if (pos_ < s_.size() &&
        std::isalpha(static_cast<unsigned char>(s_[pos_]))) {
      while (pos_ < s_.size() &&
             std::isalnum(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
      return JsonValue(std::string(s_.substr(start, pos_ - start)));
    }
    return JsonValue(std::atof(std::string(s_.substr(start, pos_ - start)).c_str()));
  }

  std::string_view s_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects open around the current position
};

}  // namespace

const JsonValue* JsonValue::FindRelaxed(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = obj_.find(key);
  if (it != obj_.end()) return &it->second;
  const std::string want = NormalizeKey(key);
  for (const auto& [k, v] : obj_) {
    if (NormalizeKey(k) == want) return &v;
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double d, std::string* out) {
  // Integral values within int64 range print without a decimal point so
  // counts and sizes look like integers on the wire.
  if (d >= -9.2e18 && d <= 9.2e18 &&
      d == static_cast<double>(static_cast<long long>(d))) {
    *out += std::to_string(static_cast<long long>(d));
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out += buf;
}

void DumpValue(const JsonValue& v, std::string* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += v.AsBool() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      AppendNumber(v.AsNumber(), out);
      break;
    case JsonValue::Kind::kString:
      AppendEscaped(v.AsString(), out);
      break;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : v.AsArray()) {
        if (!first) out->push_back(',');
        first = false;
        DumpValue(item, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, item] : v.AsObject()) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(key, out);
        out->push_back(':');
        DumpValue(item, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

std::string DumpJson(const JsonValue& value) {
  std::string out;
  DumpValue(value, &out);
  return out;
}

}  // namespace kgnet::core
