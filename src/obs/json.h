// The repository's one JSON codec (DESIGN.md §5d): a streaming JsonWriter
// for every exported document (run report, Chrome trace, /healthz, bench
// baselines) and a JsonValue tree with ParseJson for everything read back
// (regress baselines, tests).
//
// Number format: doubles are written shortest round-trip (std::to_chars),
// so ParseJson recovers the exact bits; integral doubles below 2^53 print
// as integers. NaN and infinities are not JSON and are written as null.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace bloc::obs {

/// A parsed (or hand-built) JSON document. Object members keep their
/// insertion order, so a tree built in code writes back in that order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Members = std::vector<std::pair<std::string, JsonValue>>;

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  Members object;

  JsonValue() = default;
  JsonValue(bool b) : kind(Kind::kBool), boolean(b) {}
  template <typename T>
    requires(std::is_arithmetic_v<T> && !std::same_as<T, bool>)
  JsonValue(T v) : kind(Kind::kNumber), number(static_cast<double>(v)) {}
  JsonValue(std::string s) : kind(Kind::kString), str(std::move(s)) {}
  JsonValue(const char* s) : kind(Kind::kString), str(s) {}

  /// JsonValue::Object({{"a", 1}, {"b", "x"}}) builds {"a": 1, "b": "x"}.
  static JsonValue Object(Members members = {});
  static JsonValue Array(std::vector<JsonValue> elements = {});
  /// Appends an object member / array element; returns *this.
  JsonValue& Set(std::string key, JsonValue value);
  JsonValue& Push(JsonValue value);

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  /// Dotted-path lookup ("search.speedup"); nullptr when any hop is absent.
  const JsonValue* Path(std::string_view dotted) const;
  /// Number at a dotted path, or `fallback` when absent / not a number.
  double Number(std::string_view dotted, double fallback = 0.0) const;
};

/// Strict RFC 8259 parse (every escape decoded, \uXXXX to UTF-8);
/// nullopt on malformed input or trailing garbage.
std::optional<JsonValue> ParseJson(std::string_view text);
/// Reads and parses a whole file; nullopt when unreadable or malformed.
std::optional<JsonValue> ParseJsonFile(const std::string& path);

/// Streaming writer. The document and its direct children put each member
/// on its own line, indented two spaces per level; containers nested deeper
/// go on one line ({"a": 1, "b": 2}). Members are `"key": value`.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  /// Names the next value; only valid directly inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(double v);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& Value(T v) {
    char buf[24];
    return Token({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }
  JsonWriter& Value(bool v) { return Token(v ? "true" : "false"); }
  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const std::string& v) {
    return Value(std::string_view(v));
  }
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(const JsonValue& v);
  JsonWriter& Null() { return Token("null"); }

  /// Key(key).Value(v) in one call.
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& v) {
    return Key(key).Value(v);
  }

 private:
  void BeforeValue();
  JsonWriter& Token(std::string_view token);  // a bare number or literal
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);

  /// Containers at this nesting depth and deeper are written on one line.
  static constexpr std::size_t kInlineDepth = 2;
  bool Inline() const { return empty_.size() > kInlineDepth; }

  std::ostream& os_;
  std::vector<bool> empty_;  // per open container: no member written yet
  bool after_key_ = false;
};

/// Opens `path` and runs `write` on the stream; false (after logging to
/// stderr) when the file cannot be written.
bool WriteJsonFile(const std::string& path,
                   const std::function<void(std::ostream&)>& write);
/// Writes `doc`, newline-terminated, to `path`.
bool WriteJsonFile(const std::string& path, const JsonValue& doc);

}  // namespace bloc::obs
