#include "obs/json.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

namespace bloc::obs {

namespace {

/// The one JSON string escaper: quote and backslash get a backslash,
/// every other control character becomes \u00XX.
void WriteString(std::ostream& os, std::string_view s) {
  os << '"';
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    os.write(s.data() + run, static_cast<std::streamsize>(i - run));
    run = i + 1;
    if (c == '"' || c == '\\') {
      os << '\\' << static_cast<char>(c);
    } else {
      os << "\\u00" << "0123456789abcdef"[c >> 4]
         << "0123456789abcdef"[c & 0xf];
    }
  }
  os.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
  os << '"';
}

void AppendUtf8(std::string& out, unsigned cp) {
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  static constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
  for (int i = tail - 1; i >= 0; --i) {
    out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }
}

/// Recursive-descent RFC 8259 parser. Nesting is capped so hostile input
/// cannot overflow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : t_(text) {}

  bool Document(JsonValue& out) {
    if (!Value(out, 0)) return false;
    SkipWs();
    return pos_ == t_.size();  // no trailing garbage
  }

 private:
  static constexpr int kMaxDepth = 256;

  char Peek() const { return pos_ < t_.size() ? t_[pos_] : '\0'; }
  void SkipWs() {
    while (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
           Peek() == '\r') {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  bool Literal(std::string_view word) {
    if (t_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool Digits() {
    const std::size_t start = pos_;
    while (Peek() >= '0' && Peek() <= '9') ++pos_;
    return pos_ > start;
  }

  bool Value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipWs();
    switch (Peek()) {
      case '{':
        ++pos_;
        out = JsonValue::Object();
        if (Eat('}')) return true;
        do {
          std::string key;
          JsonValue member;
          SkipWs();
          if (!String(key) || !Eat(':') || !Value(member, depth + 1)) {
            return false;
          }
          out.object.emplace_back(std::move(key), std::move(member));
        } while (Eat(','));
        return Eat('}');
      case '[':
        ++pos_;
        out = JsonValue::Array();
        if (Eat(']')) return true;
        do {
          out.array.emplace_back();
          if (!Value(out.array.back(), depth + 1)) return false;
        } while (Eat(','));
        return Eat(']');
      case '"':
        out = JsonValue(std::string());
        return String(out.str);
      case 't': out = JsonValue(true); return Literal("true");
      case 'f': out = JsonValue(false); return Literal("false");
      case 'n': out = JsonValue(); return Literal("null");
      default: return Number(out);
    }
  }

  bool Number(JsonValue& out) {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (Peek() == '0') {
      ++pos_;
    } else if (!Digits()) {
      return false;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!Digits()) return false;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!Digits()) return false;
    }
    double v = 0.0;
    const char* end = t_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(t_.data() + start, end, v);
    if (ec != std::errc() || ptr != end) return false;  // e.g. 1e999
    out = JsonValue(v);
    return true;
  }

  bool Hex4(unsigned& cp) {
    if (pos_ + 4 > t_.size()) return false;
    const char* first = t_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, first + 4, cp, 16);
    pos_ += 4;
    return ec == std::errc() && ptr == first + 4;
  }

  bool String(std::string& out) {
    if (Peek() != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < t_.size()) {
      const char c = t_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      switch (pos_ < t_.size() ? t_[pos_++] : '\0') {
        case '"': out += '"'; continue;
        case '\\': out += '\\'; continue;
        case '/': out += '/'; continue;
        case 'b': out += '\b'; continue;
        case 'f': out += '\f'; continue;
        case 'n': out += '\n'; continue;
        case 'r': out += '\r'; continue;
        case 't': out += '\t'; continue;
        case 'u': break;
        default: return false;
      }
      unsigned cp = 0;
      if (!Hex4(cp) || (cp >= 0xDC00 && cp < 0xE000)) return false;
      if (cp >= 0xD800 && cp < 0xDC00) {  // needs its low surrogate
        unsigned low = 0;
        if (!Literal("\\u") || !Hex4(low) || low < 0xDC00 || low >= 0xE000) {
          return false;
        }
        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
      }
      AppendUtf8(out, cp);
    }
    return false;  // unterminated
  }

  std::string_view t_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::Object(Members members) {
  JsonValue v;
  v.kind = Kind::kObject;
  v.object = std::move(members);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> elements) {
  JsonValue v;
  v.kind = Kind::kArray;
  v.array = std::move(elements);
  return v;
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  object.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::Push(JsonValue value) {
  array.push_back(std::move(value));
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::Path(std::string_view dotted) const {
  const JsonValue* node = this;
  for (;;) {
    const std::size_t dot = dotted.find('.');
    node = node->Find(dotted.substr(0, dot));
    if (node == nullptr || dot == std::string_view::npos) return node;
    dotted.remove_prefix(dot + 1);
  }
}

double JsonValue::Number(std::string_view dotted, double fallback) const {
  const JsonValue* node = Path(dotted);
  return node != nullptr && node->kind == Kind::kNumber ? node->number
                                                        : fallback;
}

std::optional<JsonValue> ParseJson(std::string_view text) {
  JsonValue value;
  if (!Parser(text).Document(value)) return std::nullopt;
  return value;
}

std::optional<JsonValue> ParseJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseJson(buffer.str());
}

void JsonWriter::BeforeValue() {
  if (std::exchange(after_key_, false) || empty_.empty()) return;
  const bool first = empty_.back();
  empty_.back() = false;
  if (!first) os_ << ',';
  if (!Inline()) {
    os_ << '\n' << std::string(2 * empty_.size(), ' ');
  } else if (!first) {
    os_ << ' ';
  }
}

JsonWriter& JsonWriter::Token(std::string_view token) {
  BeforeValue();
  os_ << token;
  return *this;
}

JsonWriter& JsonWriter::Open(char bracket) {
  BeforeValue();
  os_ << bracket;
  empty_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  const bool multi_line = !Inline() && !empty_.back();
  empty_.pop_back();
  if (multi_line) os_ << '\n' << std::string(2 * empty_.size(), ' ');
  os_ << bracket;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  BeforeValue();
  WriteString(os_, key);
  os_ << ": ";
  after_key_ = true;
  return *this;
}

/// The one double formatter: shortest round-trip digits, integral values
/// below 2^53 without an exponent, non-finite values as null.
JsonWriter& JsonWriter::Value(double v) {
  if (!std::isfinite(v)) return Null();
  if (v != 0.0 && v == std::trunc(v) && std::fabs(v) < 0x1p53) {
    return Value(static_cast<std::int64_t>(v));
  }
  char buf[32];
  return Token({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
}

JsonWriter& JsonWriter::Value(std::string_view v) {
  BeforeValue();
  WriteString(os_, v);
  return *this;
}

JsonWriter& JsonWriter::Value(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return Null();
    case JsonValue::Kind::kBool: return Value(v.boolean);
    case JsonValue::Kind::kNumber: return Value(v.number);
    case JsonValue::Kind::kString: return Value(v.str);
    case JsonValue::Kind::kArray:
      BeginArray();
      for (const JsonValue& element : v.array) Value(element);
      return EndArray();
    case JsonValue::Kind::kObject:
      BeginObject();
      for (const auto& [key, member] : v.object) Key(key).Value(member);
      return EndObject();
  }
  return *this;
}

bool WriteJsonFile(const std::string& path,
                   const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path);
  if (out) write(out);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  return true;
}

bool WriteJsonFile(const std::string& path, const JsonValue& doc) {
  return WriteJsonFile(path, [&doc](std::ostream& os) {
    JsonWriter(os).Value(doc);
    os << '\n';
  });
}

}  // namespace bloc::obs
