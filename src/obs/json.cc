#include "obs/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace cqcount {
namespace obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (has_sibling_.back()) out_ += ',';
  has_sibling_.back() = true;
}

void JsonWriter::Raw(const std::string& s) {
  BeforeValue();
  out_ += s;
}

JsonWriter& JsonWriter::Open(char c) {
  BeforeValue();
  out_ += c;
  has_sibling_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char c) {
  assert(has_sibling_.size() > 1 && "unbalanced Begin/End");
  has_sibling_.pop_back();
  out_ += c;
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  if (has_sibling_.back()) out_ += ',';
  has_sibling_.back() = true;
  out_ += '"';
  out_ += JsonEscape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ += '"';
  out_.append(JsonEscape(value));
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Raw(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  Raw(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  if (!std::isfinite(value)) {
    Raw("null");
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  // Trim to the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[32];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) {
      Raw(candidate);
      return *this;
    }
  }
  Raw(buf);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Raw(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Raw("null");
  return *this;
}

JsonWriter& JsonWriter::RawValue(const std::string& json) {
  Raw(json);
  return *this;
}

}  // namespace obs
}  // namespace cqcount
