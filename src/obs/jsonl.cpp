#include "obs/jsonl.hpp"

#include <charconv>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace tracon::obs {

namespace {

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

// Pointer-and-length append: std::string's iterator-range overload
// goes through the general replace path, several times slower for the
// short runs the writers append.
void append_range(std::string& out, const char* first, const char* last) {
  out.append(first, static_cast<std::size_t>(last - first));
}

}  // namespace

void append_escaped(std::string& out, std::string_view raw) {
  bool plain = true;
  for (char c : raw) plain &= !needs_escape(c);
  if (plain) {
    out.append(raw);
    return;
  }
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_escaped(out, raw);
  return out;
}

void append_json_number(std::string& out, double value) {
  // Shortest round-trip representation (std::to_chars default): the
  // parsed double is bit-identical to `value`, which is what lets a
  // replayed trace reproduce its recording exactly — %.10g would
  // quantize arrival times and quietly fork the two simulations.
  char buf[32];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  append_range(out, buf, result.ptr);
}

std::string json_number(double value) {
  std::string out;
  append_json_number(out, value);
  return out;
}

void append_g10(std::string& out, double value) {
  char buf[32];
  auto result = std::to_chars(buf, buf + sizeof(buf), value,
                              std::chars_format::general, 10);
  append_range(out, buf, result.ptr);
}

void append_uint(std::string& out, std::uint64_t value) {
  char buf[24];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  append_range(out, buf, result.ptr);
}

void ChunkedWriter::flush() {
  if (buf_.empty()) return;
  os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void JsonLineWriter::key(std::string_view k) {
  if (first_) {
    *out_ += '"';
    first_ = false;
  } else {
    out_->append(", \"", 3);
  }
  append_escaped(*out_, k);
  out_->append("\": ", 3);
}

JsonLineWriter& JsonLineWriter::field(std::string_view k,
                                      std::string_view value) {
  key(k);
  *out_ += '"';
  append_escaped(*out_, value);
  *out_ += '"';
  return *this;
}

JsonLineWriter& JsonLineWriter::field(std::string_view k, const char* value) {
  return field(k, std::string_view(value));
}

JsonLineWriter& JsonLineWriter::field(std::string_view k, double value) {
  key(k);
  append_json_number(*out_, value);
  return *this;
}

JsonLineWriter& JsonLineWriter::field(std::string_view k,
                                      std::uint64_t value) {
  key(k);
  append_uint(*out_, value);
  return *this;
}

JsonLineWriter& JsonLineWriter::field(std::string_view k, int value) {
  key(k);
  char buf[16];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  append_range(*out_, buf, result.ptr);
  return *this;
}

JsonLineWriter& JsonLineWriter::raw_field(std::string_view k,
                                          std::string_view json) {
  key(k);
  out_->append(json);
  return *this;
}

std::string JsonLineWriter::str() const { return own_ + "}"; }

void append_fingerprint_header(
    std::string& out, std::string_view schema, int version,
    const std::map<std::string, std::string>& fingerprint) {
  JsonLineWriter header(out);
  header.field("schema", schema).field("version", version);
  header.key("fingerprint");
  JsonLineWriter stamp(out);
  for (const auto& [key, value] : fingerprint) stamp.field(key, value);
  stamp.close();
  header.close();
  out += '\n';
}

int require_schema(const JsonValue& header, std::string_view schema) {
  if (!header.is_object()) {
    throw std::invalid_argument("jsonl header is not a JSON object");
  }
  const JsonValue* s = header.find("schema");
  if (s == nullptr || !s->is_string() || s->as_string() != schema) {
    throw std::invalid_argument("jsonl header schema mismatch: expected \"" +
                                std::string(schema) + "\"");
  }
  const JsonValue* v = header.find("version");
  if (v == nullptr || !v->is_number()) {
    throw std::invalid_argument("jsonl header missing integer version");
  }
  int version = static_cast<int>(v->as_number());
  if (version < 1 || version > kJsonlSchemaVersion) {
    throw std::invalid_argument("unsupported jsonl schema version " +
                                std::to_string(version));
  }
  return version;
}

}  // namespace tracon::obs
