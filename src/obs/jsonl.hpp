// Deterministic single-line JSON writing plus the shared schema-version
// header used by every JSONL file format in the tree (arrival traces,
// task-event logs, the runstore index).
//
// A JSONL file opens with one header object
//   {"schema": "<format name>", "version": N, ...format fields}
// followed by one record object per line. Readers call require_schema()
// on the parsed header line to reject foreign or future files early.
//
// JsonLineWriter emits fields in insertion order and formats doubles as
// their shortest round-trip representation (std::to_chars), so
// same-input runs write byte-identical lines and parsing a written
// value recovers it bit-exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tracon::obs {

class JsonValue;

/// Version shared by the tracon JSONL formats; bumped in lockstep when
/// any record schema changes shape. History: 1 = initial formats;
/// 2 = decision log grew the "migration" record kind.
inline constexpr int kJsonlSchemaVersion = 2;

/// Escapes `raw` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(std::string_view raw);
/// Appends json_escape(raw) to `out`; text with nothing to escape (the
/// common case: keys, app and scheduler names) is copied as is.
void append_escaped(std::string& out, std::string_view raw);

/// Formats `value` exactly as JsonLineWriter::field(key, double) does:
/// shortest round-trip std::to_chars. For building nested JSON arrays
/// that must stay byte-compatible with the scalar field writer.
std::string json_number(double value);
void append_json_number(std::string& out, double value);

/// Appends `value` in printf's "%.10g" form (std::to_chars general
/// format at precision 10, which the standard defines to match printf):
/// the quantized number format of the metrics and tracer exports.
void append_g10(std::string& out, double value);

/// Appends the decimal digits of `value`.
void append_uint(std::string& out, std::uint64_t value);

/// Builds one JSON object on a single line, fields in call order. The
/// object goes either into an internal buffer (default constructor,
/// read back with str()) or straight onto the end of a caller-owned
/// string, so an exporter serializes a whole file of records — nested
/// objects included — into one reused buffer.
class JsonLineWriter {
 public:
  JsonLineWriter() : out_(&own_) { own_ += '{'; }
  /// Appends the opening brace to `out` now and each field as it is
  /// added; close() appends the closing brace.
  explicit JsonLineWriter(std::string& out) : out_(&out) { out += '{'; }
  JsonLineWriter(const JsonLineWriter&) = delete;
  JsonLineWriter& operator=(const JsonLineWriter&) = delete;

  JsonLineWriter& field(std::string_view key, std::string_view value);
  JsonLineWriter& field(std::string_view key, const char* value);
  JsonLineWriter& field(std::string_view key, double value);
  JsonLineWriter& field(std::string_view key, std::uint64_t value);
  JsonLineWriter& field(std::string_view key, int value);
  /// Pre-serialized JSON (nested object/array) inserted verbatim.
  JsonLineWriter& raw_field(std::string_view key, std::string_view json);
  /// Writes just the key, for a nested value the caller then appends
  /// to the same string in place.
  void key(std::string_view key);
  /// Appends the closing brace (caller-owned string form).
  void close() { *out_ += '}'; }

  /// The closed object, without a trailing newline (internal-buffer
  /// form only).
  std::string str() const;

 private:
  std::string own_;
  std::string* out_;
  bool first_ = true;
};

/// The buffered sink behind every record-store exporter: a writer
/// appends serialized text to buf() and calls end_record() after each
/// record. The text reaches `os` in chunks of about kChunkBytes, the
/// rest when the sink is destroyed.
class ChunkedWriter {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

  explicit ChunkedWriter(std::ostream& os) : os_(os) {
    buf_.reserve(kChunkBytes + kChunkBytes / 4);
  }
  ~ChunkedWriter() { flush(); }
  ChunkedWriter(const ChunkedWriter&) = delete;
  ChunkedWriter& operator=(const ChunkedWriter&) = delete;

  std::string& buf() { return buf_; }
  void end_record() {
    if (buf_.size() >= kChunkBytes) flush();
  }
  void flush();

 private:
  std::ostream& os_;
  std::string buf_;
};

/// Appends the header line the fingerprinted logs (decision log, span
/// log) open with: {"schema": S, "version": N, "fingerprint": {...}}
/// and a newline.
void append_fingerprint_header(
    std::string& out, std::string_view schema, int version,
    const std::map<std::string, std::string>& fingerprint);

/// Writes a fingerprinted log: the header line, then one line per
/// record from append_record(out, record), through one ChunkedWriter.
template <typename Record, typename AppendRecord>
void write_fingerprinted(std::ostream& os, std::string_view schema,
                         int version,
                         const std::map<std::string, std::string>& fingerprint,
                         const std::vector<Record>& records,
                         AppendRecord append_record) {
  ChunkedWriter sink(os);
  append_fingerprint_header(sink.buf(), schema, version, fingerprint);
  for (const Record& record : records) {
    append_record(sink.buf(), record);
    sink.end_record();
  }
}

/// Validates a parsed JSONL header line: it must be an object whose
/// "schema" equals `schema` and whose integer "version" is at most
/// kJsonlSchemaVersion. Returns the version; throws
/// std::invalid_argument otherwise.
int require_schema(const JsonValue& header, std::string_view schema);

}  // namespace tracon::obs
