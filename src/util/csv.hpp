// CSV reading/writing with RFC-4180-style quoting.
//
// Used by the trace loader/saver. The reader is strict: ragged rows and
// malformed quoting raise ccd::DataError with a line number.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ccd::util {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Parse a single CSV line (no trailing newline). Handles quoted fields with
/// embedded commas and doubled quotes.
CsvRow parse_csv_line(const std::string& line);

/// Quote a field if it contains a comma, quote, or newline.
std::string csv_escape(const std::string& field);

class CsvReader {
 public:
  /// Opens `path`; throws ccd::DataError if unreadable.
  explicit CsvReader(const std::string& path);
  ~CsvReader();
  CsvReader(const CsvReader&) = delete;
  CsvReader& operator=(const CsvReader&) = delete;

  /// Reads the next row into `row`. Returns false at end of file.
  bool next(CsvRow& row);

  /// Line number of the most recently returned row (1-based).
  std::size_t line_number() const { return line_number_; }

 private:
  struct Impl;
  Impl* impl_;
  std::size_t line_number_ = 0;
};

class CsvWriter {
 public:
  /// Creates/truncates `path`; throws ccd::DataError on failure.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void write_row(const CsvRow& row);

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace ccd::util
