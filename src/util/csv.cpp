#include "util/csv.hpp"

#include <fstream>

#include "util/error.hpp"

namespace ccd::util {

CsvRow parse_csv_line(const std::string& line) {
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else {
      if (c == '"') {
        if (!field.empty()) {
          throw DataError("CSV: quote in the middle of an unquoted field");
        }
        in_quotes = true;
      } else if (c == ',') {
        row.push_back(std::move(field));
        field.clear();
      } else {
        field += c;
      }
    }
    ++i;
  }
  if (in_quotes) throw DataError("CSV: unterminated quoted field");
  row.push_back(std::move(field));
  return row;
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

struct CsvReader::Impl {
  std::ifstream in;
};

CsvReader::CsvReader(const std::string& path) : impl_(new Impl) {
  impl_->in.open(path);
  if (!impl_->in) {
    delete impl_;
    throw DataError("cannot open CSV file for reading: " + path);
  }
}

CsvReader::~CsvReader() { delete impl_; }

bool CsvReader::next(CsvRow& row) {
  std::string line;
  if (!std::getline(impl_->in, line)) return false;
  ++line_number_;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  try {
    row = parse_csv_line(line);
  } catch (const DataError& e) {
    throw DataError(std::string(e.what()) + " (line " +
                    std::to_string(line_number_) + ")");
  }
  return true;
}

struct CsvWriter::Impl {
  std::ofstream out;
};

CsvWriter::CsvWriter(const std::string& path) : impl_(new Impl) {
  impl_->out.open(path, std::ios::trunc);
  if (!impl_->out) {
    delete impl_;
    throw DataError("cannot open CSV file for writing: " + path);
  }
}

CsvWriter::~CsvWriter() { delete impl_; }

void CsvWriter::write_row(const CsvRow& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) impl_->out << ',';
    impl_->out << csv_escape(row[i]);
  }
  impl_->out << '\n';
  if (!impl_->out) throw DataError("CSV write failed");
}

}  // namespace ccd::util
