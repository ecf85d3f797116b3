#include "util/table.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace ccd::util {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  CCD_CHECK_MSG(!header_.empty(), "TextTable requires at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  CCD_CHECK_MSG(cells.size() == header_.size(),
                "row has " << cells.size() << " cells, header has "
                           << header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "| " << row[c];
      for (std::size_t pad = row[c].size(); pad < widths[c]; ++pad) os << ' ';
      os << ' ';
    }
    os << "|\n";
  };
  const auto emit_rule = [&] {
    for (const std::size_t w : widths) {
      os << '+';
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
    }
    os << "+\n";
  };

  emit_rule();
  emit_row(header_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
  return os.str();
}

}  // namespace ccd::util
