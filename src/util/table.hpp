// Aligned ASCII table rendering for benchmark/experiment output.
#pragma once

#include <string>
#include <vector>

namespace ccd::util {

/// Builds a text table: set a header, append rows, then render with columns
/// padded to their widest cell.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ccd::util
