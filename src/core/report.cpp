#include "core/report.hpp"

#include <sstream>

#include "util/string_util.hpp"
#include "util/table.hpp"

namespace ccd::core {
namespace {

std::vector<ClassSummaryRow> by_class(
    const PipelineResult& r, double WorkerOutcome::*field) {
  const std::pair<data::WorkerClass, const char*> classes[] = {
      {data::WorkerClass::kHonest, "honest"},
      {data::WorkerClass::kNonCollusiveMalicious, "ncm"},
      {data::WorkerClass::kCollusiveMalicious, "cm"},
  };
  std::vector<ClassSummaryRow> rows;
  for (const auto& [cls, label] : classes) {
    std::vector<double> values;
    for (const WorkerOutcome& w : r.workers) {
      if (w.true_class == cls) values.push_back(w.*field);
    }
    rows.push_back({label, util::summarize(values)});
  }
  return rows;
}

}  // namespace

std::vector<ClassSummaryRow> compensation_by_class(const PipelineResult& r) {
  return by_class(r, &WorkerOutcome::compensation);
}

std::vector<ClassSummaryRow> effort_by_class(const PipelineResult& r) {
  return by_class(r, &WorkerOutcome::effort);
}

std::string render_class_table(const std::vector<ClassSummaryRow>& rows,
                               const std::string& value_name) {
  util::TextTable table({"class", "count", "mean " + value_name, "p5",
                         "median", "p95", "max"});
  for (const ClassSummaryRow& row : rows) {
    table.add_row({row.label, std::to_string(row.summary.count),
                   util::format_double(row.summary.mean, 4),
                   util::format_double(row.summary.p5, 4),
                   util::format_double(row.summary.median, 4),
                   util::format_double(row.summary.p95, 4),
                   util::format_double(row.summary.max, 4)});
  }
  return table.render();
}

std::string describe_pipeline_result(const PipelineResult& r) {
  std::ostringstream os;
  os << "requester utility " << util::format_double(r.total_requester_utility, 3)
     << ", total compensation "
     << util::format_double(r.total_compensation, 3) << ", "
     << r.subproblems.size() << " subproblems ("
     << r.collusion.communities.size() << " communities, "
     << r.collusion.non_collusive.size() << " NCM), " << r.excluded_workers
     << " excluded; detector precision "
     << util::format_double(r.detector_quality.precision(), 3) << " recall "
     << util::format_double(r.detector_quality.recall(), 3);
  return os.str();
}

}  // namespace ccd::core
