// Experiment reporting helpers: per-class summaries of pipeline outcomes
// and table renderers shared by the bench binaries and examples.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "util/stats.hpp"

namespace ccd::core {

struct ClassSummaryRow {
  std::string label;
  util::Summary summary;
};

/// Compensation / effort distributions by ground-truth class (honest, NCM,
/// CM) — the Fig. 7 / Fig. 8(b) views.
std::vector<ClassSummaryRow> compensation_by_class(const PipelineResult& r);
std::vector<ClassSummaryRow> effort_by_class(const PipelineResult& r);

/// Render rows as an aligned table (columns: label, count, mean, p5, median,
/// p95, max).
std::string render_class_table(const std::vector<ClassSummaryRow>& rows,
                               const std::string& value_name);

/// One-paragraph textual digest of a pipeline run.
std::string describe_pipeline_result(const PipelineResult& r);

}  // namespace ccd::core
