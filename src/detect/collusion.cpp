#include "detect/collusion.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <sstream>

#include "graph/components.hpp"
#include "graph/graph.hpp"
#include "graph/union_find.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace ccd::detect {
namespace {

constexpr std::size_t kNoLabel = std::numeric_limits<std::size_t>::max();
constexpr std::uint32_t kNoWorker = std::numeric_limits<std::uint32_t>::max();

/// Map each product to the (dense) indices of malicious workers targeting
/// it (the DFS backend's edge source).
std::map<data::ProductId, std::vector<std::size_t>> product_incidence(
    const data::ReviewTrace& trace,
    const std::vector<data::WorkerId>& workers) {
  std::map<data::ProductId, std::vector<std::size_t>> incidence;
  for (std::size_t idx = 0; idx < workers.size(); ++idx) {
    for (const data::ProductId pid : trace.products_of_worker(workers[idx])) {
      incidence[pid].push_back(idx);
    }
  }
  return incidence;
}

/// Partition (as dense-index component labels, numbered by first
/// appearance) via union-find. One per-product slot remembers the first
/// worker seen on the product; every later worker on it is united with
/// that one, the edges a star per product gives, without building the
/// product -> workers incidence.
std::vector<std::size_t> partition_union_find(
    const data::ReviewTrace& trace,
    const std::vector<data::WorkerId>& workers) {
  CCD_CHECK_MSG(workers.size() < kNoWorker,
                "too many malicious workers to cluster: " << workers.size());
  const std::vector<data::Review>& reviews = trace.reviews();
  graph::UnionFind uf(workers.size());
  std::vector<std::uint32_t> first_on_product(trace.products().size(),
                                              kNoWorker);
  for (std::size_t idx = 0; idx < workers.size(); ++idx) {
    for (const data::ReviewId rid : trace.reviews_of_worker(workers[idx])) {
      std::uint32_t& first = first_on_product[reviews[rid].product];
      if (first == kNoWorker) {
        first = static_cast<std::uint32_t>(idx);
      } else {
        uf.unite(first, idx);
      }
    }
  }
  std::vector<std::size_t> label(workers.size());
  std::vector<std::size_t> label_of_root(workers.size(), kNoLabel);
  std::size_t labels = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    std::size_t& root_label = label_of_root[uf.find(i)];
    if (root_label == kNoLabel) root_label = labels++;
    label[i] = root_label;
  }
  return label;
}

/// Partition via the paper's explicit auxiliary graph + DFS.
std::vector<std::size_t> partition_dfs(
    const data::ReviewTrace& trace,
    const std::vector<data::WorkerId>& workers) {
  graph::Graph g(workers.size());
  std::set<std::pair<std::size_t, std::size_t>> added;
  for (const auto& [pid, indices] : product_incidence(trace, workers)) {
    for (std::size_t i = 0; i < indices.size(); ++i) {
      for (std::size_t j = i + 1; j < indices.size(); ++j) {
        const auto edge = std::minmax(indices[i], indices[j]);
        if (added.insert({edge.first, edge.second}).second) {
          g.add_edge(edge.first, edge.second);
        }
      }
    }
  }
  return graph::connected_components(g).component_of;
}

}  // namespace

CollusionResult cluster_collusive_workers(
    const data::ReviewTrace& trace,
    const std::vector<data::WorkerId>& malicious_workers,
    ClusterBackend backend) {
  CCD_CHECK_MSG(trace.indexes_built(), "clustering requires trace indexes");

  const std::vector<std::size_t> label =
      backend == ClusterBackend::kUnionFind
          ? partition_union_find(trace, malicious_workers)
          : partition_dfs(trace, malicious_workers);

  // Group dense indices by component label: a counting sort into label
  // buckets, each listing its indices ascending.
  const std::size_t groups =
      label.empty() ? 0 : *std::max_element(label.begin(), label.end()) + 1;
  std::vector<std::size_t> group_start(groups + 1, 0);
  for (const std::size_t l : label) ++group_start[l + 1];
  std::partial_sum(group_start.begin(), group_start.end(),
                   group_start.begin());
  std::vector<std::size_t> next(group_start.begin(), group_start.end() - 1);
  std::vector<std::size_t> grouped(label.size());
  for (std::size_t i = 0; i < label.size(); ++i) grouped[next[label[i]]++] = i;

  const std::vector<data::Review>& reviews = trace.reviews();
  CollusionResult result;
  result.community_of.assign(trace.workers().size(), -1);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::span<const std::size_t> indices(
        grouped.data() + group_start[g], group_start[g + 1] - group_start[g]);
    if (indices.size() < 2) {
      result.non_collusive.push_back(malicious_workers[indices.front()]);
      continue;
    }
    Community community;
    community.members.reserve(indices.size());
    for (const std::size_t idx : indices) {
      const data::WorkerId wid = malicious_workers[idx];
      community.members.push_back(wid);
      for (const data::ReviewId rid : trace.reviews_of_worker(wid)) {
        community.targets.push_back(reviews[rid].product);
      }
    }
    std::sort(community.targets.begin(), community.targets.end());
    community.targets.erase(
        std::unique(community.targets.begin(), community.targets.end()),
        community.targets.end());
    result.communities.push_back(std::move(community));
  }

  std::sort(result.communities.begin(), result.communities.end(),
            [](const Community& a, const Community& b) {
              if (a.members.size() != b.members.size()) {
                return a.members.size() > b.members.size();
              }
              return a.members.front() < b.members.front();
            });
  for (std::size_t c = 0; c < result.communities.size(); ++c) {
    for (const data::WorkerId wid : result.communities[c].members) {
      result.community_of[wid] = static_cast<std::int32_t>(c);
    }
  }
  std::sort(result.non_collusive.begin(), result.non_collusive.end());
  return result;
}

CollusionResult cluster_ground_truth_malicious(const data::ReviewTrace& trace,
                                               ClusterBackend backend) {
  std::vector<data::WorkerId> malicious;
  for (const data::Worker& w : trace.workers()) {
    if (w.true_class != data::WorkerClass::kHonest) {
      malicious.push_back(w.id);
    }
  }
  return cluster_collusive_workers(trace, malicious, backend);
}

CommunityCensus census(const CollusionResult& result) {
  CommunityCensus c;
  c.communities = result.communities.size();
  if (c.communities == 0) return c;
  std::size_t n2 = 0, n3 = 0, n4 = 0, n5 = 0, n6 = 0, n7to9 = 0, n10 = 0;
  for (const Community& community : result.communities) {
    const std::size_t size = community.members.size();
    c.workers += size;
    if (size == 2) ++n2;
    else if (size == 3) ++n3;
    else if (size == 4) ++n4;
    else if (size == 5) ++n5;
    else if (size == 6) ++n6;
    else if (size <= 9) ++n7to9;
    else ++n10;
  }
  const double total = static_cast<double>(c.communities);
  c.pct_size2 = 100.0 * static_cast<double>(n2) / total;
  c.pct_size3 = 100.0 * static_cast<double>(n3) / total;
  c.pct_size4 = 100.0 * static_cast<double>(n4) / total;
  c.pct_size5 = 100.0 * static_cast<double>(n5) / total;
  c.pct_size6 = 100.0 * static_cast<double>(n6) / total;
  c.pct_size7to9 = 100.0 * static_cast<double>(n7to9) / total;
  c.pct_size10plus = 100.0 * static_cast<double>(n10) / total;
  return c;
}

std::string CommunityCensus::to_string() const {
  std::ostringstream os;
  os << communities << " communities / " << workers << " workers; size% "
     << "2:" << util::format_double(pct_size2, 1)
     << " 3:" << util::format_double(pct_size3, 1)
     << " 4:" << util::format_double(pct_size4, 1)
     << " 5:" << util::format_double(pct_size5, 1)
     << " 6:" << util::format_double(pct_size6, 1)
     << " 7-9:" << util::format_double(pct_size7to9, 1)
     << " >=10:" << util::format_double(pct_size10plus, 1);
  return os.str();
}

}  // namespace ccd::detect
