#!/usr/bin/env bash
# Lists the library functions that no production binary reaches, and fails
# if any of them is not on the keep list below (or if a keep-list entry no
# longer names such a function).
#
#   scripts/unreachable_symbols.sh BUILD_DIR PERFBENCH_BINARY
#
# BUILD_DIR is a build of this repository and PERFBENCH_BINARY the
# perfbench runner (perfbench/CMakeLists.txt), both configured with the
# scan flags:
#
#   -DCMAKE_BUILD_TYPE=Debug
#   -DCMAKE_CXX_FLAGS='-ffunction-sections -fdata-sections -fkeep-inline-functions'
#   -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
#
# Every function then sits in its own section, header inlines are emitted
# whether or not a translation unit calls them, and the linker drops each
# section that no kept section refers to. A ccd:: function defined in one
# of the static libraries (BUILD_DIR/src/*/libccd_*.a) but in none of the
# production binaries (ccdctl, ccdd, ccd-gateway, the bench_* programs,
# the examples and perfbench) is reached by none of them. Tests are not
# production binaries: a function that only a test calls is reported.
#
# Not reported: lambdas (their enclosing function is what gets reported)
# and constructors, copy/move constructors and destructors without other
# parameters, which -fkeep-inline-functions emits for every class whether
# or not the class is ever built that way.
#
# Scan at -O0: with optimisation on, a function that is only ever inlined
# leaves no symbol in a binary and looks unreachable.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR PERFBENCH_BINARY" >&2
  exit 2
fi
build=$1
perfbench=$2

# The functions no production binary reaches that stay, one per line: a
# prefix of the demangled name, then why it stays. Each is a reference a
# test compares a production path against, or what a test needs to drive
# or observe a production path.
keep_list() {
  cat <<'EOF'
ccd::contract::DesignCache::design( per-spec reference the design_contracts_batch tests compare the batch against
ccd::contract::DesignCache::stats( the batch tests check a shared cache's hit and miss accounting
ccd::contract::DesignCache::size( the batch tests check how many tables a shared cache holds
ccd::contract::DesignCache::clear( the cache tests empty a shared cache between batches
ccd::contract::FleetSoA::workers() the grouping tests check how many workers a fleet holds
ccd::contract::allocate_budget_exact( exact reference the greedy budget allocator is tested against
ccd::graph::connected_components_bfs( reference the DFS connected_components is tested against
ccd::serve::Engine::call( synchronous entry the engine tests drive sessions through
ccd::scenario::IngestFeed:: feeds scenario fleets into ingest sessions in the serve-vs-simulator tests
ccd::util::metrics::MetricsRegistry::reset( tests zero the process-wide registry between cases
ccd::util::metrics::Counter::reset( tests zero a counter between cases
ccd::util::metrics::Gauge::reset( tests zero a gauge between cases
ccd::util::metrics::Histogram::reset( tests zero a histogram between cases
ccd::util::metrics::HistogramSnapshot::merge( the fleet scrape merges shard histograms (ROADMAP item 5)
ccd::util::Socket::listen_tcp( the socket and server tests bind loopback TCP listeners
ccd::util::Logger::set_sink( tests capture log lines
ccd::util::Logger::set_level( tests raise the log level and restore it
ccd::Error::context() tests read the stage, worker and failure count the pipeline and the pool attach
ccd::util::FaultInjector::injected( fault tests count the faults production fault points fired
ccd::data::WorkerMetrics::mean_feedback_of_worker( reference expertise() is tested against bit for bit
ccd::scenario::ScenarioSpec::planted_malicious() the scenario matrix test bounds exclusions by the planted count
EOF
}

shopt -s nullglob
libs=("$build"/src/*/libccd_*.a)
bins=("$build"/tools/ccdctl "$build"/tools/ccdd "$build"/tools/ccd-gateway
      "$build"/bench/bench_* "$build"/examples/quickstart
      "$build"/examples/review_campaign "$build"/examples/collusion_forensics
      "$build"/examples/dynamic_rounds "$build"/examples/label_campaign
      "$perfbench")
if [[ ${#libs[@]} -eq 0 ]]; then
  echo "$0: no static libraries under $build/src" >&2
  exit 2
fi
for bin in "${bins[@]}"; do
  if [[ ! -x $bin ]]; then
    echo "$0: missing production binary $bin" >&2
    exit 2
  fi
done

# Mangled names of the defined functions (text symbols, global, weak or
# local) in namespace ccd, including the lambdas and local classes of its
# functions.
ccd_functions() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZZ?NV?K?3ccd/ { print $3 }' |
    sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
ccd_functions "${libs[@]}" > "$tmp/lib"
ccd_functions "${bins[@]}" > "$tmp/bin"
comm -23 "$tmp/lib" "$tmp/bin" | c++filt | sort -u |
  grep -v -F '{lambda(' |
  grep -v -E '::([A-Za-z_][A-Za-z0-9_]*)::~?\1\((|([A-Za-z0-9_:]*::)?\1 const&|([A-Za-z0-9_:]*::)?\1&&)\)$' \
  > "$tmp/unreached" || true

keep_list > "$tmp/keep"
awk '
  NR == FNR {
    prefix[NR] = $1
    if (NF < 2) print "keep-list entry without a reason: " $1
    entries = NR
    next
  }
  {
    kept = 0
    for (i = 1; i <= entries; ++i) {
      if (index($0, prefix[i]) == 1) {
        kept = 1
        used[i] = 1
      }
    }
    if (!kept) print "unreached: " $0
  }
  END {
    for (i = 1; i <= entries; ++i) {
      if (!used[i]) print "stale keep-list entry (reached, or gone): " prefix[i]
    }
  }
' "$tmp/keep" "$tmp/unreached" > "$tmp/report"

cat "$tmp/report"
echo "$(wc -l < "$tmp/unreached") ccd functions reached by none of" \
     "${#bins[@]} production binaries; $(wc -l < "$tmp/keep") on the keep list"
if [[ -s $tmp/report ]]; then
  exit 1
fi
