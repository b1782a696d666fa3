// perfgate: the machine-readable perf-regression gate (docs/OBSERVABILITY.md).
//
// Runs a fixed panel of figure benches plus the bench_perf_kernels
// microbenchmarks, aggregates their run manifests, run-health timelines and
// google-benchmark reports into one BENCH_cellscope.json trajectory
// (schema "cellscope-bench-trajectory/1"), and diffs it against the
// checked-in baseline under the baseline's own per-metric tolerances.
//
// Usage (run from the repo root):
//   build/tools/perfgate [options]
//     --bin-dir DIR     bench binaries           (default: build/bench)
//     --baseline PATH   trajectory baseline      (default: BENCH_cellscope.json,
//                       falling back to ../BENCH_cellscope.json)
//     --work-dir DIR    scratch obs output       (default: obs-perfgate)
//     --out PATH        where the current trajectory is written
//                       (default: <work-dir>/BENCH_cellscope.current.json)
//
// Environment:
//   CELLSCOPE_PERFGATE_UPDATE=1   regenerate the baseline at --baseline
//                                 (slope cap recomputed from this run) and
//                                 exit 0 without comparing
//   CELLSCOPE_BENCH_USERS/SEED/THREADS   respected if already set; the gate
//                                 otherwise pins users=4000 seed=42 threads=2
//
// Exit codes: 0 within tolerance (or baseline updated), 1 regression,
// 2 usage/environment error. CI runs this in the perf-gate job and uploads
// the trajectory + timelines as artifacts.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/json_read.h"
#include "obs/benchgate.h"
#include "obs/runtime.h"

namespace {

namespace fs = std::filesystem;
using cellscope::common::JsonValue;
using cellscope::common::json_parse_file;

struct Options {
  std::string bin_dir = "build/bench";
  std::string baseline;
  std::string work_dir = "obs-perfgate";
  std::string out;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "perfgate: " << what << "\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--bin-dir") opt.bin_dir = value();
    else if (arg == "--baseline") opt.baseline = value();
    else if (arg == "--work-dir") opt.work_dir = value();
    else if (arg == "--out") opt.out = value();
    else usage_error("unknown argument '" + arg + "'");
  }
  if (opt.baseline.empty()) {
    opt.baseline = fs::exists("BENCH_cellscope.json")
                       ? "BENCH_cellscope.json"
                       : (fs::exists("../BENCH_cellscope.json")
                              ? "../BENCH_cellscope.json"
                              : "BENCH_cellscope.json");
  }
  if (opt.out.empty())
    opt.out = opt.work_dir + "/BENCH_cellscope.current.json";
  return opt;
}

// The gate panel: one mobility-only bench, one KPI/network bench, one voice
// bench — together they exercise the simulator, scheduler, store sink and
// analysis paths the paper's figures depend on — plus the query-load bench,
// which adds the serving plane (QueryService + result cache + admission)
// and contributes the query_p99_ms / queries_per_sec trajectory fields.
const std::vector<std::string> kFigureBenches = {
    "bench_fig03_national_mobility",
    "bench_fig08_network_performance",
    "bench_fig09_voice_traffic",
    "bench_ext_query_load",
};

// The store-read path split into its layers (open + verify, the CRC32C
// kernel alone, decode over a verified handle). A run missing any of them
// is refused, baseline update included, so a regression in one layer can
// never hide inside another's number.
const std::vector<std::string> kRequiredKernels = {
    "BM_StoreOpen/131072",
    "BM_ShardVerify/131072",
    "BM_ScanDecode/131072",
};

// Deterministic gate scale, unless the caller pinned their own.
void pin_bench_env() {
  setenv("CELLSCOPE_BENCH_USERS", "4000", /*overwrite=*/0);
  setenv("CELLSCOPE_BENCH_SEED", "42", /*overwrite=*/0);
  setenv("CELLSCOPE_BENCH_THREADS", "2", /*overwrite=*/0);
  // Query-load fleet size: pinned so qps/p99 are comparable run to run.
  setenv("CELLSCOPE_QUERY_CLIENTS", "1000", /*overwrite=*/0);
  setenv("CELLSCOPE_QUERY_PER_CLIENT", "20", /*overwrite=*/0);
  // Nothing else may leak into the measured runs.
  unsetenv("CELLSCOPE_BENCH_FAULTS");
  unsetenv("CELLSCOPE_STORE_DIR");
  unsetenv("CELLSCOPE_AUDIT");
  unsetenv("CELLSCOPE_CRASH_AT_DAY");
}

int run_command(const std::string& command) {
  std::cout << "  $ " << command << std::endl;
  const int status = std::system(command.c_str());
  if (status < 0) return -1;
  return status;
}

// Finds the single *.manifest.json a bench wrote into its obs subdir.
std::string find_manifest(const std::string& dir) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 14 &&
        name.compare(name.size() - 14, 14, ".manifest.json") == 0) {
      if (!found.empty()) return {};  // ambiguous
      found = entry.path().string();
    }
  }
  return found;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const bool update_mode = [] {
    const char* update = std::getenv("CELLSCOPE_PERFGATE_UPDATE");
    return update != nullptr && std::string(update) == "1";
  }();

  pin_bench_env();

  std::string work_dir;
  try {
    work_dir = cellscope::obs::ensure_obs_dir(opt.work_dir);
  } catch (const std::runtime_error& error) {
    std::cerr << "perfgate: " << error.what() << "\n";
    return 2;
  }

  cellscope::obs::Trajectory current;
  current.git_describe = cellscope::obs::build_describe();

  // --- Figure benches: one obs subdir each, manifest -> BenchRecord. ---
  for (const auto& bench : kFigureBenches) {
    const std::string binary = opt.bin_dir + "/" + bench;
    if (!fs::exists(binary)) {
      std::cerr << "perfgate: bench binary '" << binary
                << "' not found (build first; see --bin-dir)\n";
      return 2;
    }
    const std::string obs_dir = work_dir + "/" + bench;
    std::error_code ec;
    fs::remove_all(obs_dir, ec);  // stale manifests must not leak in
    setenv("CELLSCOPE_OBS_DIR", obs_dir.c_str(), /*overwrite=*/1);
    const std::string log = work_dir + "/" + bench + ".log";
    const int status =
        run_command("'" + binary + "' > '" + log + "' 2>&1");
    if (status != 0) {
      std::cerr << "perfgate: " << bench << " exited with status " << status
                << " (log: " << log << ")\n";
      return 2;
    }
    const std::string manifest_path = find_manifest(obs_dir);
    if (manifest_path.empty()) {
      std::cerr << "perfgate: no run manifest under " << obs_dir << "\n";
      return 2;
    }
    try {
      current.benches.push_back(
          cellscope::obs::bench_from_manifest(json_parse_file(manifest_path)));
    } catch (const std::runtime_error& error) {
      std::cerr << "perfgate: " << manifest_path << ": " << error.what()
                << "\n";
      return 2;
    }
  }

  // --- Kernel microbenchmarks: google-benchmark JSON -> KernelRecords. ---
  {
    const std::string binary = opt.bin_dir + "/bench_perf_kernels";
    if (!fs::exists(binary)) {
      std::cerr << "perfgate: '" << binary << "' not found\n";
      return 2;
    }
    const std::string obs_dir = work_dir + "/kernels";
    std::error_code ec;
    fs::remove_all(obs_dir, ec);
    setenv("CELLSCOPE_OBS_DIR", obs_dir.c_str(), /*overwrite=*/1);
    const std::string log = work_dir + "/bench_perf_kernels.log";
    const int status =
        run_command("'" + binary + "' > '" + log + "' 2>&1");
    if (status != 0) {
      std::cerr << "perfgate: bench_perf_kernels exited with status "
                << status << " (log: " << log << ")\n";
      return 2;
    }
    try {
      current.kernels = cellscope::obs::kernels_from_benchmark_json(
          json_parse_file(obs_dir + "/perf_kernels.json"));
    } catch (const std::runtime_error& error) {
      std::cerr << "perfgate: perf_kernels.json: " << error.what() << "\n";
      return 2;
    }
  }
  if (current.kernels.empty()) {
    std::cerr << "perfgate: no kernel records parsed\n";
    return 2;
  }
  for (const auto& name : kRequiredKernels) {
    const bool found = std::any_of(
        current.kernels.begin(), current.kernels.end(),
        [&](const cellscope::obs::KernelRecord& k) { return k.name == name; });
    if (!found) {
      std::cerr << "perfgate: required kernel '" << name
                << "' missing from bench_perf_kernels\n";
      return 2;
    }
  }

  if (update_mode) {
    // Recompute the absolute slope cap from what this machine actually
    // observed: headroom of 2x over the worst bench, floored at 512 kB/day
    // so measurement noise on a flat run cannot arm a hair-trigger. The
    // cap stays an order of magnitude below a real per-day leak at scale.
    double worst_slope = 0.0;
    for (const auto& b : current.benches)
      worst_slope = std::max(worst_slope, b.rss_slope_kb_per_day);
    current.tolerances.rss_slope_max_kb_per_day =
        std::max(512.0, 2.0 * worst_slope);
    std::ostringstream out;
    cellscope::obs::write_trajectory_json(out, current);
    cellscope::write_file_atomic(opt.baseline, out.str());
    std::cout << "perfgate: baseline updated at " << opt.baseline << " ("
              << current.benches.size() << " benches, "
              << current.kernels.size() << " kernels, slope cap "
              << current.tolerances.rss_slope_max_kb_per_day
              << " kB/day)\n";
    return 0;
  }

  cellscope::obs::Trajectory baseline;
  try {
    baseline = cellscope::obs::parse_trajectory(json_parse_file(opt.baseline));
  } catch (const std::runtime_error& error) {
    std::cerr << "perfgate: baseline " << opt.baseline << ": "
              << error.what()
              << "\n(run with CELLSCOPE_PERFGATE_UPDATE=1 to generate it)\n";
    return 2;
  }

  // Publish the current trajectory next to the logs (CI uploads it), with
  // the baseline's tolerances so a later promote-to-baseline keeps them.
  current.tolerances = baseline.tolerances;
  {
    std::ostringstream out;
    cellscope::obs::write_trajectory_json(out, current);
    cellscope::write_file_atomic(opt.out, out.str());
  }

  const auto findings =
      cellscope::obs::compare_trajectories(baseline, current);
  int regressions = 0;
  for (const auto& finding : findings) {
    if (finding.regression) {
      ++regressions;
      std::cout << "REGRESSION: " << finding.detail << "\n";
    } else {
      std::cout << "note: " << finding.detail << "\n";
    }
  }
  std::cout << "perfgate: " << current.benches.size() << " benches, "
            << current.kernels.size() << " kernels vs baseline "
            << opt.baseline << " (" << baseline.git_describe << "): "
            << regressions << " regression(s)\n";
  if (regressions > 0) {
    std::cout << "(intentional change? rerun with "
                 "CELLSCOPE_PERFGATE_UPDATE=1 and commit the new "
                 "baseline)\n";
    return 1;
  }
  std::cout << "perfgate: OK — within tolerance; current trajectory at "
            << opt.out << "\n";
  return 0;
}
