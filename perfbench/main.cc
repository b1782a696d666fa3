// The cellscope benchmark program.
//
//   perfbench --workload <simulate|replay|query_cold|query_hot>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints what it measures as it goes, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones the workload exercises. Exits 1 when a correctness check
// failed, 2 on bad arguments or a failed run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<simulate|replay|query_cold|query_hot> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n";
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text,
                    long long lo, long long hi) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || v < lo || v > hi)
    usage("bad value for " + flag + ": '" + text + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have[5] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(
          parse_int(flag, value, 0, (1ll << 62)));
      have[1] = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<int>(parse_int(flag, value, 1, 600));
      have[2] = true;
    } else if (flag == "--trace") {
      opt.trace = parse_int(flag, value, 0, 1) == 1;
      have[3] = true;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
      have[4] = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  for (const bool h : have)
    if (!h) usage("every flag is required");
  return opt;
}

// The JSON number for `v`, every digit kept.
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);

  Outcome out;
  try {
    if (opt.workload == "simulate")
      out = run_simulate(opt);
    else if (opt.workload == "replay")
      out = run_replay(opt);
    else if (opt.workload == "query_cold")
      out = run_query_cold(opt);
    else if (opt.workload == "query_hot")
      out = run_query_hot(opt);
    else
      usage("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
  if (out.attempted == 0) {
    std::cerr << "perfbench: no operation was attempted\n";
    return 2;
  }
  const double ok_frac = 1.0 - static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted);
  out.end_to_end.set("ok_frac", ok_frac, "fraction");
  std::cout << "  " << out.failed << " of " << out.attempted
            << " operations failed (failed_frac " << 1.0 - ok_frac << ")\n";

  // The metrics the workload measured. run.py checks them against
  // BENCHMARK.json and fills in the layers this workload does not exercise.
  const MetricList& measured = opt.trace ? out.layers : out.end_to_end;
  std::string metrics;
  std::cout << (opt.trace ? "per-layer metrics:\n" : "end-to-end metrics:\n");
  for (const auto& m : measured.items()) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      return 2;
    }
    std::cout << "  " << std::left << std::setw(28) << m.name << std::right
              << std::setw(16) << m.value << ' ' << m.unit << "\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }

  for (const auto& e : out.errors) std::cout << "  CHECK FAILED: " << e << "\n";
  if (out.correct()) std::cout << "  all correctness checks passed\n";
  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return out.correct() ? 0 : 1;
}
