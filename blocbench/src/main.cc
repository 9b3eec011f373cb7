// blocbench: runs one benchmark workload and prints its result line.
//
//   blocbench --workload locate-static|serve-paced|fullphy-stream
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// Progress and the human-readable summary go to stderr; the last line on
// stdout is the JSON result with every metric the run set, as name: value
// (run.py selects the mode's metrics and adds their units from
// BENCHMARK.json). With --out, the run record (stamp, metrics,
// sample counts, details) is written to DIR/<workload>-s<seed>-t<trace>.json
// and a traced run's spans to DIR/<workload>-s<seed>.spans.csv.
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

using blocbench::Options;

bool ParseArgs(int argc, char** argv, Options& options) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return false;
    }
  }
  for (const auto& [key, value] : args) {
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      options.seed = std::stoull(value);
    } else if (key == "seconds") {
      options.seconds = std::stod(value);
    } else if (key == "trace") {
      options.trace = value == "1";
    } else if (key == "out") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, options)) {
    std::cerr << "usage: blocbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n";
    return 2;
  }
  blocbench::Trace trace(options.trace);
  blocbench::Result result;
  std::string line;
  try {
    if (options.workload == "locate-static") {
      blocbench::RunLocateStatic(options, trace, result);
    } else if (options.workload == "serve-paced") {
      blocbench::RunServePaced(options, trace, result);
    } else if (options.workload == "fullphy-stream") {
      blocbench::RunFullPhyStream(options, trace, result);
    } else {
      std::cerr << "unknown workload " << options.workload << "\n";
      return 2;
    }
    result.Set("peak_rss_mb", blocbench::PeakRssMb());
    if (options.trace) blocbench::LayerMetrics(trace, result);
    line = result.ResultLine();
  } catch (const std::exception& e) {
    std::cerr << "blocbench: " << e.what() << "\n";
    return 2;
  }

  if (!options.out_dir.empty()) {
    const std::string stem = options.out_dir + "/" + options.workload + "-s" +
                             std::to_string(options.seed);
    result.WriteRecord(options,
                       stem + "-t" + (options.trace ? "1" : "0") + ".json");
    if (options.trace) trace.WriteCsv(stem + ".spans.csv");
  }
  std::cout << line << std::endl;
  if (!result.correct || result.failed != 0) {
    std::cerr << "blocbench: " << result.failed << " of " << result.attempted
              << " rounds failed\n";
    return 1;
  }
  return 0;
}
