// csqbench: one process runs one workload for a fixed time and prints its
// result as one JSON line (see ../README.md).
//
//   csqbench --workload <train-csq|infer-batch> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"
#include "util/logging.h"

namespace {

int usage() {
  std::cerr << "usage: csqbench --workload <train-csq|infer-batch>"
               " --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  csqbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds < 1) return usage();
  args.trace_file = args.work_dir + "/trace-" + args.workload + "-" +
                    std::to_string(args.seed) + ".json";
  csq::set_log_level(csq::LogLevel::warn);
  try {
    if (args.workload == "train-csq") return csqbench::run_train_csq(args);
    if (args.workload == "infer-batch") return csqbench::run_infer_batch(args);
  } catch (const std::exception& e) {
    std::cerr << "csqbench " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return usage();
}
