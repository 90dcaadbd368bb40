// perfbench_main: runs one workload of the end-to-end benchmark and prints
// its metrics. run.py builds this binary and calls it as
//
//   perfbench_main --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>]
//
// The last stdout line is one JSON object with every metric measured.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_main --workload "
               "train_rcbt|mine_deep|mine_sharded|serve_http --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();
  mkdir(args.work_dir.c_str(), 0755);

  Report report;
  int rc = 0;
  if (args.workload == "train_rcbt") {
    rc = RunTrainRcbt(args, &report);
  } else if (args.workload == "mine_deep") {
    rc = RunMineDeep(args, &report);
  } else if (args.workload == "mine_sharded") {
    rc = RunMineSharded(args, &report);
  } else if (args.workload == "serve_http") {
    rc = RunServeHttp(args, &report);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
