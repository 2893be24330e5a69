// perfbench: end-to-end benchmark of the WALRUS library.
//
//   perfbench --workload <extract_bound|table1_paged|live_mixed>
//             --seed <n> --seconds <n> --trace <0|1>
//             --cache-dir <dir> --work-dir <dir> --trace-dir <dir>
//   perfbench --workload prepare --cache-dir <dir> ...
//
// The "prepare" pseudo-workload only generates the cached scene pools.
// Normally started through run.py, which builds this binary first. The
// last line of standard output is the result object.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <n> "
               "--trace <0|1> --cache-dir <dir> --work-dir <dir> "
               "--trace-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--cache-dir") {
      args.cache_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.cache_dir.empty() ||
      args.work_dir.empty() || args.trace_dir.empty() || args.seconds < 1) {
    return Usage();
  }
  if (!perfbench::MakeDirs(args.work_dir).ok() ||
      !perfbench::MakeDirs(args.trace_dir).ok()) {
    std::fprintf(stderr, "perfbench: cannot create output directories\n");
    return 1;
  }
  if (args.workload == "prepare") return perfbench::PrepareInputs(args);
  return perfbench::RunWorkload(args);
}
