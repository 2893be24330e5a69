#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Runs `args.workload` (extract_bound, table1_paged or live_mixed): the
/// untraced end-to-end run, or with args.trace the single-caller traced
/// run that times each layer's public call. Prints the result line and
/// returns the process exit code (0 when the run completed, whether or not
/// every answer checked out; the result line carries that).
int RunWorkload(const Args& args);

/// Generates the cached scene pools under args.cache_dir when missing.
/// Run in its own process before a workload, so that generation buffers
/// never reach the workload's peak_rss_mb.
int PrepareInputs(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
