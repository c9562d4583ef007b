// The repository's end-to-end benchmark driver.
//
//   perfbench --workload <paper_suite|synthetic_scale|serve_mix|model_build>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints a provenance line, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs report the per-layer ones.
// See perfbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "ml/simd_dispatch.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_suite|synthetic_scale|"
               "serve_mix|model_build> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  // Timings from a build without optimization, or with assertions on, are
  // not comparable with anything; refuse them.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::fprintf(stderr, "perfbench: refusing a %s build (need Release)\n",
                 build_type.c_str());
    return 3;
  }

  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, \"simd_lane\": "
      "\"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"optimize_threads\": %d, \"forest_threads\": %d, "
      "\"serve_shards\": %d, \"serve_clients\": %d}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      robopt::simd::LaneName(robopt::simd::ActiveLane()), build_type.c_str(),
      commit != nullptr ? commit : "unknown", perfbench::kOptimizeThreads,
      perfbench::kForestThreads, perfbench::kServeShards,
      perfbench::kServeClients);
  std::fflush(stdout);

  perfbench::Report report;
  int code = 0;
  if (args.workload == "paper_suite") {
    code = perfbench::RunPaperSuite(args, &report);
  } else if (args.workload == "synthetic_scale") {
    code = perfbench::RunSyntheticScale(args, &report);
  } else if (args.workload == "serve_mix") {
    code = perfbench::RunServeMix(args, &report);
  } else if (args.workload == "model_build") {
    code = perfbench::RunModelBuild(args, &report);
  } else {
    return Usage();
  }
  if (code != 0) return code;
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
