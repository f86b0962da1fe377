// The repository benchmark's binary. run.py builds it and calls
//
//   perfbench --workload <paper_cold|service_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]
//             [--git-sha <sha>] [--src-digest <hex>]
//   perfbench --self-check
//
// It prints a host stamp line, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics (end-to-end metrics when
// untraced, per-layer metrics when traced). A wrong answer prints
// "correct": false and exits 1; any other failure exits 2 without a result.
// --self-check verifies that the answer checks reject a tampered quotient
// and a missing row.

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "exec/kernels/kernels.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {

void AddTraceSummary(MetricSink* sink, const Tracer& tracer,
                     double overhead_frac, double operations) {
  const std::map<Layer, double> self = tracer.SelfTimeUs();
  for (const auto& [layer, us] : self) {
    sink->Add(std::string("self.") + LayerName(layer) + "_us",
              operations > 0 ? us / operations : 0, "us");
  }
  sink->Add("trace.spans", static_cast<double>(tracer.num_spans()), "count");
  sink->Add("trace.overhead_frac", overhead_frac, "fraction");
}

reldiv::Status WriteTrace(const RunConfig& config, const Tracer& tracer) {
  return tracer.WriteFile(config.out_dir + "/" + config.workload + "_seed" +
                          std::to_string(config.seed) + "_trace.json");
}

namespace {

std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string HostJson(const RunConfig& config) {
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + CpuModel() + "\", \"kernels\": \"" +
         reldiv::kernels::LevelName(reldiv::kernels::ActiveLevel()) +
         "\", \"build\": \"" PERFBENCH_BUILD_TYPE
         "\", \"compiler\": \"" PERFBENCH_COMPILER "\", \"git_sha\": \"" +
         config.git_sha + "\", \"src_digest\": \"" + config.src_digest +
         "\", \"workload\": \"" + config.workload +
         "\", \"seed\": " + std::to_string(config.seed) +
         ", \"seconds\": " + std::to_string(config.seconds) +
         ", \"trace\": " + (config.trace ? "1" : "0") +
         ", \"tiny\": " + (config.tiny ? "1" : "0") + "}";
}

/// The answer checks must reject a changed row and a missing row.
int SelfCheck() {
  std::vector<reldiv::Tuple> expected;
  for (int64_t q = 0; q < 50; ++q) {
    expected.push_back(reldiv::Tuple{reldiv::Value::Int64(q * 3)});
  }
  std::vector<reldiv::Tuple> tampered = expected;
  tampered[17] = reldiv::Tuple{reldiv::Value::Int64(1000)};
  std::vector<reldiv::Tuple> missing = expected;
  missing.erase(missing.begin() + 23);
  std::vector<reldiv::Tuple> shuffled(expected.rbegin(), expected.rend());

  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) failures++;
  };
  expect(CheckSortedEqual(shuffled, expected, "shuffled").ok(),
         "sorted check accepts a reordered quotient");
  expect(!CheckSortedEqual(tampered, expected, "tampered").ok(),
         "sorted check rejects a tampered row");
  expect(!CheckSortedEqual(missing, expected, "missing").ok(),
         "sorted check rejects a missing row");
  expect(DigestOf(shuffled) == DigestOf(expected),
         "digest check accepts a reordered quotient");
  expect(DigestOf(tampered) != DigestOf(expected),
         "digest check rejects a tampered row");
  expect(DigestOf(missing) != DigestOf(expected),
         "digest check rejects a missing row");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--out-dir <dir>]\n"
               "       perfbench --self-check\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::RunConfig;
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-check") return perfbench::SelfCheck();
    if (arg == "--tiny") {
      config.tiny = true;
      continue;
    }
    if (value == nullptr) return perfbench::Usage();
    ++i;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else if (arg == "--git-sha") {
      config.git_sha = value;
    } else if (arg == "--src-digest") {
      config.src_digest = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (config.seconds <= 0) return perfbench::Usage();

  perfbench::RunResult result;
  if (config.workload == "paper_cold") {
    result = perfbench::RunPaperCold(config);
  } else if (config.workload == "service_churn") {
    result = perfbench::RunServiceChurn(config);
  } else {
    return perfbench::Usage();
  }

  const std::string host = perfbench::HostJson(config);
  std::printf("host %s\n", host.c_str());
  const bool wrong = result.status.IsInternal();
  if (!result.status.ok() && !wrong) {
    std::fprintf(stderr, "perfbench: %s\n",
                 result.status.ToString().c_str());
    return 2;
  }
  if (wrong) {
    std::fprintf(stderr, "perfbench: wrong answer: %s\n",
                 result.status.ToString().c_str());
  }
  const std::string line =
      std::string("{\"correct\": ") + (wrong ? "false" : "true") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + result.metrics.ToJson() + "}";
  const std::string record_path =
      config.out_dir + "/" + config.workload + "_seed" +
      std::to_string(config.seed) + "_trace" + (config.trace ? "1" : "0") +
      ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s, \"result\": %s}\n", host.c_str(),
                 line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return wrong ? 1 : 0;
}
