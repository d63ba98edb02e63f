// Figure 8: factor analysis of the runtime engine's systems optimizations —
// starting from everything off and adding threading, memory reuse, pinned
// staging, and DAG optimization in sequence. Real wall-clock measurements;
// the claim under test is a (weakly) monotone improvement chain with a
// decisive total gain.
#include <cstdio>

#include "bench/sysopt_common.h"

int main() {
  using namespace smol;
  using namespace smol::bench;
  PrintTitle("Figure 8: systems-optimization factor analysis (measured im/s)");

  struct Factor {
    const char* name;
    void (*apply)(PipelineOptions&);
  };
  // Cumulative: each step turns one more optimization on.
  const Factor factors[] = {
      {"None",
       [](PipelineOptions& o) {
         o.num_producers = 1;
         o.enable_memory_reuse = false;
         o.enable_pinned = false;
         o.enable_dag_opt = false;
       }},
      {"+ threading",
       [](PipelineOptions& o) {
         o.enable_memory_reuse = false;
         o.enable_pinned = false;
         o.enable_dag_opt = false;
       }},
      {"+ mem reuse",
       [](PipelineOptions& o) {
         o.enable_pinned = false;
         o.enable_dag_opt = false;
       }},
      {"+ pinned", [](PipelineOptions& o) { o.enable_dag_opt = false; }},
      {"+ DAG", [](PipelineOptions&) {}},
  };

  bool ok = true;
  for (const auto& [label, size, count] :
       {std::tuple{"Full resolution", 128, 1500},
        std::tuple{"Low resolution", 96, 2500}}) {
    std::printf("\n--- %s (%dx%d SJPG) ---\n", label, size, size);
    const SysoptWorkload workload = MakeSysoptWorkload(count, size);
    std::vector<PipelineOptions> configs;
    for (const Factor& factor : factors) {
      PipelineOptions opts;
      factor.apply(opts);
      configs.push_back(opts);
    }
    const std::vector<double> measured = MeasureConfigs(workload, configs);
    PrintRow({"Config", "Throughput (im/s)"}, 22);
    PrintRule(2, 22);
    for (size_t i = 0; i < configs.size(); ++i) {
      PrintRow({factors[i].name, Fmt(measured[i], 0)}, 22);
      // A factor should never cost real throughput; on a 2-hyperthread host
      // the per-step measurements carry ~15% scheduler noise, so the chain
      // check allows that band (the total-gain check below is strict).
      if (i > 0 && measured[i] < measured[i - 1] * 0.85) {
        ok = false;
      }
    }
    const double none = measured.front();
    const double full = measured.back();
    std::printf("  total gain: %.2fx\n", none > 0 ? full / none : 0.0);
    ok &= full > none * 1.3;
  }
  std::printf("\n%s\n", ok ? "OK: factor chain improves throughput"
                           : "FAIL: factor chain regressed");
  return ok ? 0 : 1;
}
