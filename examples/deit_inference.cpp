// End-to-end mixed-precision DeiT inference (the paper's Section III-D
// case study): run a synthetic DeiT encoder with every matrix multiply in
// bfp8 and every non-linear layer in fp32 vector mode, compare against the
// fp32 reference, and print the Table IV partition of the compiled
// program's priced cycles.
//
// Usage: ./build/examples/deit_inference [tiny|small|test]
//   test (default): a miniature encoder — runs in well under a second.
//   tiny:           DeiT-Tiny (192-d, 12 blocks) — a few seconds.
//   small:          DeiT-Small (384-d, 12 blocks) — functional forward of
//                   ~4.5 GMACs through the golden bfp8 path; slower.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/stats.hpp"
#include "compiler/compile.hpp"
#include "compiler/partition.hpp"
#include "compiler/spec_graph.hpp"
#include "compiler/spec_registry.hpp"
#include "fabric/system.hpp"
#include "transformer/model.hpp"

int main(int argc, char** argv) {
  using namespace bfpsim;
  std::string which = argc > 1 ? argv[1] : "test";
  VitConfig cfg;
  if (which == "tiny") {
    cfg = deit_tiny();
  } else if (which == "small") {
    cfg = deit_small();
  } else {
    which = "test";
    cfg = vit_test_tiny();
  }

  std::printf("=== Mixed-precision ViT inference: %s ===\n", cfg.name.c_str());
  std::printf("tokens=%d embed=%d heads=%d blocks=%d\n\n", cfg.tokens(),
              cfg.embed_dim, cfg.num_heads, cfg.depth);

  const AcceleratorSystem sys;
  const VitModel model(random_weights(cfg, 2024));
  const auto x = random_embeddings(cfg, 7);

  std::printf("running fp32 reference forward...\n");
  const auto ref = model.forward_reference(x);

  std::printf("running mixed bfp8+fp32 forward on the accelerator model...\n");
  ForwardStats stats;
  const auto mixed = model.forward_mixed(x, sys, &stats);

  const ErrorStats err = compute_error_stats(mixed, ref);
  std::printf("\naccuracy (no retraining, pre-'trained' weights):\n");
  std::printf("  feature SNR vs fp32 : %.1f dB\n", err.snr_db);
  std::printf("  cosine similarity   : %.6f\n",
              cosine_similarity(mixed, ref));
  const auto ref_logits = model.classify(ref);
  const auto mix_logits = model.classify(mixed);
  std::printf("  top-1 agreement     : %s\n",
              top1_agreement({ref_logits}, {mix_logits}) == 1.0 ? "yes"
                                                                : "no");

  std::printf("\nworkload executed on the accelerator:\n");
  std::printf("  bfp8 MACs           : %.1f M\n",
              static_cast<double>(stats.bfp_macs) / 1e6);
  std::printf("  fp32 device ops     : %.2f M (mul %.2fM, add %.2fM, EU "
              "%.2fM)\n",
              static_cast<double>(stats.nonlinear_ops.device_flops()) / 1e6,
              static_cast<double>(stats.nonlinear_ops.fp_mul) / 1e6,
              static_cast<double>(stats.nonlinear_ops.fp_add) / 1e6,
              static_cast<double>(stats.nonlinear_ops.exp_manip) / 1e6);
  std::printf("  host divisions      : %.3f M (Section III-B)\n",
              static_cast<double>(stats.nonlinear_ops.host_div) / 1e6);
  std::printf("\nmodelled end-to-end latency @300 MHz:\n");
  const double f = 300e6;
  std::printf("  linear (bfp8)       : %.3f ms\n",
              1e3 * static_cast<double>(stats.linear_cycles) / f);
  std::printf("  non-linear (fp32)   : %.3f ms\n",
              1e3 * static_cast<double>(stats.vector_cycles) / f);
  const double fp32_share =
      static_cast<double>(stats.vector_cycles) /
      static_cast<double>(stats.total_cycles());
  std::printf("  fp32 latency share  : %.1f%%  (the Table IV effect)\n",
              100.0 * fp32_share);

  std::printf("\nTable IV partition of the compiled %s program:\n",
              cfg.name.c_str());
  const WorkloadBreakdown b = workload_breakdown(compile_vit(cfg, sys), f);
  for (const auto& r : b.rows) {
    std::printf("  %-18s %10.1f MOPs (%6.3f%%)  %8.3f ms (%6.3f%%)\n",
                r.partition, r.mega_ops, 100.0 * r.ops_proportion,
                r.latency_ms, 100.0 * r.latency_proportion);
  }

  if (which == "test") {
    // Bonus (small config only): the same encoder, as the committed
    // vit-tiny-test spec, through the graph compiler — weights to a single
    // device instruction stream — against the direct path on the spec's
    // weights.
    const ModelSpec spec = load_model_spec("vit-tiny-test");
    const VitModel spec_model(random_weights(vit_config_of(spec), spec.seed));
    const Graph g = build_spec_graph(spec);
    const CompiledModel compiled = compile(g, sys);
    const std::vector<std::vector<float>> inputs = {x};
    const RunResult r = compiled.run(inputs);
    std::printf("\ncompiled-encoder path: %zu graph nodes -> %zu "
                "instructions (%zu-byte image);\n  agreement with the "
                "direct path: cosine %.6f\n",
                g.size(), compiled.program().size(),
                compiled.program().serialize().size(),
                cosine_similarity(r.output, spec_model.forward_mixed(x, sys)));
  }
  return 0;
}
