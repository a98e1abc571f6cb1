// A Llama-style SwiGLU feed-forward block, end to end through the graph
// compiler — the workload the paper's introduction uses to argue for
// run-time programmability ("new non-linear functions are constantly being
// introduced", citing GLU variants and Llama-2).
//
//   FFN(x) = ( SiLU(x W_gate) * (x W_up) ) W_down
//
// The compiler maps the three projections to bfp8 MatMul mode, SiLU and
// the gating multiply to the fp32 vector mode, and emits one ISA program.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "compiler/compile.hpp"

int main() {
  using namespace bfpsim;
  Rng rng(17);

  const int tokens = 32;
  const int d = 64;
  const int hidden = 172;  // ~8/3 * d, Llama-style

  const auto x =
      rng.normal_vec(static_cast<std::size_t>(tokens) * d, 0.0F, 1.0F);
  const auto w_gate =
      rng.normal_vec(static_cast<std::size_t>(d) * hidden, 0.0F, 0.12F);
  const auto w_up =
      rng.normal_vec(static_cast<std::size_t>(d) * hidden, 0.0F, 0.12F);
  const auto w_down =
      rng.normal_vec(static_cast<std::size_t>(hidden) * d, 0.0F, 0.12F);

  std::printf("=== SwiGLU FFN through the graph compiler ===\n");
  std::printf("tokens=%d d=%d hidden=%d\n\n", tokens, d, hidden);

  Graph g;
  const NodeId xi = g.input({tokens, d}, "x");
  const NodeId gate =
      g.matmul(xi, g.constant(w_gate, {d, hidden}, "W_gate"), "gate-proj");
  const NodeId up =
      g.matmul(xi, g.constant(w_up, {d, hidden}, "W_up"), "up-proj");
  const NodeId act = g.silu(gate, "silu");
  const NodeId gated = g.mul(act, up, "gate*up");
  const NodeId out =
      g.matmul(gated, g.constant(w_down, {hidden, d}, "W_down"),
               "down-proj");
  g.set_output(out);

  const AcceleratorSystem system;
  const CompiledModel model = compile(g, system);

  std::printf("compiled schedule:\n%s\n", model.report().c_str());
  std::printf("emitted program: %zu instructions (%zu-byte image)\n\n",
              model.program().size(),
              model.program().serialize().size());

  const std::vector<std::vector<float>> inputs = {x};
  const RunResult r = model.run(inputs);

  // fp32 reference.
  auto mm = [](const std::vector<float>& a, int m, int k,
               const std::vector<float>& b, int n) {
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double acc = 0.0;
        for (int s = 0; s < k; ++s) {
          acc += static_cast<double>(
                     a[static_cast<std::size_t>(i) * k + s]) *
                 b[static_cast<std::size_t>(s) * n + j];
        }
        c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
      }
    }
    return c;
  };
  const auto gate_ref = mm(x, tokens, d, w_gate, hidden);
  const auto up_ref = mm(x, tokens, d, w_up, hidden);
  std::vector<float> gated_ref(gate_ref.size());
  for (std::size_t i = 0; i < gate_ref.size(); ++i) {
    const double sig =
        1.0 / (1.0 + std::exp(-static_cast<double>(gate_ref[i])));
    gated_ref[i] = static_cast<float>(gate_ref[i] * sig * up_ref[i]);
  }
  const auto ref = mm(gated_ref, tokens, hidden, w_down, d);

  const ErrorStats s = compute_error_stats(r.output, ref);
  std::printf("accuracy vs fp32 reference: SNR %.1f dB, cosine %.6f\n",
              s.snr_db, cosine_similarity(r.output, ref));
  std::printf("device cycles: %llu (priced %llu), host ops: %llu\n",
              static_cast<unsigned long long>(r.stats.device_cycles),
              static_cast<unsigned long long>(model.price().device_cycles),
              static_cast<unsigned long long>(r.stats.host_ops));
  std::printf("\nSwiGLU did not exist when systolic int8 accelerators were "
              "taped out; here it is\nrunning on one, because the "
              "non-linear path is programmable (Section I).\n");
  return 0;
}
