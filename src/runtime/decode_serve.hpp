// Multi-turn decode serving from a declarative spec: the runtime loop
// behind `bfpsim serve --model <spec>`.
//
// Per-token costs are analytic: the spec's decode shape priced by
// decode_step_costs (transformer/decoder.*), the model analyze_decode also
// runs. It is GQA- and SwiGLU-aware: the K/V projections shrink to kv_heads * head_dim columns,
// attention reads only the grouped KV stream, and a SwiGLU MLP streams
// three FFN matrices instead of two. On a degenerate spec (kv_heads ==
// heads, GELU, context-length KV) the per-token cycles equal
// analyze_decode's — the parity the self-check test pins.
//
// On top of the per-token model sits the paged KV-cache residency loop:
// each turn extends its sequence's pages in the shared HBM arena, and the
// report carries the cache's hit/reload/eviction counts and their DMA
// cycles so multi-tenant pressure shows up in tokens/s.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compiler/spec.hpp"
#include "fabric/system.hpp"
#include "runtime/paged_kv.hpp"
#include "transformer/decoder.hpp"

namespace bfpsim {

/// Spec-aware per-token decode cost at KV length `len`: decode_step_costs
/// (transformer/decoder.hpp) on the spec's GQA/SwiGLU shape; identical to
/// analyze_decode for degenerate specs at len == spec.context.
using SpecDecodeCosts = DecodeStepCosts;

SpecDecodeCosts spec_decode_costs(const ModelSpec& spec,
                                  const AcceleratorSystem& sys, int len,
                                  int batch = 1);

/// One conversation turn: the sequence gains `prompt_tokens` context
/// (prefill) and then generates `gen_tokens`.
struct ServeTurn {
  int seq = 0;
  int prompt_tokens = 0;
  int gen_tokens = 1;
};

struct DecodeServeConfig {
  int page_tokens = 16;
  /// KV arena size; 0 = size for one full-context sequence (so a second
  /// tenant forces evictions — the interesting regime).
  std::uint64_t arena_bytes = 0;
  int batch = 1;  ///< concurrent decode streams sharing each step
};

/// Per-turn outcome.
struct TurnReport {
  int seq = 0;
  int context_after = 0;      ///< resident tokens after the turn
  int generated = 0;
  std::uint64_t decode_cycles = 0;  ///< sum of per-token steps
  std::uint64_t kv_transfer_cycles = 0;
  std::uint64_t kv_hits = 0;
  std::uint64_t kv_cold = 0;
  std::uint64_t kv_reloads = 0;
  std::uint64_t kv_evictions = 0;
};

struct DecodeServeReport {
  std::string model;
  std::vector<TurnReport> turns;
  std::uint64_t total_cycles = 0;   ///< decode + KV DMA
  std::uint64_t total_tokens = 0;   ///< generated tokens
  KvStats kv;
  std::uint64_t kv_page_bytes = 0;
  double tokens_per_second = 0.0;   ///< at the system clock

  std::string table() const;        ///< human-readable per-turn table
};

/// Run the multi-turn decode loop. Turns execute in order; sequences
/// persist across turns (their KV pages stay resident until evicted), so
/// interleaving turns of different sequences exercises the paged cache.
/// Throws ConfigError for encoder specs or when a turn exceeds the spec
/// context.
DecodeServeReport serve_decode(const ModelSpec& spec,
                               const AcceleratorSystem& sys,
                               std::span<const ServeTurn> turns,
                               const DecodeServeConfig& cfg = {});

}  // namespace bfpsim
