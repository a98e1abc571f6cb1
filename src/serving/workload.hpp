// Seeded arrival traces for the online serving subsystem.
//
// Two classic request-generation disciplines, both deterministic functions
// of their seed (common/rng) so every serving experiment replays exactly:
//
//  * open-loop Poisson — requests arrive at exponentially distributed
//    inter-arrival times regardless of what the system does (the "heavy
//    traffic from many independent users" model; arrival times are fixed
//    up front), and
//  * closed-loop — a fixed population of clients, each thinking for a
//    fixed time after its previous request finishes before issuing the
//    next one; only the first arrival per client is in the trace, the
//    event loop reinjects the rest at completion + think time.
//
// A request's input embeddings are derived from `seed + id`, so the full
// request set is known before the virtual-time loop runs — that is what
// lets the functional forwards execute on the parallel engine (index-owned
// slots) while the loop itself stays serial and deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/clock.hpp"

namespace bfpsim {

/// One request entering the system.
struct RequestArrival {
  int id = 0;                  ///< dense request id in [0, total_requests)
  std::uint64_t cycle = 0;     ///< virtual arrival time (fabric cycles)
  /// Tenant tag (fleet layer): index into the run's tenant set. The plain
  /// generators below leave it at 0 (a single anonymous tenant), so every
  /// pre-fleet trace and report is unchanged bit for bit.
  int tenant = 0;
};

/// A complete, replayable workload description.
struct ArrivalTrace {
  /// Initial arrivals, sorted by (cycle, id), with ids exactly
  /// 0 .. arrivals.size()-1. Open-loop: every request. Closed-loop: the
  /// first request of each client.
  std::vector<RequestArrival> arrivals;
  int total_requests = 0;
  std::uint64_t seed = 1;      ///< request i uses embeddings seed `seed + i`
  double freq_hz = kDefaultFreqHz;

  bool closed_loop = false;
  std::uint64_t think_cycles = 0;  ///< closed-loop client think time

  double offered_rps = 0.0;    ///< nominal open-loop rate (reporting only)

  void validate() const;
};

/// Open-loop Poisson trace: `num_requests` arrivals at `rate_rps` requests
/// per second of virtual time, seeded inter-arrival sampling (inversion of
/// the exponential CDF on the raw engine bits — no std::distribution, so
/// the trace is identical across standard libraries).
///
/// This and the other open-loop generators throw Error when an arrival
/// falls at or past 2^64 cycles (a rate too low for the cycle counter).
ArrivalTrace poisson_trace(int num_requests, double rate_rps,
                           std::uint64_t seed,
                           double freq_hz = kDefaultFreqHz);

/// Closed-loop trace: `clients` concurrent clients issue `total_requests`
/// requests in total, each client waiting `think_ms` of virtual time after
/// a completion before its next request.
ArrivalTrace closed_loop_trace(int clients, int total_requests,
                               double think_ms, std::uint64_t seed,
                               double freq_hz = kDefaultFreqHz);

/// Cycle-0 burst: `num_requests` arrivals, every one at cycle 0 (ids in
/// order) — a batch handed over at once. Served with max_batch 1 and a
/// queue that holds the whole burst, each request runs alone on the
/// lowest free executor: the whole-image-per-unit batch placement.
ArrivalTrace batch_trace(int num_requests, double freq_hz = kDefaultFreqHz);

/// Open-loop diurnal trace: a nonhomogeneous Poisson process whose rate
/// swings sinusoidally between `base_rps` (trough) and `peak_rps` (peak)
/// with period `period_s` seconds of virtual time, starting at the trough.
/// Sampled by seeded thinning against the peak rate (two deterministic
/// draws per candidate: inter-arrival + accept), so the trace is identical
/// on every platform. offered_rps reports the cycle-average rate.
ArrivalTrace diurnal_trace(int num_requests, double base_rps,
                           double peak_rps, double period_s,
                           std::uint64_t seed,
                           double freq_hz = kDefaultFreqHz);

/// Open-loop bursty trace: a two-state Markov-modulated Poisson process
/// (MMPP-2). The source dwells exponentially (mean `dwell_low_s` /
/// `dwell_high_s` seconds) in a low state emitting at `low_rps` and a high
/// state emitting at `high_rps`, starting low. State switches exploit
/// memorylessness: the inter-arrival draw that crosses a dwell boundary is
/// discarded and resampled at the new rate from the boundary — exactly the
/// textbook MMPP construction, fully determined by the seed. offered_rps
/// reports the dwell-weighted average rate.
///
/// The generator walks about 1/E empty dwell cycles per arrival, where
/// E = low_rps * dwell_low_s + high_rps * dwell_high_s is the expected
/// arrivals per low+high dwell cycle; an E below kMmppMinArrivalsPerCycle
/// is an Error, so a vanishing rate cannot spin without end.
inline constexpr double kMmppMinArrivalsPerCycle = 1e-3;
ArrivalTrace mmpp_trace(int num_requests, double low_rps, double high_rps,
                        double dwell_low_s, double dwell_high_s,
                        std::uint64_t seed,
                        double freq_hz = kDefaultFreqHz);

}  // namespace bfpsim
