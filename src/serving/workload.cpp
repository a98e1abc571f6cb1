#include "serving/workload.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace bfpsim {

namespace {

/// `t_seconds` of virtual time in fabric cycles. A time at or past 2^64
/// cycles (inf or NaN included, as a vanishing rate produces) does not
/// fit the cycle counter: an Error, never a wrapped arrival.
std::uint64_t arrival_cycle(double t_seconds, double freq_hz) {
  const double cycles = t_seconds * freq_hz;
  BFP_REQUIRE(cycles < 18446744073709551616.0,
              "arrival trace: an arrival lies 2^64 or more cycles out "
              "(rate too low)");
  return static_cast<std::uint64_t>(cycles);
}

}  // namespace

void ArrivalTrace::validate() const {
  BFP_REQUIRE(total_requests >= 1, "ArrivalTrace: needs >= 1 request");
  BFP_REQUIRE(freq_hz > 0.0, "ArrivalTrace: frequency must be positive");
  BFP_REQUIRE(!arrivals.empty(), "ArrivalTrace: no initial arrivals");
  BFP_REQUIRE(arrivals.size() <= static_cast<std::size_t>(total_requests),
              "ArrivalTrace: more initial arrivals than total requests");
  // The serving loop indexes per-request tables by id and hands closed-loop
  // reinjections the ids from arrivals.size() on, so the initial ids must
  // be exactly 0 .. arrivals.size()-1.
  std::vector<bool> seen(arrivals.size(), false);
  for (const RequestArrival& a : arrivals) {
    const auto id = static_cast<std::size_t>(a.id);
    BFP_REQUIRE(a.id >= 0 && id < arrivals.size() && !seen[id],
                "ArrivalTrace: arrival ids must be 0..arrivals.size()-1, "
                "each once");
    seen[id] = true;
  }
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    BFP_REQUIRE(arrivals[i - 1].cycle < arrivals[i].cycle ||
                    (arrivals[i - 1].cycle == arrivals[i].cycle &&
                     arrivals[i - 1].id < arrivals[i].id),
                "ArrivalTrace: arrivals must be sorted by (cycle, id)");
  }
}

ArrivalTrace poisson_trace(int num_requests, double rate_rps,
                           std::uint64_t seed, double freq_hz) {
  BFP_REQUIRE(num_requests >= 1, "poisson_trace: needs >= 1 request");
  BFP_REQUIRE(rate_rps > 0.0, "poisson_trace: rate must be positive");
  BFP_REQUIRE(freq_hz > 0.0, "poisson_trace: frequency must be positive");

  ArrivalTrace t;
  t.total_requests = num_requests;
  t.seed = seed;
  t.freq_hz = freq_hz;
  t.offered_rps = rate_rps;

  // Inverse-CDF sampling: u in [0, 1) from the generator's top 53 bits,
  // dt = -ln(1-u)/rate. std::exponential_distribution would be
  // implementation-defined; this is the same bits on every platform.
  Rng rng(seed);
  double t_seconds = 0.0;
  t.arrivals.reserve(static_cast<std::size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    const double u = rng.unit_double();
    t_seconds += -std::log1p(-u) / rate_rps;
    // Keep (cycle, id) strictly sorted even if two arrivals quantize to
    // the same cycle — ids ascend, which validate() accepts.
    t.arrivals.push_back({i, arrival_cycle(t_seconds, freq_hz)});
  }
  t.validate();
  return t;
}

ArrivalTrace diurnal_trace(int num_requests, double base_rps,
                           double peak_rps, double period_s,
                           std::uint64_t seed, double freq_hz) {
  BFP_REQUIRE(num_requests >= 1, "diurnal_trace: needs >= 1 request");
  BFP_REQUIRE(base_rps >= 0.0, "diurnal_trace: base rate must be >= 0");
  BFP_REQUIRE(peak_rps > 0.0, "diurnal_trace: peak rate must be positive");
  BFP_REQUIRE(peak_rps >= base_rps,
              "diurnal_trace: peak rate must be >= base rate");
  BFP_REQUIRE(period_s > 0.0, "diurnal_trace: period must be positive");
  BFP_REQUIRE(freq_hz > 0.0, "diurnal_trace: frequency must be positive");

  ArrivalTrace t;
  t.total_requests = num_requests;
  t.seed = seed;
  t.freq_hz = freq_hz;
  t.offered_rps = 0.5 * (base_rps + peak_rps);

  // Thinning (Lewis–Shedler): candidates arrive as a homogeneous Poisson
  // process at the peak rate; a candidate at time s survives with
  // probability rate(s)/peak. Both draws come from the one seeded engine,
  // in a fixed order, so the accepted subsequence is reproducible.
  const double two_pi = 8.0 * std::atan(1.0);
  auto rate_at = [&](double s) {
    return base_rps +
           (peak_rps - base_rps) * 0.5 * (1.0 - std::cos(two_pi * s / period_s));
  };
  Rng rng(seed);
  double t_seconds = 0.0;
  t.arrivals.reserve(static_cast<std::size_t>(num_requests));
  int id = 0;
  while (id < num_requests) {
    const double u = rng.unit_double();
    t_seconds += -std::log1p(-u) / peak_rps;
    if (rng.unit_double() * peak_rps <= rate_at(t_seconds)) {
      t.arrivals.push_back({id, arrival_cycle(t_seconds, freq_hz), 0});
      ++id;
    }
  }
  t.validate();
  return t;
}

ArrivalTrace mmpp_trace(int num_requests, double low_rps, double high_rps,
                        double dwell_low_s, double dwell_high_s,
                        std::uint64_t seed, double freq_hz) {
  BFP_REQUIRE(num_requests >= 1, "mmpp_trace: needs >= 1 request");
  BFP_REQUIRE(low_rps > 0.0, "mmpp_trace: low rate must be positive");
  BFP_REQUIRE(high_rps >= low_rps,
              "mmpp_trace: high rate must be >= low rate");
  BFP_REQUIRE(dwell_low_s > 0.0 && dwell_high_s > 0.0,
              "mmpp_trace: dwell times must be positive");
  BFP_REQUIRE(freq_hz > 0.0, "mmpp_trace: frequency must be positive");
  BFP_REQUIRE(low_rps * dwell_low_s + high_rps * dwell_high_s >=
                  kMmppMinArrivalsPerCycle,
              "mmpp_trace: too few expected arrivals per low+high dwell "
              "cycle");

  ArrivalTrace t;
  t.total_requests = num_requests;
  t.seed = seed;
  t.freq_hz = freq_hz;
  t.offered_rps = (low_rps * dwell_low_s + high_rps * dwell_high_s) /
                  (dwell_low_s + dwell_high_s);

  const double rate[2] = {low_rps, high_rps};
  const double dwell[2] = {dwell_low_s, dwell_high_s};
  Rng rng(seed);
  auto exp_draw = [&](double mean) {
    return -std::log1p(-rng.unit_double()) * mean;
  };
  int state = 0;
  double t_seconds = 0.0;
  double state_end = exp_draw(dwell[0]);
  t.arrivals.reserve(static_cast<std::size_t>(num_requests));
  int id = 0;
  while (id < num_requests) {
    const double dt = exp_draw(1.0 / rate[state]);
    if (t_seconds + dt <= state_end) {
      t_seconds += dt;
      t.arrivals.push_back({id, arrival_cycle(t_seconds, freq_hz), 0});
      ++id;
    } else {
      // The draw crossed the dwell boundary: jump to the boundary, switch
      // state, and resample there (memorylessness makes this exact).
      t_seconds = state_end;
      state ^= 1;
      state_end = t_seconds + exp_draw(dwell[state]);
    }
  }
  t.validate();
  return t;
}

ArrivalTrace batch_trace(int num_requests, double freq_hz) {
  BFP_REQUIRE(num_requests >= 1, "batch_trace: needs >= 1 request");
  BFP_REQUIRE(freq_hz > 0.0, "batch_trace: frequency must be positive");
  ArrivalTrace t;
  t.total_requests = num_requests;
  t.freq_hz = freq_hz;
  t.arrivals.reserve(static_cast<std::size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) t.arrivals.push_back({i, 0});
  return t;
}

ArrivalTrace closed_loop_trace(int clients, int total_requests,
                               double think_ms, std::uint64_t seed,
                               double freq_hz) {
  BFP_REQUIRE(clients >= 1, "closed_loop_trace: needs >= 1 client");
  BFP_REQUIRE(total_requests >= clients,
              "closed_loop_trace: total requests must cover every client");
  BFP_REQUIRE(think_ms >= 0.0, "closed_loop_trace: negative think time");
  BFP_REQUIRE(freq_hz > 0.0, "closed_loop_trace: frequency must be positive");

  ArrivalTrace t;
  t.total_requests = total_requests;
  t.seed = seed;
  t.freq_hz = freq_hz;
  t.closed_loop = true;
  t.think_cycles =
      static_cast<std::uint64_t>(think_ms * 1e-3 * freq_hz);
  t.arrivals.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    // Clients start one cycle apart so the initial burst has a defined
    // order even under a (cycle, id) sort.
    t.arrivals.push_back({c, static_cast<std::uint64_t>(c)});
  }
  t.validate();
  return t;
}

}  // namespace bfpsim
