// Latency-percentile telemetry for the online serving subsystem.
//
// Per-request latency records, nearest-rank percentile summaries (the
// deterministic, interpolation-free definition: the p-th percentile of N
// sorted samples is element ceil(p/100 * N)), queue-depth and per-unit
// utilization series, and a machine-readable JSON rendering so the bench
// trajectory can be tracked run over run.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/counters.hpp"

namespace bfpsim {

/// Full life cycle of one completed request, in virtual cycles.
struct LatencyRecord {
  int id = 0;
  std::uint64_t arrival_cycle = 0;
  std::uint64_t dispatch_cycle = 0;
  std::uint64_t complete_cycle = 0;
  int unit = -1;        ///< unit the batch ran on
  int batch_size = 0;   ///< size of the batch it rode in
  bool slo_met = false;
  int tenant = 0;       ///< tenant tag (0 = the anonymous tenant)

  std::uint64_t queue_cycles() const { return dispatch_cycle - arrival_cycle; }
  std::uint64_t service_cycles() const {
    return complete_cycle - dispatch_cycle;
  }
  std::uint64_t total_cycles() const { return complete_cycle - arrival_cycle; }
};

/// Nearest-rank percentile summary of a latency population.
struct PercentileSummary {
  std::size_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
};

/// Summarize a population of cycle counts in linear time. The ranks are
/// selected in place (std::nth_element), so `cycles` comes back reordered;
/// the values equal those read off a full sort.
PercentileSummary summarize_latencies(std::span<std::uint64_t> cycles);

/// One queue-depth observation, taken after every arrival, dispatch and
/// executor failure, whether or not the depth moved.
struct QueueSample {
  std::uint64_t cycle = 0;
  std::size_t depth = 0;
};

/// Per-tenant slice of a serving run (fleet layer). Only populated when a
/// run actually has more than one tenant, so single-tenant reports render
/// byte-identically to the pre-fleet format.
struct TenantBreakdown {
  int tenant = 0;
  std::string name;           ///< tenant name ("tenant<k>" when unnamed)
  int tier = 0;               ///< priority tier, 0 = highest
  std::size_t completed = 0;
  std::size_t rejected = 0;   ///< rejected + shed, any cause
  std::size_t slo_violations = 0;
  PercentileSummary latency;  ///< arrival -> complete, this tenant only
};

/// Everything one serving run produced, ready to report.
struct ServeReport {
  std::vector<LatencyRecord> records;  ///< completed requests, id order
  std::vector<int> rejected_ids;       ///< rejected/shed, event order

  PercentileSummary latency;     ///< arrival -> complete
  PercentileSummary queue_wait;  ///< arrival -> dispatch
  PercentileSummary service;     ///< dispatch -> complete

  std::vector<QueueSample> queue_depth;  ///< time series
  std::size_t max_queue_depth = 0;

  /// Per-tenant latency/SLO slices, tenant-id order. Empty (the default,
  /// and always for single-tenant runs) adds nothing to the JSON.
  std::vector<TenantBreakdown> tenants;

  std::vector<std::uint64_t> unit_busy_cycles;  ///< per unit
  std::uint64_t makespan_cycles = 0;  ///< last completion time
  double utilization = 0.0;  ///< busy / provisioned replica-cycles

  double freq_hz = 0.0;
  double offered_rps = 0.0;    ///< open-loop nominal arrival rate (0 = n/a)
  double completed_rps = 0.0;  ///< completions per second of virtual time
  std::uint64_t slo_cycles = 0;
  std::size_t slo_violations = 0;

  Counters counters;

  double cycles_to_ms(std::uint64_t c) const {
    return freq_hz == 0.0 ? 0.0 : static_cast<double>(c) / freq_hz * 1e3;
  }

  /// Machine-readable JSON (stable key order, counters included).
  std::string to_json() const;
};

/// Assemble per-tenant breakdowns from a finished report. `tenant_of_id`
/// maps request id -> tenant (empty = everyone is tenant 0);
/// `num_tenants` fixes the row count so tenants with no surviving
/// requests still get a (count = 0) row. Rows come back in tenant-id
/// order; rejected ids outside [0, tenant_of_id.size()) count against
/// tenant 0.
std::vector<TenantBreakdown> tenant_breakdowns(
    const ServeReport& report, const std::vector<int>& tenant_of_id,
    int num_tenants);

}  // namespace bfpsim
