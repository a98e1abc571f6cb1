#include "serving/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/trace.hpp"

namespace bfpsim {

namespace {

std::size_t nearest_rank(std::size_t n, double pct) {
  // ceil(pct/100 * N), 1-indexed, clamped to [1, N] on both sides (the
  // ceil can round past N, and pct <= 0 would give rank 0).
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return rank;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

PercentileSummary summarize_latencies(std::span<std::uint64_t> cycles) {
  PercentileSummary s;
  s.count = cycles.size();
  // An empty sample has no percentile: report zeros.
  if (cycles.empty()) return s;
  std::uint64_t sum = 0;
  for (const std::uint64_t c : cycles) sum += c;
  s.mean = static_cast<double>(sum) / static_cast<double>(cycles.size());
  // Ranks ascend, so each selection searches only the suffix the previous
  // one left: everything before it is already no larger. An equal rank
  // selects the suffix's first element again.
  auto first = cycles.begin();
  auto select = [&](double pct) {
    const auto nth =
        cycles.begin() +
        static_cast<std::ptrdiff_t>(nearest_rank(cycles.size(), pct) - 1);
    std::nth_element(first, nth, cycles.end());
    first = nth;
    return *nth;
  };
  s.p50 = select(50.0);
  s.p95 = select(95.0);
  s.p99 = select(99.0);
  s.max = *std::max_element(first, cycles.end());
  return s;
}

namespace {

void json_summary(std::ostringstream& os, const char* key,
                  const PercentileSummary& s, const ServeReport& r) {
  os << "\"" << key << "\":{"
     << "\"count\":" << s.count << ","
     << "\"p50_cycles\":" << s.p50 << ","
     << "\"p95_cycles\":" << s.p95 << ","
     << "\"p99_cycles\":" << s.p99 << ","
     << "\"max_cycles\":" << s.max << ","
     << "\"mean_cycles\":" << fmt(s.mean) << ","
     << "\"p50_ms\":" << fmt(r.cycles_to_ms(s.p50)) << ","
     << "\"p95_ms\":" << fmt(r.cycles_to_ms(s.p95)) << ","
     << "\"p99_ms\":" << fmt(r.cycles_to_ms(s.p99)) << "}";
}

}  // namespace

std::string ServeReport::to_json() const {
  std::ostringstream os;
  os << "{";
  os << "\"completed\":" << records.size() << ",";
  os << "\"rejected\":" << rejected_ids.size() << ",";
  json_summary(os, "latency", latency, *this);
  os << ",";
  json_summary(os, "queue_wait", queue_wait, *this);
  os << ",";
  json_summary(os, "service", service, *this);
  os << ",";
  os << "\"max_queue_depth\":" << max_queue_depth << ",";
  os << "\"makespan_cycles\":" << makespan_cycles << ",";
  os << "\"utilization\":" << fmt(utilization) << ",";
  os << "\"freq_hz\":" << fmt(freq_hz) << ",";
  os << "\"offered_rps\":" << fmt(offered_rps) << ",";
  os << "\"completed_rps\":" << fmt(completed_rps) << ",";
  os << "\"slo_cycles\":" << slo_cycles << ",";
  os << "\"slo_violations\":" << slo_violations << ",";
  os << "\"unit_busy_cycles\":[";
  for (std::size_t u = 0; u < unit_busy_cycles.size(); ++u) {
    if (u != 0) os << ",";
    os << unit_busy_cycles[u];
  }
  os << "],";
  os << "\"queue_depth_samples\":" << queue_depth.size() << ",";
  if (!tenants.empty()) {
    // Omitted entirely for single-tenant runs, so the pre-fleet report
    // format stays byte-identical.
    os << "\"tenants\":[";
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const TenantBreakdown& t = tenants[i];
      if (i != 0) os << ",";
      os << "{\"tenant\":" << t.tenant << ","
         << "\"name\":\"" << json_escape(t.name) << "\","
         << "\"tier\":" << t.tier << ","
         << "\"completed\":" << t.completed << ","
         << "\"rejected\":" << t.rejected << ","
         << "\"slo_violations\":" << t.slo_violations << ",";
      json_summary(os, "latency", t.latency, *this);
      os << "}";
    }
    os << "],";
  }
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters.snapshot()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << value;
  }
  os << "}}";
  return os.str();
}

std::vector<TenantBreakdown> tenant_breakdowns(
    const ServeReport& report, const std::vector<int>& tenant_of_id,
    int num_tenants) {
  if (num_tenants < 1) num_tenants = 1;
  auto tenant_of = [&](int id) {
    const auto uid = static_cast<std::size_t>(id);
    if (id < 0 || uid >= tenant_of_id.size()) return 0;
    const int t = tenant_of_id[uid];
    return (t >= 0 && t < num_tenants) ? t : 0;
  };
  std::vector<TenantBreakdown> out(static_cast<std::size_t>(num_tenants));
  for (int k = 0; k < num_tenants; ++k) {
    out[static_cast<std::size_t>(k)].tenant = k;
    out[static_cast<std::size_t>(k)].name = "tenant" + std::to_string(k);
  }
  for (const LatencyRecord& r : report.records) {
    auto& row = out[static_cast<std::size_t>(tenant_of(r.id))];
    ++row.completed;
    if (!r.slo_met) ++row.slo_violations;
  }
  for (const int id : report.rejected_ids) {
    ++out[static_cast<std::size_t>(tenant_of(id))].rejected;
  }
  // Each tenant's totals fill one contiguous slice of a single buffer:
  // offsets from the counts, then the totals in record order.
  std::vector<std::size_t> next(out.size());
  for (std::size_t k = 1; k < out.size(); ++k) {
    next[k] = next[k - 1] + out[k - 1].completed;
  }
  std::vector<std::uint64_t> totals(report.records.size());
  for (const LatencyRecord& r : report.records) {
    totals[next[static_cast<std::size_t>(tenant_of(r.id))]++] =
        r.total_cycles();
  }
  std::span<std::uint64_t> rest(totals);
  for (TenantBreakdown& row : out) {
    row.latency = summarize_latencies(rest.first(row.completed));
    rest = rest.subspan(row.completed);
  }
  return out;
}

}  // namespace bfpsim
