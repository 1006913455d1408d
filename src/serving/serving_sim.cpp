#include "serving/serving_sim.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/status.hpp"
#include "obs/quantiles.hpp"

namespace microrec {

std::vector<Nanoseconds> PoissonArrivals(double rate_qps,
                                         std::uint64_t num_queries,
                                         std::uint64_t seed) {
  MICROREC_CHECK(rate_qps > 0.0);
  Rng rng(seed);
  std::vector<Nanoseconds> arrivals;
  arrivals.reserve(num_queries);
  const double mean_gap_ns = kNanosPerSecond / rate_qps;
  Nanoseconds t = 0.0;
  for (std::uint64_t i = 0; i < num_queries; ++i) {
    // Exponential inter-arrival via inverse CDF; clamp u away from 0.
    const double u = std::max(rng.NextDouble(), 1e-12);
    t += -std::log(u) * mean_gap_ns;
    arrivals.push_back(t);
  }
  return arrivals;
}

std::string ServingReport::ToString() const {
  std::ostringstream os;
  os << queries << " queries @" << offered_qps << " qps offered, "
     << achieved_qps << " achieved | latency p50 " << FormatNanos(p50)
     << " p95 " << FormatNanos(p95) << " p99 " << FormatNanos(p99) << " max "
     << FormatNanos(max) << " | SLA violations "
     << 100.0 * sla_violation_rate << "%";
  return os.str();
}

ServingReport SummarizeServing(const std::vector<Nanoseconds>& arrivals,
                               const std::vector<Nanoseconds>& completions,
                               Nanoseconds sla_ns) {
  MICROREC_CHECK(arrivals.size() == completions.size());
  MICROREC_CHECK(!arrivals.empty());
  std::vector<double> latencies;
  latencies.reserve(arrivals.size());
  std::uint64_t violations = 0;
  Nanoseconds makespan_end = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Nanoseconds latency = completions[i] - arrivals[i];
    latencies.push_back(latency);
    if (latency > sla_ns) ++violations;
    makespan_end = std::max(makespan_end, completions[i]);
  }
  ServingReport report;
  report.queries = arrivals.size();
  const Nanoseconds span = arrivals.back() - arrivals.front();
  report.offered_qps =
      span > 0.0 ? static_cast<double>(arrivals.size() - 1) / ToSeconds(span)
                 : 0.0;
  report.achieved_qps =
      makespan_end > 0.0
          ? static_cast<double>(arrivals.size()) / ToSeconds(makespan_end)
          : 0.0;
  // Shared quantile helper, same interpolation (and, summing the sorted
  // samples, the same floating-point mean) PercentileTracker produced here.
  std::sort(latencies.begin(), latencies.end());
  report.p50 = obs::SortedQuantile(latencies, 0.50);
  report.p95 = obs::SortedQuantile(latencies, 0.95);
  report.p99 = obs::SortedQuantile(latencies, 0.99);
  report.max = latencies.back();
  double sum = 0.0;
  for (const double latency : latencies) sum += latency;
  report.mean = sum / static_cast<double>(latencies.size());
  report.sla_violation_rate =
      static_cast<double>(violations) / static_cast<double>(arrivals.size());
  return report;
}

}  // namespace microrec
