// Fleet provisioning against a target load (an extension of the paper's
// cost appendix: how many CPU servers vs FPGA cards does a given traffic
// level need, and at what hourly cost?). The provisioned FPGA fleet is
// served as a sched::PipelineBackend with one replica per card.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "common/units.hpp"

namespace microrec {

/// One device class in a provisioning exercise.
struct DeviceClass {
  double throughput_items_per_s = 0.0;
  double dollars_per_hour = 0.0;
};

struct FleetPlan {
  std::uint64_t devices = 0;
  double dollars_per_hour = 0.0;
  double capacity_items_per_s = 0.0;
  double utilization = 0.0;  ///< target / capacity
};

/// Devices needed to serve `target_qps` with `headroom` (e.g. 1.25 = plan
/// for 80% peak utilisation), and the resulting hourly cost. Returns
/// InvalidArgument on a zero-throughput device, non-positive target, or
/// headroom < 1 instead of dividing by zero.
StatusOr<FleetPlan> ProvisionFleet(double target_qps,
                                   const DeviceClass& device,
                                   double headroom = 1.25);

}  // namespace microrec
