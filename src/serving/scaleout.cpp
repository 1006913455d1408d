#include "serving/scaleout.hpp"

#include <algorithm>
#include <cmath>

namespace microrec {

StatusOr<FleetPlan> ProvisionFleet(double target_qps,
                                   const DeviceClass& device,
                                   double headroom) {
  if (target_qps <= 0.0) {
    return Status::InvalidArgument("provision fleet: target_qps must be > 0");
  }
  if (device.throughput_items_per_s <= 0.0) {
    return Status::InvalidArgument(
        "provision fleet: device throughput must be > 0 items/s");
  }
  if (headroom < 1.0) {
    return Status::InvalidArgument(
        "provision fleet: headroom below 1.0 plans for overload");
  }
  FleetPlan plan;
  plan.devices = static_cast<std::uint64_t>(std::ceil(
      target_qps * headroom / device.throughput_items_per_s));
  plan.devices = std::max<std::uint64_t>(plan.devices, 1);
  plan.capacity_items_per_s =
      static_cast<double>(plan.devices) * device.throughput_items_per_s;
  plan.dollars_per_hour =
      static_cast<double>(plan.devices) * device.dollars_per_hour;
  plan.utilization = target_qps / plan.capacity_items_per_s;
  return plan;
}

}  // namespace microrec
