#ifndef ROBOPT_OBS_BUILD_INFO_H_
#define ROBOPT_OBS_BUILD_INFO_H_

#include <string_view>

namespace robopt {

class MetricsRegistry;

/// The build/version string baked into this binary (set via the
/// ROBOPT_VERSION compile definition; "unknown" otherwise).
const char* BuildVersion();

/// True when the obs instrumentation sites were compiled out
/// (-DROBOPT_NO_OBS).
bool ObsCompiledOut();

/// Seconds since this process loaded (static-init epoch, steady clock).
double ProcessUptimeSeconds();

/// Sets the fleet-dashboard process gauges into `registry`:
///   robopt_build_info{version="...",lane="...",no_obs="0|1"} 1
///   robopt_uptime_seconds <seconds>
/// `simd_lane` names the vector instruction set the build targeted (the
/// caller reads it from ml/simd_dispatch.h; obs stays lane-agnostic). Label
/// values are escaped per the Prometheus exposition format.
void ExportBuildInfo(MetricsRegistry* registry, std::string_view simd_lane);

}  // namespace robopt

#endif  // ROBOPT_OBS_BUILD_INFO_H_
