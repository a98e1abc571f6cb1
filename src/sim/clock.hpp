// The modelled fabric clock. Cycle counts are converted to wall-clock
// time at this frequency (300 MHz on the paper's Alveo U280 build) so
// benches can report latency and throughput in the paper's units.
#pragma once

namespace bfpsim {

/// Default fabric frequency of the paper's implementation.
inline constexpr double kDefaultFreqHz = 300.0e6;

}  // namespace bfpsim
