#pragma once
// Analog op-amp design-under-test: an inverting amplifier built around the
// behavioral op-amp macro.
//
// This covers the analog-only corner of the paper's flow: SET current pulses
// on the op-amp's internal structural nodes (the saboteur approach) and
// parametric faults on its behavioral parameters (reference [10]'s approach)
// can both be injected and classified against the same golden run.

#include "analog/opamp.hpp"
#include "core/testbench.hpp"

namespace gfi::duts {

/// Inverting-amplifier parameters.
struct OpAmpDutConfig {
    double r1 = 10e3;        ///< input resistor (ohm)
    double r2 = 20e3;        ///< feedback resistor (gain = -r2/r1)
    double inputHz = 10e3;   ///< test sine frequency
    double inputAmplitude = 0.5; ///< test sine amplitude (V)
    analog::OpAmpConfig opamp{1e6, 1e5, 1e3, 100.0, 0.0, 2.5};
    SimTime duration = 300 * kMicrosecond; ///< three input periods
};

/// The elaborated, instrumented inverting-amplifier experiment.
class OpAmpDutTestbench : public fault::Testbench {
public:
    explicit OpAmpDutTestbench(OpAmpDutConfig config = {});

    /// Configuration used.
    [[nodiscard]] const OpAmpDutConfig& config() const noexcept { return config_; }

private:
    OpAmpDutConfig config_;
    std::unique_ptr<analog::OpAmp> opamp_;
};

} // namespace gfi::duts
