#pragma once
// Flash ADC case study.
//
// The paper's conclusion names analog-to-digital converters as the natural
// next target for the unified flow ("the interest of the approach could be
// still higher when analyzing ... e.g. analog to digital converters"), and
// its reference [9] (Singh & Koren) analyzed alpha-particle sensitivity of
// ADCs at transistor level. This module provides a behavioral flash ADC:
// resistor ladder, differential comparators (A->D bridges), thermometer-to-
// binary encoder and a sampled output register — instrumented with current
// saboteurs on every ladder tap (analog part) and mutant hooks in the output
// register (digital part), so campaigns can compare their sensitivities.

#include "core/testbench.hpp"
#include "digital/sequential.hpp"

namespace gfi::adc {

/// Flash ADC parameters.
struct FlashConfig {
    int bits = 3;            ///< resolution (2^bits - 1 comparators)
    double vref = 4.0;       ///< full-scale reference (V)
    double clockHz = 5e6;    ///< sampling clock
    double inputHz = 100e3;  ///< test sine frequency
    double inputAmplitude = 1.9; ///< test sine amplitude (V)
    double inputOffset = 2.0;    ///< test sine offset (V)
    SimTime duration = 20 * kMicrosecond;
};

/// The elaborated, instrumented flash-ADC experiment.
class FlashAdcTestbench : public fault::Testbench {
public:
    explicit FlashAdcTestbench(FlashConfig config = {});

    /// Configuration used.
    [[nodiscard]] const FlashConfig& config() const noexcept { return config_; }

    /// Names of the ladder-tap saboteurs, LSB-side first.
    [[nodiscard]] const std::vector<std::string>& tapSaboteurs() const noexcept
    {
        return tapSaboteurs_;
    }

private:
    FlashConfig config_;
    std::vector<std::string> tapSaboteurs_;
};

} // namespace gfi::adc
