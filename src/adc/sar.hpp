#pragma once
// Successive-approximation (SAR) ADC case study.
//
// A mixed-signal block in the truest sense: a digital SAR controller, a
// behavioral DAC (digital-to-voltage bridge with an RC settling network) and
// an analog comparator close a loop across both domains. Faults can be
// injected in the SAR register (digital mutant), on the DAC settling node or
// the input (analog saboteurs) — the paper's unified flow in one component.

#include "core/testbench.hpp"
#include "digital/sequential.hpp"
#include "snapshot/snapshot.hpp"

namespace gfi::adc {

/// Digital SAR controller: one bit decided per clock.
class SarLogic : public digital::Component, public snapshot::Snapshottable {
public:
    /// @param start    begins a conversion at the next rising clock edge.
    /// @param cmp      comparator input (1 when vin > DAC level).
    /// @param dacCode  trial-code bus driving the DAC.
    /// @param result   final conversion result bus.
    /// @param done     high once the conversion has completed.
    SarLogic(digital::Circuit& c, std::string name, digital::LogicSignal& clk,
             digital::LogicSignal& start, digital::LogicSignal& cmp,
             const digital::Bus& dacCode, const digital::Bus& result,
             digital::LogicSignal& done, int bits, SimTime clkToQ = 200 * kPicosecond);

    /// True while converting.
    [[nodiscard]] bool busy() const noexcept { return busy_; }

    void captureState(snapshot::Writer& w) const override
    {
        w.u64(code_);
        w.u64(result_);
        w.u64(static_cast<std::uint64_t>(bit_));
        w.boolean(busy_);
        w.boolean(doneFlag_);
    }

    void restoreState(snapshot::Reader& r) override
    {
        code_ = r.u64();
        result_ = r.u64();
        bit_ = static_cast<int>(r.u64());
        busy_ = r.boolean();
        doneFlag_ = r.boolean();
    }

private:
    void drive();

    std::uint64_t code_ = 0;
    std::uint64_t result_ = 0;
    int bit_ = 0;
    bool busy_ = false;
    bool doneFlag_ = false;
    int bits_;
    digital::Bus dacCode_;
    digital::Bus resultBus_;
    digital::LogicSignal* done_;
    SimTime clkToQ_;
};

/// SAR ADC parameters.
struct SarConfig {
    int bits = 8;            ///< resolution
    double vref = 4.0;       ///< DAC full scale (V)
    double clockHz = 2e6;    ///< conversion clock
    double dacSettleR = 1e3; ///< DAC output RC: resistance (ohm)
    double dacSettleC = 10e-12; ///< DAC output RC: capacitance (F)
    std::vector<double> inputLevels{0.5, 1.7, 2.9, 3.6}; ///< staircase test input (V)
    SimTime levelHold = 10 * kMicrosecond; ///< time per staircase level
};

/// The elaborated, instrumented SAR-ADC experiment. Runs one conversion per
/// staircase level and exposes the result bus and done strobe.
class SarAdcTestbench : public fault::Testbench {
public:
    explicit SarAdcTestbench(SarConfig config = {});

    /// Configuration used.
    [[nodiscard]] const SarConfig& config() const noexcept { return config_; }

    /// Expected ideal code for an input voltage.
    [[nodiscard]] int idealCode(double vin) const;

private:
    SarConfig config_;
};

} // namespace gfi::adc
