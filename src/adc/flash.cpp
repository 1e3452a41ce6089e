#include "adc/flash.hpp"

#include "ams/bridge.hpp"
#include "analog/controlled.hpp"
#include "analog/passive.hpp"
#include "analog/sources.hpp"

namespace gfi::adc {

FlashAdcTestbench::FlashAdcTestbench(FlashConfig config) : config_(config)
{
    auto& dig = sim().digital();
    auto& ana = sim().analog();
    const int levels = (1 << config_.bits) - 1; // comparator count

    // --- analog input -----------------------------------------------------
    const analog::NodeId vin = ana.node("adc/vin");
    ana.add<analog::SineVoltage>(ana, "adc/vin_src", vin, analog::kGround,
                                 config_.inputOffset, config_.inputAmplitude,
                                 config_.inputHz);

    // --- reference ladder ---------------------------------------------------
    const analog::NodeId vref = ana.node("adc/vref");
    ana.add<analog::VoltageSource>(ana, "adc/vref_src", vref, analog::kGround, config_.vref);
    // levels+1 equal resistors create taps at k/(levels+1) * vref.
    const double rUnit = 1e3;
    analog::NodeId below = analog::kGround;
    std::vector<analog::NodeId> taps;
    for (int k = 1; k <= levels; ++k) {
        const analog::NodeId tap = ana.node("adc/tap" + std::to_string(k));
        ana.add<analog::Resistor>(ana, "adc/rl" + std::to_string(k), tap, below, rUnit);
        taps.push_back(tap);
        below = tap;
    }
    ana.add<analog::Resistor>(ana, "adc/rl_top", vref, below, rUnit);

    // --- comparators: thermometer code -------------------------------------
    // Each comparator compares vin against its tap via a unity differential
    // VCVS and a zero-threshold digitizer bridge.
    std::vector<digital::LogicSignal*> thermo;
    for (int k = 0; k < levels; ++k) {
        const analog::NodeId diff = ana.node("adc/diff" + std::to_string(k + 1));
        ana.add<analog::Vcvs>(ana, "adc/cmp_diff" + std::to_string(k + 1), diff,
                              analog::kGround, vin, taps[static_cast<std::size_t>(k)], 1.0);
        auto& t = dig.logicSignal("adc/t" + std::to_string(k + 1), digital::Logic::Zero);
        make<ams::AtoDBridge>(sim(), "adc/cmp" + std::to_string(k + 1), diff, t, 0.0,
                              /*hysteresis=*/0.01);
        thermo.push_back(&t);
    }

    // --- thermometer -> binary encoder (combinational) -----------------------
    digital::Bus rawCode = dig.bus("adc/raw", config_.bits, digital::Logic::Zero);
    std::vector<digital::SignalBase*> sens(thermo.begin(), thermo.end());
    digital::Process& enc = dig.process("adc/encoder",
                [thermo, rawCode] {
                    int ones = 0;
                    for (const digital::LogicSignal* t : thermo) {
                        if (digital::toX01(t->value()) == digital::Logic::One) {
                            ++ones;
                        }
                    }
                    rawCode.scheduleUint(static_cast<std::uint64_t>(ones),
                                         100 * kPicosecond);
                },
                sens);
    dig.noteDrives(enc, digital::busSignals(rawCode));

    // --- sampling clock and output register ----------------------------------
    auto& clk = dig.logicSignal("adc/clk", digital::Logic::Zero);
    dig.add<digital::ClockGen>(dig, "adc/clkgen", clk,
                               fromSeconds(1.0 / config_.clockHz));
    const digital::Bus code = dig.bus("adc/code", config_.bits, digital::Logic::Zero);
    dig.add<digital::Register>(dig, "adc/code_reg", clk, rawCode, code);

    // --- instrumentation --------------------------------------------------------
    for (int k = 0; k < levels; ++k) {
        const std::string name = "sab/tap" + std::to_string(k + 1);
        auto& sab =
            ana.add<fault::CurrentSaboteur>(ana, name, taps[static_cast<std::size_t>(k)]);
        addCurrentSaboteur(sab);
        tapSaboteurs_.push_back(name);
    }
    auto& sabVin = ana.add<fault::CurrentSaboteur>(ana, "sab/vin", vin);
    addCurrentSaboteur(sabVin);

    // --- observation -------------------------------------------------------------
    for (int b = 0; b < config_.bits; ++b) {
        observeDigital("adc/code[" + std::to_string(b) + "]");
    }
    observeAnalog("adc/vin");
    observeAllState();
    setDuration(config_.duration);
}

} // namespace gfi::adc
