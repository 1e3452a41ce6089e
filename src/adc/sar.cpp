#include "adc/sar.hpp"

#include "ams/bridge.hpp"
#include "analog/controlled.hpp"
#include "analog/passive.hpp"
#include "analog/sources.hpp"
#include "digital/stimulus.hpp"

#include <algorithm>
#include <cmath>

namespace gfi::adc {

// ---------------------------------------------------------------------------
// SarLogic

SarLogic::SarLogic(digital::Circuit& c, std::string name, digital::LogicSignal& clk,
                   digital::LogicSignal& start, digital::LogicSignal& cmp,
                   const digital::Bus& dacCode, const digital::Bus& result,
                   digital::LogicSignal& done, int bits, SimTime clkToQ)
    : digital::Component(std::move(name)), bits_(bits), dacCode_(dacCode), resultBus_(result),
      done_(&done), clkToQ_(clkToQ)
{
    digital::Process& p = c.process(this->name() + "/seq",
              [this, &clk, &start, &cmp] {
                  if (!digital::risingEdge(clk)) {
                      return;
                  }
                  if (!busy_) {
                      if (digital::toX01(start.value()) == digital::Logic::One) {
                          busy_ = true;
                          doneFlag_ = false;
                          bit_ = bits_ - 1;
                          code_ = 1ull << bit_;
                          drive();
                      }
                      return;
                  }
                  // Decide the current bit from the settled comparator value.
                  if (digital::toX01(cmp.value()) != digital::Logic::One) {
                      code_ &= ~(1ull << bit_); // vin below trial level: clear
                  }
                  if (bit_ > 0) {
                      --bit_;
                      code_ |= 1ull << bit_;
                  } else {
                      busy_ = false;
                      doneFlag_ = true;
                      result_ = code_;
                  }
                  drive();
              },
              {&clk});
    c.noteSequential(p, &clk);
    c.noteReads(p, {&start, &cmp});
    {
        std::vector<digital::SignalBase*> outs = digital::busSignals(dacCode);
        const std::vector<digital::SignalBase*> res = digital::busSignals(result);
        outs.insert(outs.end(), res.begin(), res.end());
        outs.push_back(&done);
        c.noteDrives(p, outs);
    }

    // Two hooks: the SAR trial register and the bit counter — both are real
    // SEU targets with very different failure signatures.
    c.instrumentation().add(digital::StateHook{
        this->name() + "/code", bits_, [this] { return code_; },
        [this](std::uint64_t v) {
            code_ = v & ((1ull << bits_) - 1);
            drive();
        },
        [this](int bit) {
            code_ ^= 1ull << bit;
            drive();
        }});
    c.instrumentation().add(digital::StateHook{
        this->name() + "/bit", 4,
        [this] { return static_cast<std::uint64_t>(bit_); },
        [this](std::uint64_t v) { bit_ = static_cast<int>(v) % bits_; },
        [this](int b) { bit_ = (bit_ ^ (1 << b)) % bits_; }});
}

void SarLogic::drive()
{
    dacCode_.scheduleUint(code_, clkToQ_);
    resultBus_.scheduleUint(result_, clkToQ_);
    done_->scheduleInertial(digital::fromBool(doneFlag_), clkToQ_);
}

// ---------------------------------------------------------------------------
// SarAdcTestbench

SarAdcTestbench::SarAdcTestbench(SarConfig config) : config_(config)
{
    auto& dig = sim().digital();
    auto& ana = sim().analog();
    const int bits = config_.bits;

    // --- analog input: staircase over the configured levels --------------------
    const analog::NodeId vin = ana.node("adc/vin");
    auto& vinSrc = ana.add<analog::VoltageSource>(ana, "adc/vin_src", vin, analog::kGround,
                                                  config_.inputLevels.front());
    {
        analog::TimeFunction fn;
        const double hold = toSeconds(config_.levelHold);
        const std::vector<double> levels = config_.inputLevels;
        fn.value = [levels, hold](double t) {
            const auto idx = std::min<std::size_t>(static_cast<std::size_t>(t / hold),
                                                   levels.size() - 1);
            return levels[idx];
        };
        for (std::size_t k = 1; k < levels.size(); ++k) {
            fn.breakpoints.push_back(hold * static_cast<double>(k));
        }
        vinSrc.setFunction(std::move(fn));
    }

    // --- DAC: digital code -> voltage, with an RC settling network --------------
    digital::Bus dacCode = dig.bus("adc/dac_code", bits, digital::Logic::Zero);
    const analog::NodeId dacRaw = ana.node("adc/dac_raw");
    const analog::NodeId dacOut = ana.node("adc/dac_out");
    const double vref = config_.vref;
    const double scale = vref / static_cast<double>(1ull << bits);
    std::vector<digital::LogicSignal*> codeBits(dacCode.bits().begin(), dacCode.bits().end());
    make<ams::DigitalVoltageDriver>(
        sim(), "adc/dac", codeBits, dacRaw,
        [scale](const std::vector<digital::Logic>& v) {
            std::uint64_t code = 0;
            for (std::size_t i = 0; i < v.size(); ++i) {
                if (digital::toX01(v[i]) == digital::Logic::One) {
                    code |= 1ull << i;
                }
            }
            return scale * static_cast<double>(code);
        });
    ana.add<analog::Resistor>(ana, "adc/dac_r", dacRaw, dacOut, config_.dacSettleR);
    ana.add<analog::Capacitor>(ana, "adc/dac_c", dacOut, analog::kGround, config_.dacSettleC);

    // --- comparator: vin vs settled DAC level -----------------------------------
    const analog::NodeId diff = ana.node("adc/cmp_diff");
    ana.add<analog::Vcvs>(ana, "adc/cmp_vcvs", diff, analog::kGround, vin, dacOut, 1.0);
    auto& cmp = dig.logicSignal("adc/cmp", digital::Logic::Zero);
    make<ams::AtoDBridge>(sim(), "adc/cmp_bridge", diff, cmp, 0.0, /*hysteresis=*/0.002);

    // --- clocking and control -----------------------------------------------------
    auto& clk = dig.logicSignal("adc/clk", digital::Logic::Zero);
    dig.add<digital::ClockGen>(dig, "adc/clkgen", clk, fromSeconds(1.0 / config_.clockHz));

    // Start strobe: one conversion shortly after each staircase level begins.
    // The strobes live in a StimulusSchedule (not raw actions) so snapshots
    // know which ones have fired and restore can re-arm the rest.
    auto& start = dig.logicSignal("adc/start", digital::Logic::Zero);
    dig.noteExternalDriver(start); // forced by the scheduled strobes below
    const SimTime clkPeriod = fromSeconds(1.0 / config_.clockHz);
    auto& strobes = dig.add<digital::StimulusSchedule>(dig, "adc/start_strobes");
    for (std::size_t k = 0; k < config_.inputLevels.size(); ++k) {
        const SimTime t0 = static_cast<SimTime>(k) * config_.levelHold + clkPeriod;
        strobes.at(t0, start, digital::Logic::One);
        strobes.at(t0 + 2 * clkPeriod, start, digital::Logic::Zero);
    }

    const digital::Bus result = dig.bus("adc/result", bits, digital::Logic::Zero);
    auto& done = dig.logicSignal("adc/done", digital::Logic::Zero);
    dig.add<SarLogic>(dig, "adc/sar", clk, start, cmp, dacCode, result, done, bits);

    // --- instrumentation -------------------------------------------------------------
    auto& sabVin = ana.add<fault::CurrentSaboteur>(ana, "sab/vin", vin);
    auto& sabDac = ana.add<fault::CurrentSaboteur>(ana, "sab/dac_out", dacOut);
    addCurrentSaboteur(sabVin);
    addCurrentSaboteur(sabDac);

    // --- observation -------------------------------------------------------------------
    for (int b = 0; b < bits; ++b) {
        observeDigital("adc/result[" + std::to_string(b) + "]");
    }
    observeDigital("adc/done");
    observeAnalog("adc/dac_out");
    observeAllState();
    setDuration(static_cast<SimTime>(config_.inputLevels.size()) * config_.levelHold);
}

int SarAdcTestbench::idealCode(double vinVolts) const
{
    // The SAR converges to the largest code whose DAC level is below vin.
    const double lsb = config_.vref / static_cast<double>(1ull << config_.bits);
    const int code = static_cast<int>(std::floor(vinVolts / lsb));
    return std::clamp(code, 0, (1 << config_.bits) - 1);
}

} // namespace gfi::adc
