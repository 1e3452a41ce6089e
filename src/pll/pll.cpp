#include "pll/pll.hpp"

#include "ams/bridge.hpp"
#include "analog/passive.hpp"
#include "pll/pfd_structural.hpp"
#include "trace/metrics.hpp"

#include <cmath>

namespace gfi::pll {

PllTestbench::PllTestbench(PllConfig config) : config_(config)
{
    auto& dig = sim().digital();
    auto& ana = sim().analog();

    // --- digital signals ------------------------------------------------------
    auto& ref = dig.logicSignal(names::kRef, digital::Logic::Zero);
    auto& fb = dig.logicSignal(names::kFb, digital::Logic::Zero);
    auto& up = dig.logicSignal(names::kUp, digital::Logic::Zero);
    auto& down = dig.logicSignal(names::kDown, digital::Logic::Zero);
    auto& fout = dig.logicSignal(names::kFout, digital::Logic::Zero);

    // --- reference clock and PFD ----------------------------------------------
    const SimTime refPeriod = fromSeconds(1.0 / config_.refFrequency);
    dig.add<digital::ClockGen>(dig, "pll/refgen", ref, refPeriod, 0.5,
                               /*start=*/refPeriod / 4);
    if (config_.structuralPfd) {
        dig.add<StructuralPfd>(dig, "pll/pfd", ref, fb, up, down);
    } else {
        pfd_ = &dig.add<PhaseFreqDetector>(dig, "pll/pfd", ref, fb, up, down);
    }

    // --- analog nodes ------------------------------------------------------------
    const analog::NodeId vctrl = ana.node(names::kVctrl);
    const analog::NodeId vcoOut = ana.node(names::kVcoOut);
    const analog::NodeId filtMid = ana.node("pll/filt_mid");

    // --- charge pump: I = Icp * (UP - DOWN) into the filter input -----------------
    const double icp = config_.icp;
    make<ams::DigitalCurrentDriver>(
        sim(), "pll/cp", std::vector<digital::LogicSignal*>{&up, &down}, vctrl,
        [icp](const std::vector<digital::Logic>& v) {
            const double u = digital::toX01(v[0]) == digital::Logic::One ? 1.0 : 0.0;
            const double d = digital::toX01(v[1]) == digital::Logic::One ? 1.0 : 0.0;
            return icp * (u - d);
        });

    // --- loop filter: R1 + C1 series to ground, C2 shunt --------------------------
    auto& r1 = ana.add<analog::Resistor>(ana, "pll/r1", vctrl, filtMid, config_.r1);
    auto& c1 = ana.add<analog::Capacitor>(ana, "pll/c1", filtMid, analog::kGround, config_.c1);
    auto& c2 = ana.add<analog::Capacitor>(ana, "pll/c2", vctrl, analog::kGround, config_.c2);

    // --- VCO -----------------------------------------------------------------------
    vco_ = &ana.add<BehavioralVco>(ana, "pll/vco", vctrl, vcoOut, config_.f0, config_.kvco,
                                   config_.vcoOffset, config_.vcoAmplitude);

    // --- digitizer (comparator, threshold 2.5 V) ------------------------------------
    make<ams::AtoDBridge>(sim(), "pll/digitizer", vcoOut, fout, config_.digitizerThreshold,
                          /*hysteresis=*/0.0);

    // --- feedback divider -------------------------------------------------------------
    dig.add<digital::ClockDivider>(dig, "pll/divider", fout, fb, config_.dividerN);

    // --- instrumentation: saboteurs on the analog structural nodes ----------------
    addCurrentSaboteur(ana.add<fault::CurrentSaboteur>(ana, names::kSabFilter, vctrl));
    addCurrentSaboteur(ana.add<fault::CurrentSaboteur>(ana, names::kSabVcoOut, vcoOut));

    // --- parametric fault targets ----------------------------------------------------
    addParameter("pll/r1", [&r1, nominal = config_.r1](double factor) {
        r1.setResistance(nominal * factor);
    });
    addParameter("pll/c1", [&c1, nominal = config_.c1](double factor) {
        c1.setCapacitance(nominal * factor);
    });
    addParameter("pll/c2", [&c2, nominal = config_.c2](double factor) {
        c2.setCapacitance(nominal * factor);
    });
    addParameter("pll/kvco", [this, nominal = config_.kvco](double factor) {
        vco_->setKvco(nominal * factor);
    });

    // --- observation -------------------------------------------------------------------
    observeDigital(names::kFout);
    observeAnalog(names::kVctrl);
    recorder().recordDigital(names::kUp);
    recorder().recordDigital(names::kDown);
    recorder().recordDigital(names::kFb);
    observeAllState();
    setDuration(config_.duration);
}

SimTime lockTime(const trace::DigitalTrace& fout, SimTime nominalPeriod, double relTol,
                 int consecutive)
{
    const auto periods = trace::extractPeriods(fout);
    int streak = 0;
    for (const auto& p : periods) {
        const double rel = std::fabs(static_cast<double>(p.period - nominalPeriod)) /
                           static_cast<double>(nominalPeriod);
        if (rel <= relTol) {
            if (++streak >= consecutive) {
                return p.edge - (consecutive - 1) * nominalPeriod;
            }
        } else {
            streak = 0;
        }
    }
    return -1;
}

} // namespace gfi::pll
