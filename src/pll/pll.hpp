#pragma once
// The complete PLL case study of the paper (Section 5, Figure 5):
//
//   F_in (500 kHz) -> Sequential PFD -> Charge Pump -> Low-pass Filter ->
//   Analog VCO -> Digitizer (comparator, threshold 2.5 V) -> F_out (50 MHz)
//                                 ^-- Divider (/100) feeding back to the PFD
//
// PllTestbench wires the whole loop into a fault::Testbench: instrumented
// (current saboteurs on the analog structural nodes, mutant hooks in every
// digital state element, parametric setters on the filter/VCO), observed
// (F_out digital trace, VCO control voltage waveform) and ready for campaigns.

#include "core/testbench.hpp"
#include "digital/sequential.hpp"
#include "pll/pfd.hpp"
#include "pll/vco.hpp"

namespace gfi::pll {

/// Design parameters of the case-study PLL.
struct PllConfig {
    double refFrequency = 500e3; ///< input reference (Hz) — paper: 500 kHz
    int dividerN = 100;          ///< feedback divider — paper: 50 MHz / 500 kHz
    double f0 = 30e6;            ///< VCO free-running frequency (Hz)
    double kvco = 20e6;          ///< VCO gain (Hz/V) -> lock at Vctrl = 1 V
    double icp = 100e-6;         ///< charge-pump current (A)
    double r1 = 8.2e3;           ///< loop-filter series resistor (ohm)
    double c1 = 3.3e-9;          ///< loop-filter series capacitor (F)
    double c2 = 150e-12;         ///< loop-filter shunt capacitor (F)
    double vcoOffset = 2.5;      ///< VCO output DC level (V)
    double vcoAmplitude = 2.5;   ///< VCO output amplitude (V)
    double digitizerThreshold = 2.5; ///< paper: comparator threshold 2.5 V
    SimTime duration = 250 * kMicrosecond; ///< default observation window

    /// false: behavioral PFD (paper's level); true: gate-level structural PFD
    /// (the "lower level description" of the paper's planned comparison).
    bool structuralPfd = false;

    /// Nominal output period once locked.
    [[nodiscard]] SimTime nominalOutputPeriod() const
    {
        return fromSeconds(1.0 / (refFrequency * dividerN));
    }
};

/// Signal / node names exposed by PllTestbench.
namespace names {
inline constexpr const char* kRef = "pll/ref";          ///< digital reference input
inline constexpr const char* kFb = "pll/fb";            ///< divided feedback clock
inline constexpr const char* kUp = "pll/up";            ///< PFD UP output
inline constexpr const char* kDown = "pll/down";        ///< PFD DOWN output
inline constexpr const char* kFout = "pll/fout";        ///< digitized output clock
inline constexpr const char* kVctrl = "pll/vctrl";      ///< filter output / VCO control
inline constexpr const char* kVcoOut = "pll/vco_out";   ///< analog VCO output
inline constexpr const char* kSabFilter = "sab/filter_in"; ///< saboteur at the filter input
inline constexpr const char* kSabVcoOut = "sab/vco_out";   ///< saboteur at the VCO output
} // namespace names

/// The elaborated, instrumented PLL experiment.
class PllTestbench : public fault::Testbench {
public:
    explicit PllTestbench(PllConfig config = {});

    /// The configuration this instance was built with.
    [[nodiscard]] const PllConfig& config() const noexcept { return config_; }

    /// Direct access to the behavioral VCO (parametric experiments).
    [[nodiscard]] BehavioralVco& vco() noexcept { return *vco_; }

    /// Direct access to the behavioral PFD (null when structuralPfd is set).
    [[nodiscard]] PhaseFreqDetector* pfd() noexcept { return pfd_; }

private:
    PllConfig config_;
    BehavioralVco* vco_ = nullptr;
    PhaseFreqDetector* pfd_ = nullptr;
};

/// Time at which the output clock first stays within @p relTol of the nominal
/// period for @p consecutive cycles, or -1 if it never locks.
[[nodiscard]] SimTime lockTime(const trace::DigitalTrace& fout, SimTime nominalPeriod,
                               double relTol = 1e-3, int consecutive = 20);

} // namespace gfi::pll
