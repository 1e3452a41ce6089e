#pragma once
// Sequential phase-frequency detector (paper Figure 5, "Sequential
// Phase-frequency Detector").
//
// Classic tri-state PFD: a rising reference edge raises UP, a rising feedback
// edge raises DOWN, and when both are high an internal reset clears both
// after a short reset delay. The UP/DOWN flags are stored state and register
// instrumentation hooks, so the campaign can flip them like any other
// sequential element (SEUs in the PLL's digital part).

#include "digital/circuit.hpp"
#include "snapshot/snapshot.hpp"

namespace gfi::pll {

/// Behavioral tri-state phase-frequency detector.
class PhaseFreqDetector : public digital::Component, public snapshot::Snapshottable {
public:
    /// @param resetDelay  width of the simultaneous UP/DOWN pulse when the
    ///                    internal AND reset fires (anti-backlash window).
    PhaseFreqDetector(digital::Circuit& c, std::string name, digital::LogicSignal& ref,
                      digital::LogicSignal& fb, digital::LogicSignal& up,
                      digital::LogicSignal& down, SimTime resetDelay = 200 * kPicosecond,
                      SimTime delay = 100 * kPicosecond);

    /// Overwrites the stored flags and re-drives the outputs (SEU injection).
    void setState(bool up, bool down);

    /// Captures the flags, the reset token and the armed reset fire time;
    /// restore re-arms the in-flight reset action from it.
    void captureState(snapshot::Writer& w) const override;
    void restoreState(snapshot::Reader& r) override;

private:
    void drive();
    void maybeScheduleReset();
    void scheduleResetAt(SimTime t);

    digital::Circuit* circuit_;
    digital::LogicSignal* upSig_;
    digital::LogicSignal* downSig_;
    bool up_ = false;
    bool down_ = false;
    SimTime resetDelay_;
    SimTime delay_;
    std::uint64_t resetToken_ = 0;  // invalidates stale scheduled resets
    SimTime pendingResetAt_ = -1;   // armed reset fire time, -1 if none
};

} // namespace gfi::pll
