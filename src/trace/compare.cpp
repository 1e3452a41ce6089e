#include "trace/compare.hpp"

#include <algorithm>
#include <cmath>

namespace gfi::trace {

DigitalDiff compareDigital(const DigitalTrace& golden, const DigitalTrace& test, SimTime tEnd,
                           SimTime minWindow)
{
    // The timeline is 0, tEnd and every event time of either trace, ascending,
    // without duplicates and cut at tEnd. Both event lists are recorded in
    // time order, so it comes from a linear merge: once the value cursors
    // have consumed every event at or before t, the next point is the
    // smallest of the two cursor heads and the next sentinel.
    std::size_t gi = 0;
    std::size_t ti = 0;
    digital::Logic gv = golden.initial;
    digital::Logic tv = test.initial;
    SimTime sentinel = std::min<SimTime>(0, tEnd);

    DigitalDiff diff;
    bool inMismatch = false;
    SimTime windowStart = 0;
    for (;;) {
        SimTime t = sentinel;
        if (gi < golden.events.size()) {
            t = std::min(t, golden.events[gi].first);
        }
        if (ti < test.events.size()) {
            t = std::min(t, test.events[ti].first);
        }
        if (t == sentinel) {
            sentinel = std::max<SimTime>(0, tEnd);
        }
        while (gi < golden.events.size() && golden.events[gi].first <= t) {
            gv = golden.events[gi++].second;
        }
        while (ti < test.events.size() && test.events[ti].first <= t) {
            tv = test.events[ti++].second;
        }
        const bool differs = digital::toX01(gv) != digital::toX01(tv);
        if (differs && !inMismatch) {
            inMismatch = true;
            windowStart = t;
        } else if (!differs && inMismatch) {
            inMismatch = false;
            diff.mismatchWindows.emplace_back(windowStart, t);
        }
        if (t >= tEnd) {
            break;
        }
        if (!inMismatch) {
            // Both traces agree at t. A run of identical events before tEnd
            // keeps them equal at every timeline point it spans, so no window
            // opens there: consume it pairwise.
            while (gi < golden.events.size() && ti < test.events.size() &&
                   golden.events[gi] == test.events[ti] && golden.events[gi].first < tEnd) {
                gv = golden.events[gi++].second;
                tv = test.events[ti++].second;
            }
        }
    }
    if (inMismatch) {
        diff.mismatchWindows.emplace_back(windowStart, tEnd);
    }
    if (minWindow > 0) {
        // Uniform filter: a window narrower than the jitter tolerance is not
        // a functional error even when it is cut short by the end of the
        // observation (a sub-tolerance edge offset straddling tEnd).
        std::erase_if(diff.mismatchWindows, [&](const std::pair<SimTime, SimTime>& w) {
            return w.second - w.first < minWindow;
        });
    }
    if (!diff.mismatchWindows.empty()) {
        diff.firstMismatch = diff.mismatchWindows.front().first;
        diff.lastMismatchEnd = diff.mismatchWindows.back().second;
        for (const auto& [a, b] : diff.mismatchWindows) {
            diff.totalMismatch += b - a;
        }
    }
    return diff;
}

namespace {

using Samples = std::vector<std::pair<double, double>>;

/// Monotone interpolation cursor over one sample list: ascending queries walk
/// the list once. Identical to AnalogTrace::valueAt's interpolation; @c i is
/// the candidate upper interval bound, and any start in [1, lower_bound(t)]
/// yields the same value at t.
struct Cursor {
    const Samples& s;
    std::size_t i = 1;

    double at(double t)
    {
        if (s.empty()) {
            return 0.0;
        }
        if (t <= s.front().first) {
            return s.front().second;
        }
        if (t >= s.back().first) {
            return s.back().second;
        }
        while (i < s.size() && s[i].first < t) {
            ++i;
        }
        const auto& [t1, v1] = s[i];
        const auto& [t0, v0] = s[i - 1];
        if (t1 <= t0) {
            return v1;
        }
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
    }
};

/// Folds ascending timeline points into an AnalogDiff.
struct DeviationScan {
    Cursor golden;
    Cursor test;
    double absTol;
    double relTol;
    AnalogDiff diff{};
    bool outside = false;
    double outsideStart = 0.0;
    double last = 0.0; ///< most recent timeline point

    void visit(double t)
    {
        const double g = golden.at(t);
        const double v = test.at(t);
        const double dev = std::fabs(v - g);
        if (dev > diff.maxDeviation) {
            diff.maxDeviation = dev;
            diff.tMaxDeviation = t;
        }
        const bool exceeds = dev > absTol + relTol * std::fabs(g);
        if (exceeds) {
            if (diff.firstExceed < 0.0) {
                diff.firstExceed = t;
            }
            diff.lastExceed = t;
            if (!outside) {
                outside = true;
                outsideStart = t;
            }
        } else if (outside) {
            outside = false;
            diff.timeOutsideTol += t - outsideStart;
        }
        last = t;
    }

    AnalogDiff finish()
    {
        if (outside) {
            diff.timeOutsideTol += last - outsideStart;
            diff.withinTolAtEnd = false;
        }
        return diff;
    }
};

/// Fallback for sample lists that are not in time order: the timeline is the
/// sorted, deduplicated union of both lists' times.
AnalogDiff compareUnsorted(const Samples& gs, const Samples& ts, double absTol, double relTol)
{
    std::vector<double> times;
    times.reserve(gs.size() + ts.size());
    for (const auto& [t, v] : gs) {
        times.push_back(t);
    }
    for (const auto& [t, v] : ts) {
        times.push_back(t);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    DeviationScan scan{{gs}, {ts}, absTol, relTol};
    for (double t : times) {
        scan.visit(t);
    }
    return scan.finish();
}

} // namespace

AnalogDiff compareAnalog(const AnalogTrace& golden, const AnalogTrace& test, double absTol,
                         double relTol)
{
    const Samples& gs = golden.samples;
    const Samples& ts = test.samples;
    const auto unsortedAt = [](const Samples& s, std::size_t k) {
        return k > 0 && s[k].first < s[k - 1].first;
    };

    // Common prefix. A forked run carries golden's samples up to its
    // checkpoint and an injected run matches golden up to its strike, so
    // the leading samples usually agree. Before the last shared sample time
    // T both cursors interpolate between the same sample pairs, so every
    // timeline point strictly before T has deviation 0 (or NaN from
    // infinite values), and with non-negative tolerances such a point
    // changes nothing in the diff. The walk therefore starts at the first
    // shared sample at T: the point at T itself is still evaluated, since
    // one trace may end there while the other interpolates.
    std::size_t start = 0;
    if (absTol >= 0.0 && relTol >= 0.0) {
        const std::size_t n = std::min(gs.size(), ts.size());
        std::size_t shared = 0;
        for (; shared < n && gs[shared] == ts[shared]; ++shared) {
            if (unsortedAt(gs, shared)) {
                return compareUnsorted(gs, ts, absTol, relTol);
            }
        }
        if (shared > 0) {
            start = static_cast<std::size_t>(
                std::lower_bound(gs.begin(), gs.begin() + static_cast<std::ptrdiff_t>(shared),
                                 gs[shared - 1].first,
                                 [](const std::pair<double, double>& s, double time) {
                                     return s.first < time;
                                 }) -
                gs.begin());
        }
    }

    // Two-cursor merge of the remaining sample times, emitting each distinct
    // time once: the same timeline, element for element, as std::merge
    // followed by std::unique (ties take golden's time first).
    DeviationScan scan{{gs, std::max<std::size_t>(start, 1)},
                       {ts, std::max<std::size_t>(start, 1)},
                       absTol,
                       relTol};
    std::size_t i = start;
    std::size_t j = start;
    bool visited = false;
    while (i < gs.size() || j < ts.size()) {
        const bool fromGolden =
            j == ts.size() || (i < gs.size() && !(ts[j].first < gs[i].first));
        const Samples& s = fromGolden ? gs : ts;
        std::size_t& k = fromGolden ? i : j;
        if (unsortedAt(s, k)) {
            return compareUnsorted(gs, ts, absTol, relTol);
        }
        const double t = s[k++].first;
        if (visited && scan.last == t) {
            continue;
        }
        visited = true;
        scan.visit(t);
    }
    return scan.finish();
}

} // namespace gfi::trace
