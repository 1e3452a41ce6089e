// Tests for trace capture, tolerant comparison and clock metrics.

#include "trace/compare.hpp"
#include "trace/metrics.hpp"

#include "analog/passive.hpp"
#include "analog/sources.hpp"
#include "digital/sequential.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace gfi::trace {
namespace {

using digital::Logic;

DigitalTrace makeTrace(Logic initial, std::vector<std::pair<SimTime, Logic>> events)
{
    DigitalTrace t;
    t.name = "t";
    t.initial = initial;
    t.events = std::move(events);
    return t;
}

TEST(DigitalTraceTest, ValueAtWalksEvents)
{
    const auto t = makeTrace(Logic::Zero, {{10, Logic::One}, {20, Logic::Zero}});
    EXPECT_EQ(t.valueAt(5), Logic::Zero);
    EXPECT_EQ(t.valueAt(10), Logic::One);
    EXPECT_EQ(t.valueAt(15), Logic::One);
    EXPECT_EQ(t.valueAt(25), Logic::Zero);
}

TEST(DigitalTraceTest, RisingEdges)
{
    const auto t = makeTrace(Logic::Zero, {{10, Logic::One},
                                           {20, Logic::Zero},
                                           {30, Logic::One},
                                           {40, Logic::X},
                                           {50, Logic::One}});
    const auto edges = t.risingEdges();
    ASSERT_EQ(edges.size(), 2u); // X -> 1 is not a clean rising edge
    EXPECT_EQ(edges[0], 10);
    EXPECT_EQ(edges[1], 30);
}

TEST(AnalogTraceTest, LinearInterpolation)
{
    AnalogTrace t;
    t.samples = {{0.0, 0.0}, {1.0, 2.0}, {2.0, 0.0}};
    EXPECT_DOUBLE_EQ(t.valueAt(0.5), 1.0);
    EXPECT_DOUBLE_EQ(t.valueAt(1.5), 1.0);
    EXPECT_DOUBLE_EQ(t.valueAt(-1.0), 0.0); // clamped
    EXPECT_DOUBLE_EQ(t.valueAt(5.0), 0.0);
    const auto [lo, hi] = t.minmax();
    EXPECT_DOUBLE_EQ(lo, 0.0);
    EXPECT_DOUBLE_EQ(hi, 2.0);
}

TEST(CompareDigitalTest, IdenticalTraces)
{
    const auto a = makeTrace(Logic::Zero, {{10, Logic::One}});
    const auto diff = compareDigital(a, a, 100);
    EXPECT_TRUE(diff.identical());
    EXPECT_EQ(diff.totalMismatch, 0);
    EXPECT_TRUE(diff.matchesAt(100));
}

TEST(CompareDigitalTest, TransientMismatchWindow)
{
    const auto golden = makeTrace(Logic::Zero, {{10, Logic::One}});
    const auto faulty = makeTrace(Logic::Zero, {{10, Logic::One},
                                                {30, Logic::Zero}, // glitch
                                                {40, Logic::One}});
    const auto diff = compareDigital(golden, faulty, 100);
    ASSERT_EQ(diff.mismatchWindows.size(), 1u);
    EXPECT_EQ(diff.firstMismatch, 30);
    EXPECT_EQ(diff.mismatchWindows[0].second, 40);
    EXPECT_EQ(diff.totalMismatch, 10);
    EXPECT_TRUE(diff.matchesAt(100)); // recovered
}

TEST(CompareDigitalTest, PermanentMismatch)
{
    const auto golden = makeTrace(Logic::Zero, {});
    const auto faulty = makeTrace(Logic::Zero, {{50, Logic::One}});
    const auto diff = compareDigital(golden, faulty, 100);
    ASSERT_EQ(diff.mismatchWindows.size(), 1u);
    EXPECT_FALSE(diff.matchesAt(100));
    EXPECT_EQ(diff.totalMismatch, 50);
}

TEST(CompareDigitalTest, WeakValuesNormalized)
{
    // 'H' vs '1' must not count as a mismatch (to_x01 normalization).
    const auto golden = makeTrace(Logic::One, {});
    const auto faulty = makeTrace(Logic::H, {});
    EXPECT_TRUE(compareDigital(golden, faulty, 100).identical());
}

/// The comparator's definition: windows over the sorted, deduplicated union
/// of {0, tEnd} and both traces' event times, values by valueAt().
DigitalDiff referenceCompare(const DigitalTrace& golden, const DigitalTrace& test, SimTime tEnd,
                             SimTime minWindow)
{
    std::vector<SimTime> times{0, tEnd};
    for (const auto& [t, v] : golden.events) {
        times.push_back(t);
    }
    for (const auto& [t, v] : test.events) {
        times.push_back(t);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    DigitalDiff diff;
    bool in = false;
    SimTime start = 0;
    for (const SimTime t : times) {
        if (t > tEnd) {
            break;
        }
        const bool differs =
            digital::toX01(golden.valueAt(t)) != digital::toX01(test.valueAt(t));
        if (differs && !in) {
            in = true;
            start = t;
        } else if (!differs && in) {
            in = false;
            diff.mismatchWindows.emplace_back(start, t);
        }
    }
    if (in) {
        diff.mismatchWindows.emplace_back(start, tEnd);
    }
    std::erase_if(diff.mismatchWindows,
                  [&](const auto& w) { return minWindow > 0 && w.second - w.first < minWindow; });
    return diff;
}

TEST(CompareDigitalTest, LinearMergeMatchesSortedTimelineReference)
{
    static constexpr Logic kValues[] = {Logic::Zero, Logic::One, Logic::X, Logic::L,
                                        Logic::U};
    Rng rng(0xC0A7);
    const auto randomTrace = [&](std::size_t events) {
        DigitalTrace t;
        t.initial = kValues[rng.below(5)];
        SimTime at = -5 + static_cast<SimTime>(rng.below(10));
        for (std::size_t i = 0; i < events; ++i) {
            at += static_cast<SimTime>(rng.below(4)); // equal times: same-time glitches
            t.events.emplace_back(at, kValues[rng.below(5)]);
        }
        return t;
    };
    for (int trial = 0; trial < 3000; ++trial) {
        const DigitalTrace golden = randomTrace(rng.below(12));
        const DigitalTrace test = randomTrace(rng.below(12));
        const SimTime tEnd = -3 + static_cast<SimTime>(rng.below(40));
        const SimTime minWindow = static_cast<SimTime>(rng.below(4));
        const DigitalDiff got = compareDigital(golden, test, tEnd, minWindow);
        const DigitalDiff want = referenceCompare(golden, test, tEnd, minWindow);
        ASSERT_EQ(got.mismatchWindows, want.mismatchWindows) << "trial " << trial;
        ASSERT_EQ(got.firstMismatch,
                  want.mismatchWindows.empty() ? -1 : want.mismatchWindows.front().first);
        ASSERT_EQ(got.identical(), want.mismatchWindows.empty());
    }
}

TEST(CompareAnalogTest, WithinTolerance)
{
    AnalogTrace g;
    AnalogTrace f;
    for (int i = 0; i <= 10; ++i) {
        g.samples.emplace_back(i * 1e-6, 1.0);
        f.samples.emplace_back(i * 1e-6, 1.0 + 0.5e-3);
    }
    const auto diff = compareAnalog(g, f, 1e-3);
    EXPECT_TRUE(diff.withinTolerance());
    EXPECT_NEAR(diff.maxDeviation, 0.5e-3, 1e-9);
}

TEST(CompareAnalogTest, TransientExcursion)
{
    AnalogTrace g;
    AnalogTrace f;
    for (int i = 0; i <= 100; ++i) {
        const double t = i * 1e-6;
        g.samples.emplace_back(t, 1.0);
        // 20 mV bump between 40 and 60 us.
        const double bump = (t > 40e-6 && t < 60e-6) ? 0.02 : 0.0;
        f.samples.emplace_back(t, 1.0 + bump);
    }
    const auto diff = compareAnalog(g, f, 5e-3);
    EXPECT_FALSE(diff.withinTolerance());
    EXPECT_TRUE(diff.withinTolAtEnd);
    EXPECT_NEAR(diff.maxDeviation, 0.02, 1e-9);
    EXPECT_NEAR(diff.firstExceed, 41e-6, 1e-6);
    EXPECT_NEAR(diff.timeOutsideTol, 19e-6, 2e-6);
}

TEST(CompareAnalogTest, RelativeTolerance)
{
    AnalogTrace g;
    AnalogTrace f;
    g.samples = {{0.0, 10.0}, {1.0, 10.0}};
    f.samples = {{0.0, 10.5}, {1.0, 10.5}};
    EXPECT_TRUE(compareAnalog(g, f, 0.0, 0.10).withinTolerance());  // 5 % < 10 %
    EXPECT_FALSE(compareAnalog(g, f, 0.0, 0.01).withinTolerance()); // 5 % > 1 %
}

/// compareAnalog before its single-pass rewrite, kept as the oracle: the
/// timeline is the merged (sorted, for unsorted input) and deduplicated union
/// of both traces' sample times, walked from the start with one monotone
/// interpolation cursor per trace.
AnalogDiff referenceCompareAnalog(const AnalogTrace& golden, const AnalogTrace& test,
                                  double absTol, double relTol)
{
    std::vector<double> ga;
    std::vector<double> ta;
    for (const auto& [t, v] : golden.samples) {
        ga.push_back(t);
    }
    for (const auto& [t, v] : test.samples) {
        ta.push_back(t);
    }
    std::vector<double> times(ga.size() + ta.size());
    if (std::is_sorted(ga.begin(), ga.end()) && std::is_sorted(ta.begin(), ta.end())) {
        std::merge(ga.begin(), ga.end(), ta.begin(), ta.end(), times.begin());
    } else {
        times.clear();
        times.insert(times.end(), ga.begin(), ga.end());
        times.insert(times.end(), ta.begin(), ta.end());
        std::sort(times.begin(), times.end());
    }
    times.erase(std::unique(times.begin(), times.end()), times.end());

    struct Cursor {
        const std::vector<std::pair<double, double>>& s;
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
    Cursor goldenCur{golden.samples};
    Cursor testCur{test.samples};

    AnalogDiff diff;
    bool outside = false;
    double outsideStart = 0.0;
    for (double t : times) {
        const double g = goldenCur.at(t);
        const double v = testCur.at(t);
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
    }
    if (outside && !times.empty()) {
        diff.timeOutsideTol += times.back() - outsideStart;
        diff.withinTolAtEnd = false;
    }
    return diff;
}

std::uint64_t bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/// Every AnalogDiff field, compared bit for bit.
void expectSameDiff(const AnalogDiff& got, const AnalogDiff& want, const std::string& where)
{
    EXPECT_EQ(bitsOf(got.maxDeviation), bitsOf(want.maxDeviation)) << where;
    EXPECT_EQ(bitsOf(got.tMaxDeviation), bitsOf(want.tMaxDeviation)) << where;
    EXPECT_EQ(bitsOf(got.firstExceed), bitsOf(want.firstExceed)) << where;
    EXPECT_EQ(bitsOf(got.lastExceed), bitsOf(want.lastExceed)) << where;
    EXPECT_EQ(bitsOf(got.timeOutsideTol), bitsOf(want.timeOutsideTol)) << where;
    EXPECT_EQ(got.withinTolAtEnd, want.withinTolAtEnd) << where;
}

TEST(CompareAnalogTest, SinglePassMatchesMergeUniqueReference)
{
    static constexpr double kAbsTols[] = {0.0, -1.0, 1e-3, 0.05, 0.3};
    static constexpr double kRelTols[] = {0.0, -0.5, 0.01, 0.2};
    static constexpr double kSteps[] = {0.0, 0.25, 0.5, 0.75}; // 0: duplicate times
    Rng rng(0xA7A106);
    const auto appendSamples = [&](AnalogTrace& tr, std::size_t count, double from) {
        double t = from;
        for (std::size_t k = 0; k < count; ++k) {
            tr.samples.emplace_back(t, rng.uniform(-1.0, 1.0));
            t += kSteps[rng.below(4)];
        }
    };
    int skipped = 0;
    int openAtEnd = 0;
    int unsorted = 0;
    for (int trial = 0; trial < 20000; ++trial) {
        AnalogTrace golden;
        appendSamples(golden, rng.below(40), 0.0);
        // Shared prefix: none, 1, 2, the whole trace or anything in between.
        const std::size_t n = golden.samples.size();
        const std::size_t choices[] = {0, std::min<std::size_t>(1, n),
                                       std::min<std::size_t>(2, n), n,
                                       static_cast<std::size_t>(rng.below(n + 1))};
        const std::size_t shared = choices[rng.below(5)];
        AnalogTrace test;
        test.samples.assign(golden.samples.begin(),
                            golden.samples.begin() + static_cast<std::ptrdiff_t>(shared));
        if (shared > 0 && rng.chance(0.05) && test.samples.front().first == 0.0) {
            test.samples.front().first = -0.0; // equal time, other sign bit
        }
        // Suffix: none (a strict prefix of golden), or samples from the last
        // shared time on — on golden's grid, perturbed or not, or off it.
        if (rng.chance(0.8)) {
            const double from = shared > 0 ? test.samples.back().first : 0.0;
            const std::size_t count = rng.below(20);
            if (rng.chance(0.5)) {
                appendSamples(test, count, from);
            } else {
                for (std::size_t k = shared; k < n && k < shared + count; ++k) {
                    const auto [t, v] = golden.samples[k];
                    const double bump =
                        rng.chance(0.5) ? 0.0 : rng.uniform(-1.0, 1.0) * (rng.chance(0.5) ? 1e-2 : 1.0);
                    test.samples.emplace_back(t, v + bump);
                }
            }
        }
        if (rng.chance(0.5)) {
            std::swap(golden, test); // either side may be the longer one
        }
        if (rng.chance(0.05)) {
            AnalogTrace& tr = rng.chance(0.5) ? golden : test;
            if (tr.samples.size() >= 2) {
                const std::size_t a = rng.below(tr.samples.size());
                const std::size_t b = rng.below(tr.samples.size());
                std::swap(tr.samples[a].first, tr.samples[b].first);
            }
        }
        const double absTol = kAbsTols[rng.below(5)];
        const double relTol = kRelTols[rng.below(4)];

        const AnalogDiff got = compareAnalog(golden, test, absTol, relTol);
        const AnalogDiff want = referenceCompareAnalog(golden, test, absTol, relTol);
        expectSameDiff(got, want, "trial " + std::to_string(trial));
        if (::testing::Test::HasFailure()) {
            return;
        }

        const auto byTime = [](const auto& a, const auto& b) { return a.first < b.first; };
        const bool sorted = std::is_sorted(golden.samples.begin(), golden.samples.end(), byTime) &&
                            std::is_sorted(test.samples.begin(), test.samples.end(), byTime);
        unsorted += sorted ? 0 : 1;
        skipped += sorted && absTol >= 0.0 && relTol >= 0.0 && shared >= 2 ? 1 : 0;
        openAtEnd += want.withinTolAtEnd ? 0 : 1;
    }
    // The seeded pairs reach every branch the rewrite has to preserve.
    EXPECT_GT(skipped, 1000);
    EXPECT_GT(openAtEnd, 1000);
    EXPECT_GT(unsorted, 100);
}

TEST(CompareAnalogTest, LastSharedTimeIsEvaluated)
{
    // The test trace is golden's first two samples. At their last time T the
    // test cursor returns its last sample while golden's interpolates up to
    // its sample at T, v0 + (v1 - v0) * 1, which may miss v1 by an ULP. That
    // point must still be walked even though every sample up to T is shared;
    // it is the only point that deviates.
    double v1 = 0.0;
    double interp = 0.0;
    for (int k = 1; k < 1000 && interp == v1; ++k) {
        v1 = 0.1 * k;
        interp = 0.1 + (v1 - 0.1) * (1e-9 - 0.0) / (1e-9 - 0.0);
    }
    ASSERT_NE(interp, v1);
    AnalogTrace golden;
    golden.samples = {{0.0, 0.1}, {1e-9, v1}, {2e-9, v1}};
    AnalogTrace test;
    test.samples = {{0.0, 0.1}, {1e-9, v1}};
    const AnalogDiff diff = compareAnalog(golden, test, 0.0);
    expectSameDiff(diff, referenceCompareAnalog(golden, test, 0.0, 0.0), "ulp");
    EXPECT_EQ(diff.maxDeviation, std::fabs(v1 - interp));
    EXPECT_EQ(diff.firstExceed, 1e-9);
    EXPECT_TRUE(compareAnalog(golden, golden, 0.0).withinTolerance());
}

TEST(CompareAnalogTest, ExcursionOpenAtEnd)
{
    AnalogTrace g;
    AnalogTrace f;
    for (int i = 0; i <= 100; ++i) {
        const double t = i * 1e-6;
        g.samples.emplace_back(t, 1.0);
        f.samples.emplace_back(t, t > 80e-6 ? 1.1 : 1.0); // still off when the run ends
    }
    const auto diff = compareAnalog(g, f, 5e-3);
    expectSameDiff(diff, referenceCompareAnalog(g, f, 5e-3, 0.0), "open");
    EXPECT_FALSE(diff.withinTolAtEnd);
    EXPECT_NEAR(diff.firstExceed, 81e-6, 1e-12);
    EXPECT_NEAR(diff.timeOutsideTol, 19e-6, 1e-12);
}

TEST(CompareAnalogTest, EmptyTraces)
{
    AnalogTrace empty;
    AnalogTrace one;
    one.samples = {{0.0, 0.5}, {1.0, 0.5}};
    for (const double absTol : {0.0, 0.1, -0.1}) {
        expectSameDiff(compareAnalog(empty, empty, absTol),
                       referenceCompareAnalog(empty, empty, absTol, 0.0), "both empty");
        expectSameDiff(compareAnalog(empty, one, absTol),
                       referenceCompareAnalog(empty, one, absTol, 0.0), "golden empty");
        expectSameDiff(compareAnalog(one, empty, absTol),
                       referenceCompareAnalog(one, empty, absTol, 0.0), "test empty");
    }
    EXPECT_FALSE(compareAnalog(one, empty, 0.1).withinTolerance()); // empty reads 0 V
}

TEST(MetricsTest, ExtractPeriods)
{
    const auto clk = makeTrace(Logic::Zero, {{0, Logic::One},
                                             {10, Logic::Zero},
                                             {20, Logic::One},
                                             {30, Logic::Zero},
                                             {42, Logic::One}}); // late edge
    const auto periods = extractPeriods(clk);
    ASSERT_EQ(periods.size(), 2u);
    EXPECT_EQ(periods[0].period, 20);
    EXPECT_EQ(periods[1].period, 22);
}

TEST(MetricsTest, AnalyzeClockCountsPerturbedCycles)
{
    DigitalTrace clk;
    clk.initial = Logic::Zero;
    SimTime t = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        // Cycles 40-49 are 2 % long.
        const SimTime period = (cycle >= 40 && cycle < 50) ? 2040 : 2000;
        clk.events.emplace_back(t, Logic::One);
        clk.events.emplace_back(t + period / 2, Logic::Zero);
        t += period;
    }
    const auto result = analyzeClock(clk, 2000, 0.01);
    EXPECT_EQ(result.perturbedCycles, 10);
    EXPECT_NEAR(result.maxRelDeviation, 0.02, 1e-6);
    EXPECT_GT(result.firstPerturbed, 0);
    EXPECT_EQ(result.totalCycles, 99); // n edges -> n-1 periods
}

TEST(MetricsTest, CompareClocksUsesGoldenMedianPeriod)
{
    DigitalTrace golden;
    DigitalTrace faulty;
    golden.initial = faulty.initial = Logic::Zero;
    SimTime tg = 0;
    SimTime tf = 0;
    for (int cycle = 0; cycle < 50; ++cycle) {
        golden.events.emplace_back(tg, Logic::One);
        golden.events.emplace_back(tg + 1000, Logic::Zero);
        tg += 2000;
        const SimTime period = cycle == 25 ? 2100 : 2000;
        faulty.events.emplace_back(tf, Logic::One);
        faulty.events.emplace_back(tf + period / 2, Logic::Zero);
        tf += period;
    }
    const auto result = compareClocks(golden, faulty, 0.01);
    EXPECT_EQ(result.perturbedCycles, 1);
    EXPECT_EQ(result.nominalPeriod, 2000);
}

TEST(MetricsTest, RmsPeriodJitter)
{
    DigitalTrace clk;
    clk.initial = Logic::Zero;
    // Alternating 1900/2100 fs periods around a 2000 fs mean -> RMS = 100 fs.
    SimTime t = 0;
    for (int i = 0; i < 40; ++i) {
        clk.events.emplace_back(t, Logic::One);
        clk.events.emplace_back(t + 500, Logic::Zero);
        t += (i % 2 == 0) ? 1900 : 2100;
    }
    EXPECT_NEAR(rmsPeriodJitter(clk), 100e-15, 5e-15);

    DigitalTrace flat;
    flat.initial = Logic::Zero;
    t = 0;
    for (int i = 0; i < 10; ++i) {
        flat.events.emplace_back(t, Logic::One);
        flat.events.emplace_back(t + 500, Logic::Zero);
        t += 2000;
    }
    EXPECT_NEAR(rmsPeriodJitter(flat), 0.0, 1e-18);
}

TEST(MetricsTest, DutyCycle)
{
    DigitalTrace clk;
    clk.initial = Logic::Zero;
    SimTime t = 0;
    for (int i = 0; i < 20; ++i) {
        clk.events.emplace_back(t, Logic::One);
        clk.events.emplace_back(t + 600, Logic::Zero); // 30 % high
        t += 2000;
    }
    EXPECT_NEAR(dutyCycle(clk), 0.3, 1e-9);

    DigitalTrace empty;
    empty.initial = Logic::Zero;
    EXPECT_DOUBLE_EQ(dutyCycle(empty), -1.0);
}

TEST(RecorderTest, CapturesDigitalAndAnalog)
{
    ams::MixedSimulator sim;
    auto& clk = sim.digital().logicSignal("clk", Logic::Zero);
    sim.digital().add<digital::ClockGen>(sim.digital(), "cg", clk, 100 * kNanosecond);
    const analog::NodeId n = sim.analog().node("ramp");
    auto& vs = sim.analog().add<analog::VoltageSource>(sim.analog(), "vs", n, analog::kGround,
                                                       0.0);
    analog::TimeFunction fn;
    fn.value = [](double t) { return 1e6 * t; }; // 1 V/us ramp
    vs.setFunction(std::move(fn));
    sim.analog().add<analog::Resistor>(sim.analog(), "rl", n, analog::kGround, 1e4);

    Recorder rec(sim);
    rec.recordDigital("clk");
    rec.recordAnalog("ramp");
    sim.run(kMicrosecond);

    const auto& dt = rec.digitalTrace("clk");
    EXPECT_GE(dt.risingEdges().size(), 9u);
    const auto& at = rec.analogTrace("ramp");
    EXPECT_GT(at.samples.size(), 10u);
    EXPECT_NEAR(at.valueAt(0.5e-6), 0.5, 0.01);
    EXPECT_THROW(rec.digitalTrace("nope"), std::out_of_range);
}

TEST(RecorderTest, PreloadPrefixCopiesGoldenHistoryUpToCheckpoint)
{
    const auto build = [](ams::MixedSimulator& sim) {
        auto& clk = sim.digital().logicSignal("clk", Logic::Zero);
        sim.digital().add<digital::ClockGen>(sim.digital(), "cg", clk, 100 * kNanosecond);
        const analog::NodeId n = sim.analog().node("ramp");
        auto& vs = sim.analog().add<analog::VoltageSource>(sim.analog(), "vs", n,
                                                           analog::kGround, 0.0);
        analog::TimeFunction fn;
        fn.value = [](double t) { return 1e6 * t; };
        vs.setFunction(std::move(fn));
        sim.analog().add<analog::Resistor>(sim.analog(), "rl", n, analog::kGround, 1e4);
    };
    ams::MixedSimulator goldenSim;
    build(goldenSim);
    Recorder golden(goldenSim);
    golden.recordDigital("clk");
    golden.recordAnalog("ramp");
    goldenSim.run(kMicrosecond);
    const auto& gd = golden.digitalTrace("clk").events;
    const auto& ga = golden.analogTrace("ramp").samples;
    ASSERT_GT(gd.size(), 4u);
    ASSERT_GT(ga.size(), 4u);

    // Cut points on a recorded time (inclusive), between two and past the end.
    const std::pair<SimTime, double> cuts[] = {{gd[2].first, ga[2].first},
                                               {gd[2].first + 1, ga[2].first * 1.0000001},
                                               {-1, -1.0},
                                               {2 * kMicrosecond, 2e-6}};
    for (const auto& [tDigital, tAnalog] : cuts) {
        ams::MixedSimulator sim;
        build(sim);
        Recorder rec(sim);
        rec.recordDigital("clk");
        rec.recordAnalog("ramp");
        sim.elaborate();
        rec.preloadPrefix(golden, tDigital, tAnalog);

        std::vector<std::pair<SimTime, Logic>> wantEvents;
        for (const auto& ev : gd) {
            if (ev.first <= tDigital) {
                wantEvents.push_back(ev);
            }
        }
        std::vector<std::pair<double, double>> wantSamples;
        for (const auto& s : ga) {
            if (s.first <= tAnalog) {
                wantSamples.push_back(s);
            }
        }
        EXPECT_EQ(rec.digitalTrace("clk").initial, golden.digitalTrace("clk").initial);
        EXPECT_EQ(rec.digitalTrace("clk").events, wantEvents) << tDigital;
        EXPECT_EQ(rec.analogTrace("ramp").samples, wantSamples) << tAnalog;
        EXPECT_GE(rec.analogTrace("ramp").samples.capacity(), ga.size());
    }

    ams::MixedSimulator other;
    other.digital().logicSignal("other", Logic::Zero);
    Recorder stranger(other);
    stranger.recordDigital("other");
    EXPECT_THROW(stranger.preloadPrefix(golden, 0, 0.0), std::logic_error);
}

TEST(WritersTest, CsvAndVcdProduceFiles)
{
    AnalogTrace a;
    a.name = "v1";
    a.samples = {{0.0, 1.0}, {1e-6, 2.0}};
    DigitalTrace d = makeTrace(Logic::Zero, {{10, Logic::One}, {20, Logic::Zero}});
    d.name = "sig";

    writeAnalogCsv("/tmp/gfi_trace.csv", {&a});
    writeVcd("/tmp/gfi_trace.vcd", {&d}, {&a});

    std::FILE* f = std::fopen("/tmp/gfi_trace.vcd", "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    buf[n] = '\0';
    std::fclose(f);
    const std::string vcd(buf);
    EXPECT_NE(vcd.find("$var wire 1 ! sig $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var real 64"), std::string::npos);
    EXPECT_NE(vcd.find("#10"), std::string::npos);
}

} // namespace
} // namespace gfi::trace
