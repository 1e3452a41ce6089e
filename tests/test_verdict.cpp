// The verdict rule on its own: VerdictFold fed hand-made comparison figures,
// no simulator. Both kernels classify through this fold, so these cases pin
// the rule the batch-vs-event equivalence tests rely on.

#include "core/campaign.hpp"

#include <gtest/gtest.h>

namespace gfi::campaign {
namespace {

constexpr SimTime kEnd = 1000 * kNanosecond;
constexpr SimTime ns(SimTime n) { return n * kNanosecond; }

/// One observation fed to the fold.
struct Feed {
    enum class Kind { Digital, Analog, State };
    Kind kind = Kind::Digital;
    std::string name;
    SimTime first = -1;
    SimTime lastEnd = -1;
    SimTime total = 0;
    trace::AnalogDiff analog;
    bool differs = false;
};

Feed dig(std::string name, SimTime first, SimTime lastEnd, SimTime total)
{
    Feed f;
    f.name = std::move(name);
    f.first = first;
    f.lastEnd = lastEnd;
    f.total = total;
    return f;
}

Feed clean(std::string name) { return dig(std::move(name), -1, -1, 0); }

/// An analog comparison; @p firstExceed < 0 means within tolerance.
Feed ana(std::string name, double maxDeviation, double firstExceed = -1.0,
         double timeOutsideTol = 0.0, bool withinTolAtEnd = true)
{
    Feed f;
    f.kind = Feed::Kind::Analog;
    f.name = std::move(name);
    f.analog.maxDeviation = maxDeviation;
    f.analog.firstExceed = firstExceed;
    f.analog.timeOutsideTol = timeOutsideTol;
    f.analog.withinTolAtEnd = withinTolAtEnd;
    return f;
}

Feed st(std::string name, bool differs)
{
    Feed f;
    f.kind = Feed::Kind::State;
    f.name = std::move(name);
    f.differs = differs;
    return f;
}

/// The verdict fields a case expects.
RunResult want(Outcome outcome, std::vector<std::string> erred = {}, SimTime first = -1,
               SimTime lastEnd = -1, SimTime total = 0, double maxDeviation = 0.0,
               double timeOutsideTol = 0.0, std::vector<std::string> corrupted = {})
{
    RunResult r;
    r.outcome = outcome;
    r.erredSignals = std::move(erred);
    r.firstOutputError = first;
    r.lastOutputErrorEnd = lastEnd;
    r.totalOutputErrorTime = total;
    r.maxAnalogDeviation = maxDeviation;
    r.analogTimeOutsideTol = timeOutsideTol;
    r.corruptedState = std::move(corrupted);
    return r;
}

struct Case {
    const char* what;
    std::vector<Feed> feeds;
    RunResult expected;
};

RunResult fold(const std::vector<Feed>& feeds)
{
    RunResult r;
    VerdictFold verdict(r, kEnd);
    for (const Feed& f : feeds) {
        switch (f.kind) {
        case Feed::Kind::Digital:
            verdict.digital(f.name, f.first, f.lastEnd, f.total);
            break;
        case Feed::Kind::Analog:
            verdict.analog(f.name, f.analog);
            break;
        case Feed::Kind::State:
            verdict.state(f.name, f.differs);
            break;
        }
    }
    return r;
}

TEST(VerdictFold, Table)
{
    // want(outcome, erred, first, lastEnd, total, maxDeviation,
    //      timeOutsideTol, corrupted)
    const std::vector<Case> cases{
        {"nothing observed", {}, want(Outcome::Silent)},
        {"every comparison clean",
         {clean("o0"), ana("v", 4e-4), st("r", false)},
         want(Outcome::Silent, {}, -1, -1, 0, 4e-4)},
        {"only stored state differs",
         {clean("o0"), ana("v", 0.0), st("r0", false), st("r1", true)},
         want(Outcome::Latent, {}, -1, -1, 0, 0.0, 0.0, {"r1"})},
        {"digital window closed before the end",
         {dig("o0", ns(100), ns(300), ns(200))},
         want(Outcome::TransientError, {"o0"}, ns(100), ns(300), ns(200))},
        {"digital window closing 1 fs before the end",
         {dig("o0", ns(500), kEnd - 1, kEnd - 1 - ns(500))},
         want(Outcome::TransientError, {"o0"}, ns(500), kEnd - 1, kEnd - 1 - ns(500))},
        {"digital window ending exactly at the end",
         {dig("o0", ns(500), kEnd, ns(500))},
         want(Outcome::Failure, {"o0"}, ns(500), kEnd, ns(500))},
        {"one recovered and one still-wrong digital output",
         {dig("o0", ns(100), ns(200), ns(100)), dig("o1", ns(400), kEnd, ns(600))},
         want(Outcome::Failure, {"o0", "o1"}, ns(100), kEnd, ns(700))},
        {"analog node back inside tolerance at the end",
         {ana("v", 0.2, 2e-7, 1e-7, true)},
         want(Outcome::TransientError, {"v"}, fromSeconds(2e-7), -1, 0, 0.2, 1e-7)},
        {"analog node still outside tolerance at the end",
         {ana("v", 0.2, 2e-7, 8e-7, false)},
         want(Outcome::Failure, {"v"}, fromSeconds(2e-7), -1, 0, 0.2, 8e-7)},
        {"analog failure beats a recovered digital output",
         {dig("o0", ns(100), ns(200), ns(100)), ana("v", 0.3, 5e-7, 5e-7, false)},
         want(Outcome::Failure, {"o0", "v"}, ns(100), ns(200), ns(100), 0.3, 5e-7)},
        {"analog exceed earlier than the digital window",
         {dig("o0", ns(300), ns(400), ns(100)), ana("v", 0.1, 1e-7, 2e-8, true)},
         want(Outcome::TransientError, {"o0", "v"}, fromSeconds(1e-7), ns(400), ns(100), 0.1,
              2e-8)},
        {"digital window earlier than the analog exceed",
         {ana("v", 0.1, 1e-7, 2e-8, true), dig("o0", ns(50), ns(60), ns(10))},
         want(Outcome::TransientError, {"v", "o0"}, ns(50), ns(60), ns(10), 0.1, 2e-8)},
        {"in-tolerance node sets the maximum deviation",
         {ana("v0", 0.4), ana("v1", 0.01, 3e-7, 1e-8, true)},
         want(Outcome::TransientError, {"v1"}, fromSeconds(3e-7), -1, 0, 0.4, 1e-8)},
        {"erred outputs and corrupted state in call order",
         {dig("b", ns(10), ns(20), ns(10)), st("r2", true), ana("a", 0.5, 4e-7, 1e-7, true),
          clean("x"), dig("c", ns(700), ns(800), ns(100)), st("r1", true)},
         want(Outcome::TransientError, {"b", "a", "c"}, ns(10), ns(800), ns(110), 0.5, 1e-7,
              {"r2", "r1"})},
    };

    for (const Case& c : cases) {
        SCOPED_TRACE(c.what);
        const RunResult r = fold(c.feeds);
        const RunResult& e = c.expected;
        EXPECT_EQ(r.outcome, e.outcome);
        EXPECT_EQ(r.erredSignals, e.erredSignals);
        EXPECT_EQ(r.firstOutputError, e.firstOutputError);
        EXPECT_EQ(r.lastOutputErrorEnd, e.lastOutputErrorEnd);
        EXPECT_EQ(r.totalOutputErrorTime, e.totalOutputErrorTime);
        EXPECT_DOUBLE_EQ(r.maxAnalogDeviation, e.maxAnalogDeviation);
        EXPECT_DOUBLE_EQ(r.analogTimeOutsideTol, e.analogTimeOutsideTol);
        EXPECT_EQ(r.corruptedState, e.corruptedState);
    }
}

TEST(VerdictFold, OutcomeTracksEveryFeed)
{
    RunResult r;
    VerdictFold verdict(r, kEnd);
    EXPECT_EQ(r.outcome, Outcome::Silent);
    verdict.state("r", true);
    EXPECT_EQ(r.outcome, Outcome::Latent);
    verdict.digital("o0", ns(100), ns(200), ns(100));
    EXPECT_EQ(r.outcome, Outcome::TransientError);
    verdict.analog("v", ana("v", 0.2, 1e-7, 1e-7, false).analog);
    EXPECT_EQ(r.outcome, Outcome::Failure);
    verdict.digital("o1", -1, -1, 0);
    EXPECT_EQ(r.outcome, Outcome::Failure);
}

} // namespace
} // namespace gfi::campaign
