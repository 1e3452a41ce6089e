// Static fault-space analyzer: signal graph, fault collapsing, SCOAP
// testability, and the collapsed campaign mode.
//
// The contract under test, layer by layer:
//   * SignalGraph levelization and observability over the chain DUT — the
//     observed chain is live, the dead branch provably dark;
//   * chainTerminalOf: zero-delay buffer/inverter chains collapse onto the
//     terminal saboteur with the right inverter parity;
//   * collapseFaults: chain sweeps shrink, dead faults pool into "masked",
//     golden/U-stuck/zero-width stay singletons;
//   * SCOAP scores: monotone controllability along the chain, "n/a"
//     observability in the dead cone;
//   * collapsed campaigns report byte-identical per-fault classifications to
//     full campaigns (chain DUT, digital DUT, CPU system), serial and at 8
//     workers, including mid-campaign journal resume;
//   * PRE007 warns on statically-unobservable fault targets.

#include "analyze/analyze.hpp"
#include "analyze/collapse.hpp"
#include "analyze/graph.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "core/saboteur.hpp"
#include "digital/gates.hpp"
#include "duts/chain_dut.hpp"
#include "duts/cpu_system.hpp"
#include "duts/digital_dut.hpp"
#include "io/ingest.hpp"
#include "io/netlist.hpp"
#include "lint/lint.hpp"
#include "pll/pll.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>

namespace gfi {
namespace {

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------------
// SignalGraph: levels and observability on the chain DUT

TEST(AnalyzeGraph, ChainLevelsAndObservability)
{
    duts::ChainDutTestbench tb;
    const analyze::SignalGraph g(tb);
    const auto& dig = tb.sim().digital();

    EXPECT_EQ(g.cyclicSignals(), 0u);
    EXPECT_GT(g.maxLevel(), 0);

    // The observed chain is live end to end.
    for (int i = 0; i < 8; ++i) {
        const std::string name = "chain/n" + std::to_string(i);
        EXPECT_TRUE(g.signalObservable(&dig.findSignal(name))) << name;
    }
    EXPECT_TRUE(g.signalObservable(&dig.findSignal("chain/q")));

    // The dead branch has no structural path to anything observed.
    EXPECT_FALSE(g.signalObservable(&dig.findSignal("chain/d0")));
    EXPECT_FALSE(g.signalObservable(&dig.findSignal("chain/d1")));
    EXPECT_FALSE(g.signalObservable(&dig.findSignal("chain/dead_q")));

    // Levels grow monotonically along the zero-delay chain.
    const auto level = [&](const std::string& name) {
        const int idx = g.indexOf(&dig.findSignal(name));
        EXPECT_GE(idx, 0) << name;
        return g.nodes()[static_cast<std::size_t>(idx)].level;
    };
    int prev = level("chain/n0");
    for (int i = 1; i < 8; ++i) {
        const int cur = level("chain/n" + std::to_string(i));
        EXPECT_GT(cur, prev) << "chain/n" << i;
        prev = cur;
    }
    // The flip-flop output is a sequential source again: level 0.
    EXPECT_EQ(level("chain/q"), 0);
}

TEST(AnalyzeGraph, ChainTerminalTracksInverterParity)
{
    duts::ChainDutTestbench tb;
    const analyze::SignalGraph g(tb);

    // c0..c2 sit upstream of the inverter, c3..c5 downstream.
    for (const char* name : {"sab/c0", "sab/c1", "sab/c2"}) {
        const auto t = g.chainTerminalOf(name);
        EXPECT_EQ(t.saboteur, "sab/c5") << name;
        EXPECT_TRUE(t.inverted) << name;
    }
    for (const char* name : {"sab/c3", "sab/c4", "sab/c5"}) {
        const auto t = g.chainTerminalOf(name);
        EXPECT_EQ(t.saboteur, "sab/c5") << name;
        EXPECT_FALSE(t.inverted) << name;
    }
    // The dead saboteur's chain ends at itself (flip-flop downstream).
    const auto dead = g.chainTerminalOf("sab/dead");
    EXPECT_EQ(dead.saboteur, "sab/dead");
    EXPECT_FALSE(dead.inverted);
    // Unknown names resolve to themselves.
    EXPECT_EQ(g.chainTerminalOf("sab/nope").saboteur, "sab/nope");
}

// ---------------------------------------------------------------------------
// SCOAP testability

TEST(AnalyzeScoap, ChainScoresAreFiniteAndDeadConeUnobservable)
{
    duts::ChainDutTestbench tb;
    const analyze::AnalysisReport rep = analyze::analyzeTestbench(tb);

    EXPECT_GT(rep.signals, 10u);
    EXPECT_EQ(rep.cyclicSignals, 0u);
    EXPECT_GT(rep.observableSignals, 0u);
    EXPECT_GT(rep.unobservableSignals, 0u) << "the dead branch must show up";

    bool sawChain = false;
    bool sawDead = false;
    for (const analyze::NodeScore& s : rep.testability.ranked) {
        if (s.signal == "chain/n7") {
            sawChain = true;
            EXPECT_TRUE(s.observable);
            EXPECT_LT(s.cc, analyze::kInfCost);
            EXPECT_GE(s.co, 0);
        }
        if (s.signal == "chain/dead_q") {
            sawDead = true;
            EXPECT_FALSE(s.observable);
            EXPECT_LT(s.co, 0) << "no path to a sink: CO must be the n/a marker";
        }
    }
    EXPECT_TRUE(sawChain);
    EXPECT_TRUE(sawDead);

    // Renderings stay consistent with the structural facts.
    const std::string table = rep.table(0);
    EXPECT_NE(table.find("chain/dead_q"), std::string::npos);
    EXPECT_NE(table.find("n/a"), std::string::npos);
    const std::string json = rep.json();
    EXPECT_NE(json.find("\"observable\": false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// collapseFaults: the partition itself

TEST(AnalyzeCollapse, ChainSweepPartition)
{
    duts::ChainDutTestbench tb;
    const auto sabs = duts::ChainDutTestbench::chainSaboteurs();

    std::vector<fault::FaultSpec> faults;
    faults.emplace_back(fault::FaultSpec{}); // golden: always its own class
    for (const std::string& sab : sabs) {
        faults.emplace_back(fault::DigitalPulseFault{sab, kMicrosecond, 2 * kNanosecond});
    }
    const std::size_t stuck0AtC0 = faults.size();
    faults.emplace_back(
        fault::StuckAtFault{sabs[0], digital::Logic::Zero, kMicrosecond, 0});
    const std::size_t stuck1AtC5 = faults.size();
    faults.emplace_back(
        fault::StuckAtFault{sabs[5], digital::Logic::One, kMicrosecond, 0});
    const std::size_t stuckXAtC0 = faults.size();
    faults.emplace_back(
        fault::StuckAtFault{sabs[0], digital::Logic::X, kMicrosecond, 0});
    const std::size_t deadPulse = faults.size();
    faults.emplace_back(fault::DigitalPulseFault{duts::ChainDutTestbench::deadSaboteur(),
                                                 kMicrosecond, 2 * kNanosecond});
    const std::size_t deadStuck = faults.size();
    faults.emplace_back(fault::StuckAtFault{duts::ChainDutTestbench::deadSaboteur(),
                                            digital::Logic::One, kMicrosecond, 0});
    const std::size_t zeroWidth = faults.size();
    faults.emplace_back(fault::DigitalPulseFault{sabs[0], kMicrosecond, 0});

    const analyze::CollapsePlan plan = analyze::collapseFaults(tb, faults);
    ASSERT_EQ(plan.repOf.size(), faults.size());

    // Golden stands alone.
    EXPECT_TRUE(plan.isRepresentative(0));

    // All six same-(time,width) chain pulses share the first one's class.
    for (std::size_t i = 1; i <= 6; ++i) {
        EXPECT_EQ(plan.repOf[i], 1u) << "pulse " << i;
    }

    // stuck-at-0 upstream of the inverter == stuck-at-1 at the terminal.
    EXPECT_EQ(plan.classKey[stuck0AtC0], plan.classKey[stuck1AtC5]);
    EXPECT_EQ(plan.repOf[stuck1AtC5], stuck0AtC0);

    // Stuck-at-X does not ride the chain (U/X pass-through differs).
    EXPECT_TRUE(plan.isRepresentative(stuckXAtC0));

    // Dead-branch faults pool into the one statically-masked class.
    EXPECT_EQ(plan.classKey[deadPulse], "masked");
    EXPECT_EQ(plan.classKey[deadStuck], "masked");
    EXPECT_EQ(plan.repOf[deadStuck], deadPulse);

    // Zero-width pulses stay singletons (delta-glitch ordering not modeled).
    EXPECT_TRUE(plan.isRepresentative(zeroWidth));

    EXPECT_EQ(plan.classes() + plan.collapsedRuns(), faults.size());
    EXPECT_GE(plan.collapsedRuns(), 7u);
}

// ---------------------------------------------------------------------------
// collapsed campaigns == full campaigns, per-fault classification for
// classification, byte for byte

struct CampaignOutput {
    std::string journal;
    std::string detail;
    std::string summary;
    std::string json;
    campaign::CampaignReport report;
};

CampaignOutput runCampaign(const fault::TestbenchFactory& factory,
                           const std::vector<fault::FaultSpec>& faults, unsigned workers,
                           bool collapse, const std::string& tag)
{
    const std::string path = ::testing::TempDir() + "gfi_analyze_" + tag + ".jsonl";
    std::remove(path.c_str());
    campaign::CampaignRunner runner(factory);
    runner.setWorkers(workers);
    runner.setRecordTiming(false); // keep reports byte-comparable across modes
    runner.setFaultCollapsing(collapse);
    runner.setJournalPath(path);
    CampaignOutput out;
    out.report = runner.run(faults);
    out.journal = slurp(path);
    out.detail = out.report.detailTable();
    out.summary = out.report.summaryTable();
    out.json = campaign::reportToJson(out.report);
    std::remove(path.c_str());
    return out;
}

void expectCollapsedEqualsFull(const fault::TestbenchFactory& factory,
                               const std::vector<fault::FaultSpec>& faults,
                               const std::string& tag, bool expectCollapse)
{
    const CampaignOutput full = runCampaign(factory, faults, 1, false, tag + "_full");
    ASSERT_EQ(full.report.runs.size(), faults.size());

    const CampaignOutput collapsed =
        runCampaign(factory, faults, 1, true, tag + "_collapsed");
    ASSERT_EQ(collapsed.report.runs.size(), faults.size());

    // The per-fault classification listing is byte-identical across modes.
    EXPECT_EQ(collapsed.detail, full.detail) << tag << ": classifications diverge";

    std::size_t expanded = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        EXPECT_EQ(collapsed.report.runs[i].outcome, full.report.runs[i].outcome) << i;
        if (!collapsed.report.runs[i].diagnostics.collapsedFrom.empty()) {
            ++expanded;
        }
    }
    if (expectCollapse) {
        EXPECT_GT(expanded, 0u) << tag << ": nothing collapsed";
        EXPECT_NE(collapsed.summary.find("collapsed runs"), std::string::npos)
            << collapsed.summary;
        EXPECT_NE(collapsed.journal.find("\"collapsed_from\""), std::string::npos);
        EXPECT_NE(collapsed.json.find("\"collapsed_from\""), std::string::npos);
    }

    // Within collapsed mode, 8 workers are byte-identical to serial.
    const CampaignOutput wide = runCampaign(factory, faults, 8, true, tag + "_wide");
    EXPECT_EQ(wide.journal, collapsed.journal) << tag << ": 8-worker journal differs";
    EXPECT_EQ(wide.summary, collapsed.summary) << tag << ": 8-worker summary differs";
    EXPECT_EQ(wide.json, collapsed.json) << tag << ": 8-worker JSON differs";
}

std::vector<fault::FaultSpec> chainSweep()
{
    std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
    for (const std::string& sab : duts::ChainDutTestbench::chainSaboteurs()) {
        faults.emplace_back(fault::DigitalPulseFault{sab, kMicrosecond, 2 * kNanosecond});
        faults.emplace_back(
            fault::StuckAtFault{sab, digital::Logic::One, kMicrosecond, 40 * kNanosecond});
    }
    faults.emplace_back(fault::DigitalPulseFault{duts::ChainDutTestbench::deadSaboteur(),
                                                 kMicrosecond, 2 * kNanosecond});
    faults.emplace_back(fault::StuckAtFault{duts::ChainDutTestbench::deadSaboteur(),
                                            digital::Logic::Zero, kMicrosecond, 0});
    return faults;
}

TEST(AnalyzeCollapse, ChainCampaignByteIdentical)
{
    expectCollapsedEqualsFull([] { return std::make_unique<duts::ChainDutTestbench>(); },
                              chainSweep(), "chain", /*expectCollapse=*/true);
}

TEST(AnalyzeCollapse, DigitalDutCampaignByteIdentical)
{
    const duts::DigitalDutTestbench probe;
    std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
    const SimTime t = 2 * kMicrosecond + 7 * kNanosecond;
    for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
        faults.emplace_back(fault::BitFlipFault{name, 0, t});
        (void)hook;
    }
    for (const std::string& sab : probe.digitalSaboteurNames()) {
        faults.emplace_back(fault::DigitalPulseFault{sab, t, 25 * kNanosecond});
        faults.emplace_back(fault::StuckAtFault{sab, digital::Logic::One, t, 0});
    }
    ASSERT_GE(faults.size(), 6u);
    // The digital DUT observes its whole cone: nothing may collapse, and the
    // collapsed mode must degrade to a plain campaign.
    expectCollapsedEqualsFull([] { return std::make_unique<duts::DigitalDutTestbench>(); },
                              faults, "dut", /*expectCollapse=*/false);
}

TEST(AnalyzeCollapse, CpuSystemCampaignByteIdentical)
{
    duts::CpuSystemConfig cfg;
    const duts::CpuSystemTestbench probe(cfg);
    std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
    const auto names = probe.sim().digital().instrumentation().names();
    std::size_t added = 0;
    for (const std::string& name : names) {
        if (added == 8) {
            break;
        }
        faults.emplace_back(
            fault::BitFlipFault{name, 0, 2 * kMicrosecond + static_cast<SimTime>(added) * 41});
        ++added;
    }
    ASSERT_GE(faults.size(), 5u);
    expectCollapsedEqualsFull(
        [cfg] { return std::make_unique<duts::CpuSystemTestbench>(cfg); }, faults, "cpu",
        /*expectCollapse=*/false);
}

// Mid-campaign journal resume under collapsing: phase 1 journals the first k
// runs (representatives AND expansions) and dies; phase 2 restores them and
// finishes. The converged journal must equal the uninterrupted one.
TEST(AnalyzeCollapse, JournalResumeConvergesToCollapsedBytes)
{
    const auto factory = [] { return std::make_unique<duts::ChainDutTestbench>(); };
    const std::vector<fault::FaultSpec> faults = chainSweep();

    const CampaignOutput reference = runCampaign(factory, faults, 1, true, "resume_ref");

    const std::string path = ::testing::TempDir() + "gfi_analyze_resume.jsonl";
    std::remove(path.c_str());
    const std::size_t k = faults.size() / 2;
    {
        campaign::CampaignRunner partial(factory);
        partial.setRecordTiming(false);
        partial.setFaultCollapsing(true);
        partial.setJournalPath(path);
        (void)partial.run({faults.begin(), faults.begin() + static_cast<long>(k)});
    }
    campaign::CampaignRunner resumed(factory);
    resumed.setRecordTiming(false);
    resumed.setFaultCollapsing(true);
    resumed.setJournalPath(path);
    resumed.setWorkers(2);
    const campaign::CampaignReport report = resumed.run(faults);

    for (std::size_t i = 0; i < k; ++i) {
        EXPECT_TRUE(report.runs[i].diagnostics.fromJournal) << i;
    }
    EXPECT_EQ(slurp(path), reference.journal);
    std::remove(path.c_str());
}

// The GFI_COLLAPSE environment variable enables collapsing; the explicit
// setter wins in both directions.
TEST(AnalyzeCollapse, EnvVarEnablesAndExplicitOptOutWins)
{
    const std::vector<fault::FaultSpec> faults = chainSweep();
    const auto factory = [] { return std::make_unique<duts::ChainDutTestbench>(); };

    ::setenv("GFI_COLLAPSE", "1", 1);
    {
        campaign::CampaignRunner runner(factory);
        runner.setRecordTiming(false);
        const campaign::CampaignReport report = runner.run(faults);
        std::size_t expanded = 0;
        for (const campaign::RunResult& r : report.runs) {
            expanded += r.diagnostics.collapsedFrom.empty() ? 0 : 1;
        }
        EXPECT_GT(expanded, 0u);
    }
    {
        campaign::CampaignRunner runner(factory);
        runner.setRecordTiming(false);
        runner.setFaultCollapsing(false); // explicit opt-out beats the environment
        const campaign::CampaignReport report = runner.run(faults);
        for (const campaign::RunResult& r : report.runs) {
            EXPECT_TRUE(r.diagnostics.collapsedFrom.empty());
        }
    }
    ::unsetenv("GFI_COLLAPSE");
}

// ---------------------------------------------------------------------------
// journal round-trip of the provenance field

TEST(AnalyzeCollapse, JournalRoundTripsCollapsedFrom)
{
    campaign::RunResult r;
    r.fault = fault::DigitalPulseFault{"sab/c1", kMicrosecond, 2 * kNanosecond};
    r.outcome = campaign::Outcome::TransientError;
    r.diagnostics.collapsedFrom = "pulse sab/c5 @1us width 2ns";
    const std::string line = campaign::CampaignJournal::entryToJson(3, r);
    EXPECT_NE(line.find("\"collapsed_from\""), std::string::npos) << line;
    const auto parsed = campaign::CampaignJournal::parseLine(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->result.diagnostics.collapsedFrom, r.diagnostics.collapsedFrom);

    // Absent field parses to empty (old journals stay readable).
    campaign::RunResult plain;
    plain.outcome = campaign::Outcome::Silent;
    const auto reparsed =
        campaign::CampaignJournal::parseLine(campaign::CampaignJournal::entryToJson(0, plain));
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_TRUE(reparsed->result.diagnostics.collapsedFrom.empty());
}

// ---------------------------------------------------------------------------
// SignalGraph against a naive reference built from its public view

using digital::ProcessConnectivity;
using digital::SignalBase;

/// True when process name @p pn lies inside component @p prefix.
bool ownedBy(const std::string& pn, const std::string& prefix)
{
    return pn.compare(0, prefix.size(), prefix) == 0 &&
           (pn.size() == prefix.size() || pn[prefix.size()] == '/');
}

/// Observability by the definition: seed the sinks, then close backward,
/// scanning every process for drivers of each dequeued node.
std::vector<bool> naiveObservable(const analyze::SignalGraph& g)
{
    const auto& nodes = g.nodes();
    std::vector<bool> obs(nodes.size(), false);
    std::deque<int> queue;
    const auto enqueue = [&](int node) {
        if (node >= 0 && !obs[static_cast<std::size_t>(node)]) {
            obs[static_cast<std::size_t>(node)] = true;
            queue.push_back(node);
        }
    };
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].observedTrace || nodes[i].watched) {
            enqueue(static_cast<int>(i));
        }
    }
    for (const std::string& hook : g.observedStateHooks()) {
        const digital::Component* comp = g.componentOfHook(hook);
        if (comp == nullptr) {
            continue;
        }
        for (const ProcessConnectivity* p : g.processes()) {
            if (ownedBy(p->process->name(), comp->name())) {
                for (SignalBase* s : analyze::SignalGraph::inputsOf(*p)) {
                    enqueue(g.indexOf(s));
                }
            }
        }
    }
    while (!queue.empty()) {
        const int node = queue.front();
        queue.pop_front();
        for (const ProcessConnectivity* p : g.processes()) {
            bool drives = false;
            for (SignalBase* s : p->drives) {
                drives = drives || g.indexOf(s) == node;
            }
            if (drives) {
                for (SignalBase* s : analyze::SignalGraph::inputsOf(*p)) {
                    enqueue(g.indexOf(s));
                }
            }
        }
    }
    return obs;
}

/// Levels by the definition: a signal is -1 when a combinational driver sits
/// on a combinational cycle or reads a -1 signal, else 0 without a
/// combinational driver, else 1 + its deepest combinational driver input.
std::vector<int> naiveLevels(const analyze::SignalGraph& g)
{
    const auto& nodes = g.nodes();
    std::vector<const ProcessConnectivity*> comb;
    for (const ProcessConnectivity* p : g.processes()) {
        if (!p->sequential) {
            comb.push_back(p);
        }
    }
    const auto isComb = [&](const ProcessConnectivity* p) {
        return std::find(comb.begin(), comb.end(), p) != comb.end();
    };
    const auto successors = [&](const ProcessConnectivity* p) {
        std::vector<const ProcessConnectivity*> out;
        for (SignalBase* s : p->drives) {
            for (const ProcessConnectivity* r : g.readersOf(g.indexOf(s))) {
                if (isComb(r)) {
                    out.push_back(r);
                }
            }
        }
        return out;
    };
    std::set<const ProcessConnectivity*> cyclic;
    for (const ProcessConnectivity* p : comb) {
        std::set<const ProcessConnectivity*> seen;
        std::vector<const ProcessConnectivity*> stack = successors(p);
        while (!stack.empty()) {
            const ProcessConnectivity* q = stack.back();
            stack.pop_back();
            if (q == p) {
                cyclic.insert(p);
                break;
            }
            if (seen.insert(q).second) {
                for (const ProcessConnectivity* r : successors(q)) {
                    stack.push_back(r);
                }
            }
        }
    }
    std::vector<int> level(nodes.size(), 0);
    std::vector<bool> done(nodes.size(), false);
    const std::function<int(int)> levelOf = [&](int node) -> int {
        const auto n = static_cast<std::size_t>(node);
        if (done[n]) {
            return level[n];
        }
        int l = 0;
        for (const ProcessConnectivity* p : comb) {
            if (std::find(p->drives.begin(), p->drives.end(), nodes[n].signal) ==
                p->drives.end()) {
                continue;
            }
            if (cyclic.count(p) != 0) {
                l = -1;
                break;
            }
            int in = 0;
            for (SignalBase* s : analyze::SignalGraph::inputsOf(*p)) {
                const int li = levelOf(g.indexOf(s));
                if (li < 0) {
                    in = -1;
                    break;
                }
                in = std::max(in, li);
            }
            if (in < 0) {
                l = -1;
                break;
            }
            l = std::max(l, in + 1);
        }
        done[n] = true;
        level[n] = l;
        return l;
    };
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        (void)levelOf(static_cast<int>(i));
    }
    return level;
}

void expectGraphMatchesNaive(const fault::Testbench& tb, const std::string& what)
{
    const analyze::SignalGraph g(tb);
    const std::vector<bool> obs = naiveObservable(g);
    const std::vector<int> level = naiveLevels(g);
    std::size_t cyclic = 0;
    std::size_t observable = 0;
    for (std::size_t i = 0; i < g.nodes().size(); ++i) {
        const analyze::NodeInfo& n = g.nodes()[i];
        EXPECT_EQ(n.observable, obs[i]) << what << ": " << n.signal->name();
        EXPECT_EQ(n.level, level[i]) << what << ": " << n.signal->name();
        cyclic += level[i] < 0 ? 1 : 0;
        observable += obs[i] ? 1 : 0;
    }
    EXPECT_EQ(g.cyclicSignals(), cyclic) << what;
    EXPECT_GT(observable, 0u) << what;
}

/// A seeded layered combinational .bench: @p inputs primary inputs, then
/// @p layers layers of @p width gates, each reading the layer before it; the
/// last @p unread gates of every inner layer feed nothing.
std::string layeredBench(int inputs, int layers, int width, int unread, std::uint64_t seed)
{
    static const char* const kKinds[] = {"NAND", "NOR", "AND", "OR", "XOR", "XNOR", "NOT", "BUFF"};
    Rng rng(seed);
    std::ostringstream out;
    std::vector<std::string> prev;
    for (int i = 0; i < inputs; ++i) {
        prev.push_back("I" + std::to_string(i));
        out << "INPUT(" << prev.back() << ")\n";
    }
    for (int g = 0; g < width; ++g) {
        out << "OUTPUT(L" << layers - 1 << "_" << g << ")\n";
    }
    for (int l = 0; l < layers; ++l) {
        // Gates the next layer may read: every gate of an input-side layer
        // is read, the last `unread` of an inner layer are dead ends.
        const int readable = l + 1 < layers && l > 0 ? width - unread : width;
        std::vector<std::string> cur;
        for (int g = 0; g < width; ++g) {
            const std::string name = "L" + std::to_string(l) + "_" + std::to_string(g);
            const char* kind = kKinds[rng.below(8)];
            const bool unary = std::string(kind) == "NOT" || std::string(kind) == "BUFF";
            // Gate g always reads prev[g % n] so every readable net has a reader.
            const std::string a = prev[static_cast<std::size_t>(g) % prev.size()];
            out << name << " = " << kind << "(" << a;
            if (!unary) {
                std::string b = a;
                while (b == a) {
                    b = prev[rng.below(prev.size())];
                }
                out << ", " << b;
            }
            out << ")\n";
            cur.push_back(name);
        }
        cur.resize(static_cast<std::size_t>(readable));
        prev = std::move(cur);
    }
    return out.str();
}

/// A two-gate zero-delay ring feeding an observed buffer: a real
/// combinational cycle, so the -1 level path is exercised.
class CombLoopTestbench : public fault::Testbench {
public:
    CombLoopTestbench()
    {
        auto& dig = sim().digital();
        auto& a = dig.logicSignal("loop/a", digital::Logic::Zero);
        auto& b = dig.logicSignal("loop/b", digital::Logic::One);
        auto& y = dig.logicSignal("loop/y", digital::Logic::Zero);
        auto& z = dig.logicSignal("loop/z", digital::Logic::Zero);
        dig.add<digital::NotGate>(dig, "loop/inv1", a, b, 0);
        dig.add<digital::NotGate>(dig, "loop/inv2", b, a, 0);
        dig.add<digital::BufGate>(dig, "loop/buf", b, y);
        dig.add<digital::BufGate>(dig, "loop/buf2", y, z);
        observeDigital("loop/z");
        setDuration(kMicrosecond);
    }
};

TEST(AnalyzeGraph, MatchesNaiveReferenceOnEveryDesign)
{
    expectGraphMatchesNaive(duts::DigitalDutTestbench(), "DigitalDut");
    expectGraphMatchesNaive(duts::ChainDutTestbench(), "ChainDut");
    expectGraphMatchesNaive(duts::CpuSystemTestbench(), "CpuSystem");
    expectGraphMatchesNaive(pll::PllTestbench(), "PLL");
    pll::PllConfig structural;
    structural.structuralPfd = true;
    expectGraphMatchesNaive(pll::PllTestbench(structural), "PLL (structural PFD)");

    for (const char* name : {"c17.bench", "parity8.bench"}) {
        const io::IngestWorkload w = io::makeWorkload(
            io::parseNetlistFile(std::string(GFI_TESTCASES_DIR) + "/" + name));
        expectGraphMatchesNaive(*w.factory()(), name);
    }

    const std::string text = layeredBench(16, 20, 26, 3, 0x6A7E);
    const io::NetlistDesc desc = io::parseNetlist(text, "layered.bench");
    ASSERT_GE(desc.gates.size(), 500u);
    io::IngestConfig config;
    config.patternCount = 4;
    config.patternPeriod = 60 * kNanosecond;
    const io::IngestWorkload layered = io::makeWorkload(desc, config);
    const std::unique_ptr<fault::Testbench> tb = layered.factory()();
    expectGraphMatchesNaive(*tb, "layered");
    const analyze::SignalGraph g(*tb);
    std::size_t dead = 0;
    for (const analyze::NodeInfo& n : g.nodes()) {
        dead += n.observable ? 0 : 1;
    }
    EXPECT_GT(dead, 0u) << "the unread gates must leave unobservable cones";
    EXPECT_GE(g.maxLevel(), 20);

    const CombLoopTestbench loop;
    expectGraphMatchesNaive(loop, "comb loop");
    EXPECT_GT(analyze::SignalGraph(loop).cyclicSignals(), 0u);
}

// ---------------------------------------------------------------------------
// PRE007: statically-unobservable fault targets

TEST(AnalyzePreflight, Pre007WarnsOnDeadTargets)
{
    duts::ChainDutTestbench tb;
    const std::vector<fault::FaultSpec> faults{
        fault::DigitalPulseFault{duts::ChainDutTestbench::deadSaboteur(), kMicrosecond,
                                 2 * kNanosecond},
        fault::DigitalPulseFault{"sab/c2", kMicrosecond, 2 * kNanosecond},
    };
    const lint::Report rep = lint::preflightCampaign(tb, faults);
    EXPECT_EQ(rep.count(lint::Severity::Error), 0u) << rep.table();
    EXPECT_GT(rep.count(lint::Severity::Warning), 0u);
    EXPECT_NE(rep.table().find("PRE007"), std::string::npos) << rep.table();
    EXPECT_NE(rep.table().find("sab/dead"), std::string::npos) << rep.table();
    EXPECT_EQ(rep.table().find("sab/c2"), std::string::npos)
        << "live targets must not warn:\n"
        << rep.table();

    // Warnings never block the campaign.
    campaign::CampaignRunner runner([] { return std::make_unique<duts::ChainDutTestbench>(); });
    runner.setRecordTiming(false);
    const campaign::CampaignReport report = runner.run(faults);
    EXPECT_EQ(report.runs.size(), 2u);
    EXPECT_EQ(report.runs[0].outcome, campaign::Outcome::Silent)
        << "a dead-branch fault cannot reach the observed outputs";
}

} // namespace
} // namespace gfi
