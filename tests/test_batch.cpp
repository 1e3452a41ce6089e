// Bit-parallel batch backend: differential equivalence with the event-driven
// kernel.
//
// The contract under test: a campaign run with the batch backend enabled
// produces *identical observable output* to the event-driven run — the same
// per-fault classifications, byte-identical journals (modulo the additive
// "batch_lane" provenance key), identical summary/detail/JSON reports — on
// every digital DUT, at 1 and 8 workers, with fault collapsing on and off.
// Designs the word compiler cannot lift (CpuSystem's custom components) must
// fall back wholesale and still match. A seeded random-netlist fuzzer sweeps
// ≥100 generated circuits × random fault lists through both backends, and a
// mid-campaign journal resume of a batched campaign must reproduce the
// uninterrupted run byte-for-byte.

#include "batch/backend.hpp"
#include "batch/word_model.hpp"
#include "batch/word_sim.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/saboteur.hpp"
#include "digital/gates.hpp"
#include "digital/sequential.hpp"
#include "digital/stimulus.hpp"
#include "duts/chain_dut.hpp"
#include "duts/cpu_system.hpp"
#include "duts/digital_dut.hpp"
#include "trace/compare.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace gfi::campaign {
namespace {

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Removes every `, "batch_lane": N` provenance key — the only journal bytes
/// the batch backend is allowed to add relative to the event-driven kernel.
std::string stripBatchLane(std::string s)
{
    const std::string key = ", \"batch_lane\": ";
    std::size_t pos = 0;
    while ((pos = s.find(key, pos)) != std::string::npos) {
        std::size_t end = pos + key.size();
        while (end < s.size() && std::isdigit(static_cast<unsigned char>(s[end]))) {
            ++end;
        }
        s.erase(pos, end - pos);
    }
    return s;
}

/// Removes the value of the trailing batch_lane CSV column (batched rows end
/// ",N"; event-driven rows end ","), leaving the rest of the row untouched.
std::string stripCsvLaneColumn(std::string s)
{
    std::string out;
    out.reserve(s.size());
    std::size_t start = 0;
    while (start < s.size()) {
        std::size_t end = s.find('\n', start);
        if (end == std::string::npos) {
            end = s.size();
        }
        std::size_t cut = end;
        while (cut > start && std::isdigit(static_cast<unsigned char>(s[cut - 1]))) {
            --cut;
        }
        if (cut == end || cut == start || s[cut - 1] != ',') {
            cut = end; // not a ",<digits>" tail — keep the line as-is
        }
        out.append(s, start, cut - start);
        if (end < s.size()) {
            out += '\n';
        }
        start = end + 1;
    }
    return out;
}

struct CampaignOutput {
    std::string journal; ///< raw JSONL bytes
    std::string summary;
    std::string detail;
    std::string json;
    std::string csv;
    CampaignReport report;
};

CampaignOutput runOne(const fault::TestbenchFactory& factory,
                      const std::vector<fault::FaultSpec>& faults, unsigned workers,
                      bool batch, bool collapse, const std::string& tag)
{
    const std::string path = ::testing::TempDir() + "gfi_batch_" + tag + "_" +
                             std::to_string(workers) + (batch ? "_b" : "_e") +
                             (collapse ? "_c" : "_n") + ".jsonl";
    std::remove(path.c_str());
    CampaignRunner runner(factory);
    runner.setWorkers(workers);
    runner.setRecordTiming(false); // wall clock is the only nondeterministic field
    runner.setJournalPath(path);
    runner.setBatchBackend(batch);
    runner.setFaultCollapsing(collapse);
    CampaignOutput out;
    out.report = runner.run(faults);
    out.journal = slurp(path);
    out.summary = out.report.summaryTable();
    out.detail = out.report.detailTable();
    out.json = reportToJson(out.report);
    const std::string csvPath = path + ".csv";
    writeReportCsv(out.report, csvPath);
    out.csv = slurp(csvPath);
    std::remove(csvPath.c_str());
    std::remove(path.c_str());
    return out;
}

/// Runs @p faults through both backends at 1 and 8 workers, collapse off and
/// on, and requires byte-identical output. @p expectLanes says whether the
/// batched journal must (true) or must not (false) carry lane provenance.
void expectBatchEqualsEvent(const fault::TestbenchFactory& factory,
                            const std::vector<fault::FaultSpec>& faults,
                            const std::string& tag, bool expectLanes)
{
    // Batched outputs (lane fields included) must also be byte-identical
    // across worker widths: lane assignment is list-order deterministic.
    std::map<bool, CampaignOutput> batchAtOneWorker;
    for (const unsigned workers : {1u, 8u}) {
        for (const bool collapse : {false, true}) {
            const std::string where = tag + " workers=" + std::to_string(workers) +
                                      " collapse=" + (collapse ? "on" : "off");
            const CampaignOutput event =
                runOne(factory, faults, workers, false, collapse, tag);
            const CampaignOutput batch =
                runOne(factory, faults, workers, true, collapse, tag);
            ASSERT_EQ(event.report.runs.size(), faults.size()) << where;
            EXPECT_FALSE(event.journal.empty()) << where;
            EXPECT_EQ(stripBatchLane(batch.journal), event.journal)
                << where << ": journal not byte-identical";
            EXPECT_EQ(batch.summary, event.summary) << where << ": summary differs";
            EXPECT_EQ(batch.detail, event.detail) << where << ": detail table differs";
            EXPECT_EQ(stripBatchLane(batch.json), event.json)
                << where << ": JSON report differs";
            EXPECT_EQ(stripCsvLaneColumn(batch.csv), event.csv)
                << where << ": CSV report differs";
            if (expectLanes) {
                EXPECT_NE(batch.journal.find("\"batch_lane\""), std::string::npos)
                    << where << ": batched journal carries no lane provenance — "
                              "the backend silently fell back";
            } else {
                EXPECT_EQ(batch.journal.find("\"batch_lane\""), std::string::npos)
                    << where << ": design-ineligible campaign must not record lanes";
            }
            ASSERT_EQ(batch.report.runs.size(), event.report.runs.size()) << where;
            for (std::size_t i = 0; i < event.report.runs.size(); ++i) {
                EXPECT_EQ(batch.report.runs[i].outcome, event.report.runs[i].outcome)
                    << where << ": fault " << i << " reclassified";
                EXPECT_EQ(batch.report.runs[i].erredSignals,
                          event.report.runs[i].erredSignals)
                    << where << ": fault " << i;
                EXPECT_EQ(batch.report.runs[i].corruptedState,
                          event.report.runs[i].corruptedState)
                    << where << ": fault " << i;
                EXPECT_EQ(batch.report.runs[i].diagnostics.digitalWaves,
                          event.report.runs[i].diagnostics.digitalWaves)
                    << where << ": fault " << i << " wave count diverged";
            }
            if (workers == 1) {
                batchAtOneWorker[collapse] = batch;
            } else {
                const CampaignOutput& serial = batchAtOneWorker[collapse];
                EXPECT_EQ(batch.journal, serial.journal)
                    << where << ": batched journal not worker-width invariant";
                EXPECT_EQ(batch.json, serial.json)
                    << where << ": batched JSON not worker-width invariant";
                EXPECT_EQ(batch.csv, serial.csv)
                    << where << ": batched CSV not worker-width invariant";
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Curated DUTs

/// Every registered digital fault on the DigitalDut — bit flips across all
/// state hooks, stuck-ats and SET pulses on every saboteur, an FSM transition
/// corruption and a state write. The SET pulses are deliberately included:
/// they are batch-INeligible (timing-dependent) and must fall back per-fault
/// while their eligible neighbours batch.
std::vector<fault::FaultSpec> digitalDutFaults()
{
    std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
    const duts::DigitalDutTestbench probe;
    const auto& registry = probe.sim().digital().instrumentation();
    const SimTime t = 2 * kMicrosecond + 7 * kNanosecond;
    for (const auto& [name, hook] : registry.all()) {
        faults.emplace_back(fault::BitFlipFault{name, 0, t});
        if (hook.width > 1) {
            faults.emplace_back(
                fault::BitFlipFault{name, hook.width - 1, t + 40 * kNanosecond});
            faults.emplace_back(
                fault::DoubleBitFlipFault{name, 0, hook.width - 1, t + 11 * kNanosecond});
        }
        faults.emplace_back(fault::StateWriteFault{name, 0x2A, t + 23 * kNanosecond});
    }
    for (const std::string& sab : probe.digitalSaboteurNames()) {
        faults.emplace_back(fault::StuckAtFault{sab, digital::Logic::One, t, 0});
        faults.emplace_back(
            fault::StuckAtFault{sab, digital::Logic::Zero, t, 300 * kNanosecond});
        faults.emplace_back(fault::DigitalPulseFault{sab, t, 25 * kNanosecond});
    }
    faults.emplace_back(fault::FsmTransitionFault{"dut/fsm", 3, t + 5 * kNanosecond});
    return faults;
}

TEST(BatchCampaign, DigitalDutEquivalence)
{
    const auto factory = [] { return std::make_unique<duts::DigitalDutTestbench>(); };
    const auto faults = digitalDutFaults();
    ASSERT_GE(faults.size(), 20u);
    expectBatchEqualsEvent(factory, faults, "digital", /*expectLanes=*/true);
}

TEST(BatchCampaign, ChainDutEquivalence)
{
    const auto factory = [] { return std::make_unique<duts::ChainDutTestbench>(); };
    std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
    const duts::ChainDutTestbench probe;
    const SimTime t = 800 * kNanosecond + 3 * kNanosecond;
    for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
        faults.emplace_back(fault::BitFlipFault{name, 0, t});
        if (hook.width > 1) {
            faults.emplace_back(
                fault::BitFlipFault{name, hook.width - 1, t + 60 * kNanosecond});
        }
    }
    for (const std::string& sab : probe.digitalSaboteurNames()) {
        faults.emplace_back(fault::StuckAtFault{sab, digital::Logic::One, t, 0});
        faults.emplace_back(
            fault::StuckAtFault{sab, digital::Logic::Zero, t + 20 * kNanosecond,
                                150 * kNanosecond});
    }
    ASSERT_GE(faults.size(), 8u);
    expectBatchEqualsEvent(factory, faults, "chain", /*expectLanes=*/true);
}

// CpuSystem overrides run() and registers components (TinyCpu, Ram) outside
// the word library: the whole design is batch-ineligible. Enabling the batch
// backend must be a silent no-op — every fault runs event-driven and no lane
// provenance appears.
TEST(BatchCampaign, CpuSystemFallsBackWholeDesign)
{
    const auto factory = [] { return std::make_unique<duts::CpuSystemTestbench>(); };
    const duts::CpuSystemTestbench probe;
    {
        const batch::CompileResult compiled = batch::compileWordModel(probe);
        EXPECT_EQ(compiled.model, nullptr);
        EXPECT_FALSE(compiled.reason.empty());
    }
    std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
    const auto names = probe.sim().digital().instrumentation().names();
    const SimTime t = 2 * kMicrosecond + 13 * kNanosecond;
    for (std::size_t i = 0; i < names.size() && i < 5; ++i) {
        faults.emplace_back(fault::BitFlipFault{names[i], 0, t});
    }
    ASSERT_GE(faults.size(), 4u);
    expectBatchEqualsEvent(factory, faults, "cpu", /*expectLanes=*/false);
}

// ---------------------------------------------------------------------------
// Property-based fuzz: random netlists × random fault lists

using digital::Bus;
using digital::ClockGen;
using digital::DFlipFlop;
using digital::Gate;
using digital::GateKind;
using digital::Lfsr;
using digital::Logic;
using digital::LogicSignal;
using digital::StimulusSchedule;

/// A seeded, acyclic random netlist built only from word-library components:
/// an 8-bit LFSR stimulus feeding a random DAG of gates, a few DFFs and one
/// or two saboteur-instrumented interconnects. Acyclicity holds by
/// construction (gate inputs are drawn only from already-created signals) and
/// observed names are distinct (drawn from a set).
class RandomNetlistTestbench : public fault::Testbench {
public:
    explicit RandomNetlistTestbench(std::uint64_t seed)
    {
        Rng rng(0x5EEDu ^ (seed * 0x9E3779B97F4A7C15ull));
        auto& dig = sim().digital();
        const SimTime period = 20 * kNanosecond;

        auto& clk = dig.logicSignal("rn/clk", Logic::Zero);
        dig.add<ClockGen>(dig, "rn/clkgen", clk, period);
        auto& rstn = dig.logicSignal("rn/rstn", Logic::Zero);
        dig.noteExternalDriver(rstn);
        auto& stim = dig.add<StimulusSchedule>(dig, "rn/stim");
        stim.at(3 * period / 2, rstn, Logic::One);

        Bus q = dig.bus("rn/lfsr_q", 8, Logic::Zero);
        dig.add<Lfsr>(dig, "rn/lfsr", clk, q, /*taps=*/0xB8,
                      /*seed=*/1 + (rng.next() & 0x7F), &rstn);

        std::vector<LogicSignal*> pool;
        for (int b = 0; b < 8; ++b) {
            pool.push_back(&q.bit(b));
        }
        const auto pick = [&]() -> LogicSignal& {
            return *pool[rng.below(pool.size())];
        };

        const int gates = 8 + static_cast<int>(rng.below(7));
        static constexpr GateKind kKinds[] = {GateKind::And,  GateKind::Or,
                                              GateKind::Nand, GateKind::Nor,
                                              GateKind::Xor,  GateKind::Xnor,
                                              GateKind::Buf,  GateKind::Not};
        for (int i = 0; i < gates; ++i) {
            const GateKind kind = kKinds[rng.below(8)];
            std::size_t fanin = 2 + rng.below(2);
            if (kind == GateKind::Buf || kind == GateKind::Not) {
                fanin = 1;
            } else if (kind == GateKind::Xor || kind == GateKind::Xnor) {
                fanin = 2; // keep parity semantics identical across backends
            }
            std::vector<LogicSignal*> in;
            for (std::size_t k = 0; k < fanin; ++k) {
                in.push_back(&pick());
            }
            auto& out =
                dig.logicSignal("rn/g" + std::to_string(i), Logic::Zero);
            dig.add<Gate>(dig, "rn/gate" + std::to_string(i), kind, in, out);
            pool.push_back(&out);

            if (i % 5 == 2) { // instrument some interconnects with saboteurs
                auto& sabOut =
                    dig.logicSignal("rn/g" + std::to_string(i) + "_sab", Logic::Zero);
                auto& sab = dig.add<fault::DigitalSaboteur>(
                    dig, "rn/sab" + std::to_string(i), out, sabOut);
                addDigitalSaboteur(sab);
                pool.push_back(&sabOut);
            }
        }
        const int ffs = 2 + static_cast<int>(rng.below(3));
        for (int i = 0; i < ffs; ++i) {
            auto& d = pick();
            auto& ffq = dig.logicSignal("rn/ff" + std::to_string(i) + "_q", Logic::Zero);
            dig.add<DFlipFlop>(dig, "rn/ff" + std::to_string(i), clk, d, ffq, &rstn);
            pool.push_back(&ffq);
        }

        std::set<std::string> observed;
        while (observed.size() < 4) {
            observed.insert(pick().name());
        }
        for (const std::string& name : observed) {
            observeDigital(name);
        }
        observeAllState();
        setDuration(600 * kNanosecond);
    }
};

TEST(BatchFuzz, RandomNetlistsMatchEventDriven)
{
    int lanesSeen = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const auto factory = [seed] {
            return std::make_unique<RandomNetlistTestbench>(seed);
        };
        Rng rng(0xFA11 + seed);
        const RandomNetlistTestbench probe(seed);
        std::vector<fault::FaultSpec> faults{fault::FaultSpec{}};
        const auto randomTime = [&rng] {
            return (40 + static_cast<SimTime>(rng.below(520))) * kNanosecond;
        };
        for (const std::string& sab : probe.digitalSaboteurNames()) {
            faults.emplace_back(fault::StuckAtFault{
                sab, rng.chance(0.5) ? Logic::One : Logic::Zero, randomTime(),
                rng.chance(0.5) ? 0 : static_cast<SimTime>(rng.below(180)) * kNanosecond});
        }
        const auto& hooks = probe.sim().digital().instrumentation().all();
        std::vector<std::string> hookNames;
        hookNames.reserve(hooks.size());
        for (const auto& [name, hook] : hooks) {
            hookNames.push_back(name);
        }
        for (int i = 0; i < 4 && !hookNames.empty(); ++i) {
            const std::string& target = hookNames[rng.below(hookNames.size())];
            const int width = probe.sim().digital().instrumentation().hook(target).width;
            faults.emplace_back(fault::BitFlipFault{
                target, static_cast<int>(rng.below(static_cast<std::uint64_t>(width))),
                randomTime()});
        }
        ASSERT_GE(faults.size(), 4u) << "seed " << seed;

        const CampaignOutput event =
            runOne(factory, faults, 1, false, false, "fuzz" + std::to_string(seed));
        const CampaignOutput batch =
            runOne(factory, faults, 1, true, false, "fuzz" + std::to_string(seed));
        ASSERT_EQ(stripBatchLane(batch.journal), event.journal)
            << "seed " << seed << ": journal diverged";
        ASSERT_EQ(batch.summary, event.summary) << "seed " << seed;
        for (std::size_t i = 0; i < event.report.runs.size(); ++i) {
            ASSERT_EQ(batch.report.runs[i].outcome, event.report.runs[i].outcome)
                << "seed " << seed << " fault " << i;
        }
        if (batch.journal.find("\"batch_lane\"") != std::string::npos) {
            ++lanesSeen;
        }
    }
    // The generator emits only word-library components, so the overwhelming
    // majority of seeds must actually batch — equality alone could be
    // trivially satisfied by a backend that always falls back.
    EXPECT_GE(lanesSeen, 95) << "batch backend fell back on too many seeds";
}

// ---------------------------------------------------------------------------
// Journal resume

// Interrupting a batched campaign after k faults and resuming with the full
// list must reproduce the uninterrupted journal byte-for-byte: restored rows
// keep their recorded batch_lane, fresh rows are assigned the same lanes the
// uninterrupted run would have used (lane assignment is restoration-blind).
TEST(BatchCampaign, ResumeReproducesUninterruptedRun)
{
    const auto factory = [] { return std::make_unique<duts::DigitalDutTestbench>(); };
    const auto faults = digitalDutFaults();
    const CampaignOutput reference =
        runOne(factory, faults, 1, true, false, "resume_ref");
    ASSERT_NE(reference.journal.find("\"batch_lane\""), std::string::npos);

    const std::string path = ::testing::TempDir() + "gfi_batch_resume.jsonl";
    std::remove(path.c_str());
    const std::size_t k = faults.size() / 2;
    {
        CampaignRunner partial(factory);
        partial.setWorkers(1);
        partial.setRecordTiming(false);
        partial.setJournalPath(path);
        partial.setBatchBackend(true);
        partial.setFaultCollapsing(false);
        const std::vector<fault::FaultSpec> prefix(faults.begin(),
                                                   faults.begin() + static_cast<long>(k));
        (void)partial.run(prefix);
    }
    ASSERT_FALSE(slurp(path).empty());

    CampaignRunner resumed(factory);
    resumed.setWorkers(1);
    resumed.setRecordTiming(false);
    resumed.setJournalPath(path);
    resumed.setBatchBackend(true);
    resumed.setFaultCollapsing(false);
    const CampaignReport report = resumed.run(faults);
    std::size_t restored = 0;
    for (const RunResult& r : report.runs) {
        restored += r.diagnostics.fromJournal ? 1u : 0u;
    }
    EXPECT_GE(restored, k - 1); // golden may or may not re-run
    EXPECT_EQ(slurp(path), reference.journal)
        << "resumed journal differs from the uninterrupted run";
    std::remove(path.c_str());

    ASSERT_EQ(report.runs.size(), reference.report.runs.size());
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        EXPECT_EQ(report.runs[i].outcome, reference.report.runs[i].outcome)
            << "fault " << i;
        EXPECT_EQ(report.runs[i].diagnostics.batchLane,
                  reference.report.runs[i].diagnostics.batchLane)
            << "fault " << i << ": lane provenance not resume-invariant";
    }
}

// Collapse and batch together give the ordered commit all four verdict
// sources at once: journal-restored rows, word-kernel verdicts, expanded
// collapse members and event-driven runs. The DigitalDut list gains a second
// copy of every saboteur fault (a sampled campaign drawing the same site and
// instant twice), which collapses onto the first. A campaign killed halfway
// (its journal cut to the first half of its lines) and resumed at 1 and 4
// workers must reproduce the uninterrupted journal and JSON report, and the
// progress stream must account for every run exactly once.
TEST(BatchCampaign, CollapsedBatchedResumeReproducesUninterruptedRun)
{
    const auto factory = [] { return std::make_unique<duts::DigitalDutTestbench>(); };
    auto faults = digitalDutFaults();
    const std::size_t original = faults.size();
    for (std::size_t i = 0; i < original; ++i) {
        if (std::holds_alternative<fault::StuckAtFault>(faults[i]) ||
            std::holds_alternative<fault::DigitalPulseFault>(faults[i])) {
            faults.push_back(faults[i]);
        }
    }
    const CampaignOutput reference = runOne(factory, faults, 1, true, true, "combined_ref");
    ASSERT_NE(reference.journal.find("\"batch_lane\""), std::string::npos);
    ASSERT_NE(reference.journal.find("\"collapsed_from\""), std::string::npos);

    std::size_t cut = 0;
    for (std::size_t line = 0; line < faults.size() / 2; ++line) {
        cut = reference.journal.find('\n', cut) + 1;
    }
    const std::string killed = reference.journal.substr(0, cut);

    for (const unsigned workers : {1u, 4u}) {
        const std::string where = "workers=" + std::to_string(workers);
        const std::string path = ::testing::TempDir() + "gfi_batch_combined_resume_" +
                                 std::to_string(workers) + ".jsonl";
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << killed;
        }
        std::string doneLine;
        CampaignRunner resumed(factory);
        resumed.setWorkers(workers);
        resumed.setRecordTiming(false);
        resumed.setJournalPath(path);
        resumed.setBatchBackend(true);
        resumed.setFaultCollapsing(true);
        resumed.setProgressSink(
            [&doneLine](const std::string& line) {
                if (line.find("\"event\": \"done\"") != std::string::npos) {
                    doneLine = line;
                }
            },
            0.0);
        const CampaignReport report = resumed.run(faults);
        EXPECT_EQ(slurp(path), reference.journal) << where;
        std::remove(path.c_str());

        // Restored rows carry "from_journal": true by design; nothing else
        // may differ from the uninterrupted run.
        std::string json = reportToJson(report);
        const std::string flag = ", \"from_journal\": true";
        for (std::size_t at = json.find(flag); at != std::string::npos; at = json.find(flag)) {
            json.erase(at, flag.size());
        }
        EXPECT_EQ(json, reference.json) << where;

        std::size_t restored = 0;
        std::size_t batched = 0;
        std::size_t collapsed = 0;
        std::size_t executed = 0;
        for (const RunResult& r : report.runs) {
            const RunDiagnostics& d = r.diagnostics;
            restored += d.fromJournal ? 1 : 0;
            batched += !d.fromJournal && d.batchLane > 0 ? 1 : 0;
            collapsed += !d.fromJournal && !d.collapsedFrom.empty() ? 1 : 0;
            executed += !d.fromJournal && d.batchLane == 0 && d.collapsedFrom.empty() ? 1 : 0;
        }
        EXPECT_GT(restored, 0u) << where;
        EXPECT_GT(batched, 0u) << where;
        EXPECT_GT(collapsed, 0u) << where;
        EXPECT_GT(executed, 0u) << where;
        util::JsonValue done;
        ASSERT_NO_THROW(done = util::parseJson(doneLine)) << where << ": " << doneLine;
        const auto field = [&done](const char* key) {
            return done.find(key)->asInteger<std::size_t>();
        };
        EXPECT_EQ(field("restored"), restored) << where;
        EXPECT_EQ(field("batched"), batched) << where;
        EXPECT_EQ(field("collapsed"), collapsed) << where;
        EXPECT_EQ(field("restored") + field("batched") + field("collapsed") + executed,
                  field("total"))
            << where;
        EXPECT_EQ(field("completed"), field("total")) << where;
    }
}

// ---------------------------------------------------------------------------
// Word-model compile + eligibility unit checks

TEST(BatchWordModel, DigitalDutCompilesAndClassifiesEligibility)
{
    const duts::DigitalDutTestbench probe;
    const batch::CompileResult compiled = batch::compileWordModel(probe);
    ASSERT_NE(compiled.model, nullptr) << compiled.reason;
    const SimTime t = 2 * kMicrosecond;
    const auto eligible = [&](const fault::FaultSpec& f) {
        return batch::faultEligibility(*compiled.model, f);
    };
    EXPECT_TRUE(eligible(fault::StuckAtFault{"sab/enable", Logic::One, t, 0}).eligible);
    EXPECT_TRUE(eligible(fault::BitFlipFault{"dut/cnt", 0, t}).eligible);
    EXPECT_TRUE(eligible(fault::FsmTransitionFault{"dut/fsm", 2, t}).eligible);
    const auto pulse =
        eligible(fault::DigitalPulseFault{"sab/enable", t, 25 * kNanosecond});
    EXPECT_FALSE(pulse.eligible);
    EXPECT_FALSE(pulse.reason.empty());
    const auto stuckX = eligible(fault::StuckAtFault{"sab/enable", Logic::X, t, 0});
    EXPECT_FALSE(stuckX.eligible);
    const auto unknown = eligible(fault::BitFlipFault{"no/such", 0, t});
    EXPECT_FALSE(unknown.eligible);
}

// Groups of one campaign share one compiled model and call DigitalDut's FSM
// callables from several workers at once (the TSan job runs Batch*). Four
// copies of the list give more than 63 eligible faults, so at least two
// groups run concurrently; the output must still match the event kernel.
TEST(BatchCampaign, ConcurrentGroupsShareOneModel)
{
    const auto factory = [] { return std::make_unique<duts::DigitalDutTestbench>(); };
    std::vector<fault::FaultSpec> faults;
    for (int copy = 0; copy < 4; ++copy) {
        const auto list = digitalDutFaults();
        faults.insert(faults.end(), list.begin(), list.end());
    }
    const CampaignOutput event = runOne(factory, faults, 4, false, false, "shared");
    const CampaignOutput batch = runOne(factory, faults, 4, true, false, "shared");
    EXPECT_EQ(stripBatchLane(batch.journal), event.journal);
    EXPECT_EQ(batch.detail, event.detail);
    std::size_t groups = 0;
    int prevLane = 0;
    for (const RunResult& r : batch.report.runs) {
        const int lane = r.diagnostics.batchLane;
        if (lane > 0) {
            groups += prevLane == 0 || lane <= prevLane ? 1 : 0;
            prevLane = lane;
        }
    }
    EXPECT_GE(groups, 2u);
}

// ---------------------------------------------------------------------------
// Per-lane verdicts against the event kernel

/// Lanes by how many observed signals their trace leaves lane 0 on.
struct LaneMix {
    int none = 0;
    int some = 0;
    int all = 0;
};

/// Arms every batch-eligible fault of @p faults in one WordSim (lane = list
/// position + 1) and sorts the lanes by how many observed signals their
/// trace leaves lane 0's on. Then classifies the same faults through
/// runBatchedCampaign and requires the event kernel's verdict figures and
/// erredSignals, in observation order.
LaneMix checkDivergence(const fault::TestbenchFactory& factory,
                        const std::vector<fault::FaultSpec>& candidates, const std::string& tag)
{
    LaneMix mix;
    const std::unique_ptr<fault::Testbench> tb = factory();
    const batch::CompileResult compiled = batch::compileWordModel(*tb);
    EXPECT_NE(compiled.model, nullptr) << tag << ": " << compiled.reason;
    if (!compiled.model) {
        return mix;
    }
    std::vector<fault::FaultSpec> faults;
    for (const fault::FaultSpec& f : candidates) {
        if (batch::faultEligibility(*compiled.model, f).eligible && faults.size() < 63) {
            faults.push_back(f);
        }
    }
    EXPECT_GE(faults.size(), 4u) << tag;

    batch::WordSim sim(*compiled.model);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        EXPECT_TRUE(sim.armFault(static_cast<int>(i) + 1, faults[i])) << tag << " fault " << i;
    }
    EXPECT_TRUE(sim.run()) << tag;
    const std::vector<std::string>& observed = tb->observedDigital();
    const auto sameTrace = [](const trace::DigitalTrace& a, const trace::DigitalTrace& b) {
        return a.initial == b.initial && a.events == b.events;
    };
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const int lane = static_cast<int>(i) + 1;
        std::size_t diverged = 0;
        for (std::size_t k = 0; k < observed.size(); ++k) {
            const int obs = static_cast<int>(k);
            const bool equal = sameTrace(sim.laneTrace(obs, lane, observed[k]),
                                         sim.laneTrace(obs, 0, observed[k]));
            diverged += equal ? 0 : 1;
        }
        if (diverged == 0) {
            ++mix.none;
        } else if (diverged == observed.size()) {
            ++mix.all;
        } else {
            ++mix.some;
        }
    }

    CampaignRunner runner(factory);
    runner.setRecordTiming(false);
    runner.runGolden();
    const fault::Testbench& golden = runner.golden();
    std::map<std::string, std::uint64_t> goldenState;
    for (const std::string& name : golden.observedState()) {
        goldenState[name] = golden.sim().digital().instrumentation().hook(name).get();
    }
    batch::BatchRequest req;
    req.factory = &factory;
    req.golden = &golden;
    req.goldenState = &goldenState;
    req.goldenWaves = golden.sim().digital().scheduler().deltaCycles();
    req.faults = &faults;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        req.candidates.push_back(i);
    }
    req.tolerance = runner.tolerance();
    req.workers = 1;
    req.recordTiming = false;
    std::map<std::size_t, RunResult> out;
    const batch::BatchStats stats = batch::runBatchedCampaign(req, out);
    EXPECT_EQ(stats.groups, 1u) << tag;
    EXPECT_EQ(out.size(), faults.size()) << tag;
    for (const auto& [i, r] : out) {
        EXPECT_EQ(r.diagnostics.batchLane, static_cast<int>(i) + 1) << tag;
        const RunResult event = runner.runOne(faults[i]);
        EXPECT_EQ(r.erredSignals, event.erredSignals) << tag << " fault " << i;
        EXPECT_EQ(r.outcome, event.outcome) << tag << " fault " << i;
        EXPECT_EQ(r.firstOutputError, event.firstOutputError) << tag << " fault " << i;
        EXPECT_EQ(r.totalOutputErrorTime, event.totalOutputErrorTime) << tag << " fault " << i;
        // Observation order: erred signals appear as they do in observed.
        std::size_t at = 0;
        for (const std::string& name : r.erredSignals) {
            while (at < observed.size() && observed[at] != name) {
                ++at;
            }
            EXPECT_LT(at, observed.size()) << tag << " fault " << i << ": " << name;
            ++at;
        }
    }
    return mix;
}

TEST(BatchDivergence, LaneVerdictsMatchEventKernel)
{
    const fault::TestbenchFactory chain = [] {
        return std::make_unique<duts::ChainDutTestbench>();
    };
    std::vector<fault::FaultSpec> chainFaults;
    {
        const duts::ChainDutTestbench probe;
        const SimTime t = 800 * kNanosecond + 3 * kNanosecond;
        for (const std::string& sab : probe.digitalSaboteurNames()) {
            chainFaults.emplace_back(fault::StuckAtFault{sab, Logic::One, t, 0});
            chainFaults.emplace_back(fault::StuckAtFault{sab, Logic::Zero, t, 0});
            chainFaults.emplace_back(
                fault::StuckAtFault{sab, Logic::One, t + 20 * kNanosecond, 150 * kNanosecond});
        }
        for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
            chainFaults.emplace_back(fault::BitFlipFault{name, 0, t});
        }
    }
    const LaneMix c = checkDivergence(chain, chainFaults, "chain");
    EXPECT_GT(c.none, 0) << "the dead branch must leave masked lanes";

    const fault::TestbenchFactory dut = [] {
        return std::make_unique<duts::DigitalDutTestbench>();
    };
    const LaneMix d = checkDivergence(dut, digitalDutFaults(), "digital");
    EXPECT_GT(d.some, 0) << "DigitalDut must have lanes that err on only some outputs";
    EXPECT_GT(c.all + d.all, 0) << "some lane must err on every observed signal";
    EXPECT_GT(c.none + d.none, 0);
}

// ---------------------------------------------------------------------------
// Word-wide window walk

/// Runs every batch-eligible fault of @p candidates in one WordSim (lane =
/// list position + 1) and checks WordSim::laneDiffs against compareDigital
/// of each lane's trace with lane 0's, for every lane and observed slot, at
/// several observation ends (the run's end, trace point times, and times
/// between points) and jitter tolerances. Returns how many (lane, slot, end,
/// tolerance) comparisons erred and how many had windows but all filtered.
std::pair<int, int> checkLaneDiffs(const fault::TestbenchFactory& factory,
                                   const std::vector<fault::FaultSpec>& candidates,
                                   const std::string& tag)
{
    const std::unique_ptr<fault::Testbench> tb = factory();
    const batch::CompileResult compiled = batch::compileWordModel(*tb);
    EXPECT_NE(compiled.model, nullptr) << tag << ": " << compiled.reason;
    if (!compiled.model) {
        return {0, 0};
    }
    batch::WordSim sim(*compiled.model);
    int lanes = 1;
    for (const fault::FaultSpec& f : candidates) {
        if (lanes < 64 && batch::faultEligibility(*compiled.model, f).eligible) {
            EXPECT_TRUE(sim.armFault(lanes++, f)) << tag;
        }
    }
    EXPECT_GE(lanes, 5) << tag;
    EXPECT_TRUE(sim.run()) << tag;

    int erred = 0;
    int filtered = 0;
    const std::vector<std::string>& observed = tb->observedDigital();
    const SimTime duration = compiled.model->duration;
    for (std::size_t k = 0; k < observed.size(); ++k) {
        const int obs = static_cast<int>(k);
        std::vector<SimTime> ends = {duration, duration / 2, 0};
        const auto& points = sim.points(obs);
        for (std::size_t i = 1; i < points.size(); i += std::max<std::size_t>(1, points.size() / 5)) {
            ends.push_back(points[i].time);     // a point exactly at the end
            ends.push_back(points[i].time - 1); // just before it
        }
        const trace::DigitalTrace lane0 = sim.laneTrace(obs, 0, observed[k]);
        for (const SimTime tEnd : ends) {
            for (const SimTime minWindow :
                 {SimTime{0}, kNanosecond, 7 * kNanosecond, 60 * kNanosecond}) {
                const std::array<batch::LaneDiff, 64> diffs = sim.laneDiffs(obs, tEnd, minWindow);
                for (int lane = 0; lane < lanes; ++lane) {
                    const trace::DigitalDiff ref = trace::compareDigital(
                        lane0, sim.laneTrace(obs, lane, observed[k]), tEnd, minWindow);
                    const batch::LaneDiff& d = diffs[static_cast<std::size_t>(lane)];
                    const std::string where = tag + " " + observed[k] + " lane " +
                                              std::to_string(lane) + " tEnd " +
                                              std::to_string(tEnd) + " minWindow " +
                                              std::to_string(minWindow);
                    EXPECT_EQ(d.erred, !ref.identical()) << where;
                    if (d.erred && !ref.identical()) {
                        EXPECT_EQ(d.first, ref.firstMismatch) << where;
                        EXPECT_EQ(d.lastEnd, ref.lastMismatchEnd) << where;
                        EXPECT_EQ(d.total, ref.totalMismatch) << where;
                        EXPECT_EQ(d.lastEnd < tEnd, ref.matchesAt(tEnd)) << where;
                        ++erred;
                    } else if (minWindow > 0 &&
                               !trace::compareDigital(lane0,
                                                      sim.laneTrace(obs, lane, observed[k]),
                                                      tEnd, 0)
                                    .identical()) {
                        ++filtered;
                    }
                }
                // Lanes beyond the armed ones replay lane 0.
                for (std::size_t lane = static_cast<std::size_t>(lanes); lane < 64; ++lane) {
                    EXPECT_FALSE(diffs[lane].erred) << tag << " idle lane " << lane;
                }
            }
        }
    }
    return {erred, filtered};
}

TEST(BatchWindowWalk, LaneDiffsMatchCompareDigital)
{
    const fault::TestbenchFactory chain = [] {
        return std::make_unique<duts::ChainDutTestbench>();
    };
    std::vector<fault::FaultSpec> chainFaults;
    {
        const duts::ChainDutTestbench probe;
        const SimTime t = 800 * kNanosecond + 3 * kNanosecond;
        for (const std::string& sab : probe.digitalSaboteurNames()) {
            chainFaults.emplace_back(fault::StuckAtFault{sab, Logic::One, t, 0});
            chainFaults.emplace_back(
                fault::StuckAtFault{sab, Logic::One, t + 20 * kNanosecond, 3 * kNanosecond});
            chainFaults.emplace_back(
                fault::StuckAtFault{sab, Logic::Zero, t + 40 * kNanosecond, 150 * kNanosecond});
        }
    }
    const auto [chainErred, chainFiltered] = checkLaneDiffs(chain, chainFaults, "chain");

    const fault::TestbenchFactory dut = [] {
        return std::make_unique<duts::DigitalDutTestbench>();
    };
    const auto [dutErred, dutFiltered] = checkLaneDiffs(dut, digitalDutFaults(), "digital");
    EXPECT_GT(chainErred + dutErred, 0);
    EXPECT_GT(chainFiltered + dutFiltered, 0) << "some window must fall below a tolerance";
}

} // namespace
} // namespace gfi::campaign
