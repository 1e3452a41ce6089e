// Campaign benchmark program: runs one of three fault-injection campaign
// workloads at four workers, checks every verdict against a reference
// recorded from the program, and prints the end-to-end metrics (timed mode)
// or the per-layer ledger (traced mode) as one JSON line. perfbench/run.py
// builds this file against ../src and calls it; README.md in this directory
// defines every metric.
//
// Usage:
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--reference <reference.json>] [--record]
//
// Run it from the checkout root: journals and span files go to .bench_run.
//
// The workload inputs come only from --seed (through seed mod kVariants, so
// every input the benchmark can generate has a recorded reference). The
// program under test receives the generated designs, stimuli and fault lists
// through its public API; no probes are added to it. Every campaign mode is
// pinned explicitly, and the GFI_* environment switches that would silently
// change a workload make the program refuse to run.
//
// The simulation models are unvalidated against silicon. The verdict
// references only pin the program's own behaviour at the commit that
// recorded them; the one check against the paper is Figure 8's cumulative
// effect on the PLL workload.

#include "analyze/collapse.hpp"
#include "batch/backend.hpp"
#include "batch/word_model.hpp"
#include "batch/word_sim.hpp"
#include "core/campaign.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "duts/digital_dut.hpp"
#include "io/ingest.hpp"
#include "io/netlist.hpp"
#include "io/sha256.hpp"
#include "obs/telemetry.hpp"
#include "pll/pll.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace gfi;

namespace {

constexpr unsigned kWorkers = 4;  // the campaign width every workload runs at
constexpr int kVariants = 8;      // distinct inputs per workload; seed mod kVariants
constexpr std::size_t kMinSetups = 25;   // setup_s: median of at least this many set-ups,
constexpr std::size_t kMaxSetups = 5000; // topped up towards kSetupBudgetS of set-up time
constexpr double kSetupBudgetS = 0.5;
constexpr const char* kRunDir = ".bench_run"; // journals and span files

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Fn>
double timeIt(Fn&& fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

double median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (@p q in [0, 1]).
double percentile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/// Shortest round-trip decimal rendering of @p v.
std::string num(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

double peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

// --- span ledger (traced mode) ----------------------------------------------

/// In-memory spans recorded around the benchmark's calls into each layer,
/// written out once at exit. Single-threaded: spans open and close on the
/// main thread, nested by a stack that gives each span its parent.
class Ledger {
public:
    struct Span {
        int id = 0;
        int parent = -1;
        std::string name;
        double startUs = 0;
        double endUs = 0;
    };

    /// Runs @p fn inside a span named @p name; returns its wall seconds.
    template <typename Fn>
    double span(const std::string& name, Fn&& fn)
    {
        Span s;
        s.id = static_cast<int>(spans_.size());
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.name = name;
        s.startUs = nowUs();
        spans_.push_back(s);
        stack_.push_back(s.id);
        fn();
        stack_.pop_back();
        spans_[static_cast<std::size_t>(s.id)].endUs = nowUs();
        return (spans_[static_cast<std::size_t>(s.id)].endUs - s.startUs) * 1e-6;
    }

    /// Runs @p fn @p reps times, each inside its own span; returns the
    /// fastest in seconds (best of N resists the host's positive noise).
    template <typename Fn>
    double bestOf(const std::string& name, int reps, Fn&& fn)
    {
        double best = 0;
        for (int i = 0; i < reps; ++i) {
            const double t = span(name, fn);
            best = i == 0 ? t : std::min(best, t);
        }
        return best;
    }

    void write(const std::string& path) const
    {
        std::ofstream out(path);
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \""
                << campaign::jsonEscape(s.name) << "\", \"start_us\": " << num(s.startUs)
                << ", \"dur_us\": " << num(s.endUs - s.startUs) << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

private:
    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// --- workloads ----------------------------------------------------------------

/// One prepared campaign: the generated inputs plus a runner whose every
/// mode is pinned.
struct Prepared {
    std::vector<fault::FaultSpec> faults;
    fault::TestbenchFactory factory;
    std::unique_ptr<campaign::CampaignRunner> runner;
    SimTime duration = 0;
};

/// Pins every campaign mode, so no default or environment decides it.
void pinModes(campaign::CampaignRunner& runner, bool batch, bool collapse, SimTime cadence)
{
    runner.setWorkers(kWorkers);
    runner.setBatchBackend(batch);
    runner.setFaultCollapsing(collapse);
    runner.setCheckpointCadence(cadence > 0 ? cadence : -1);
    runner.setForensics("");
    runner.setPreflight(true);
    runner.setRecordTiming(false);
}

class Workload {
public:
    virtual ~Workload() = default;
    [[nodiscard]] virtual std::string name() const = 0;

    /// Builds the inputs of @p variant, the fault list and a pinned runner.
    [[nodiscard]] virtual Prepared prepare(int variant) const = 0;
};

// dut_seu_event — many short runs (about 4 ms each at one worker). It loads
// testbench construction, the digital event scheduler, scalar
// classification, the executor's ordered commit and journal appends; the
// analog solver, snapshots, the batch backend and io are idle. This is the
// workload behind the parallel-scaling gap: a fixed per-run cost or
// contention shows up here first.
class DutSeuEvent final : public Workload {
public:
    std::string name() const override { return "dut_seu_event"; }

    Prepared prepare(int variant) const override
    {
        Rng rng(0xD07u * 1000u + static_cast<std::uint64_t>(variant));
        duts::DigitalDutConfig cfg;
        cfg.duration = 24 * kMicrosecond;
        cfg.lfsrSeed = 1 + rng.below(255); // any nonzero 8-bit LFSR state

        Prepared p;
        p.duration = cfg.duration;
        p.factory = [cfg] { return std::make_unique<duts::DigitalDutTestbench>(cfg); };

        // Dense batch-eligible SEU population: every state hook x bit (up to
        // 8) plus permanent and windowed stuck-ats on both interconnect
        // saboteurs, at 64 injection rounds spread over the run. The seed
        // jitters each round's instant inside its 187.5 ns slot.
        const std::unique_ptr<fault::Testbench> probe = p.factory();
        const auto& hooks = probe->sim().digital().instrumentation().all();
        const std::vector<std::string> sabs = probe->digitalSaboteurNames();
        for (int round = 0; round < 64; ++round) {
            const SimTime t = cfg.duration / 4 + round * (cfg.duration / 128) +
                              rng.range(1, 150) * kNanosecond;
            for (const auto& [hookName, hook] : hooks) {
                for (int b = 0; b < hook.width && b < 8; ++b) {
                    p.faults.emplace_back(fault::BitFlipFault{hookName, b, t});
                }
            }
            for (const std::string& sab : sabs) {
                p.faults.emplace_back(fault::StuckAtFault{sab, digital::Logic::One, t, 0});
                p.faults.emplace_back(
                    fault::StuckAtFault{sab, digital::Logic::Zero, t, cfg.duration / 16});
            }
        }
        p.runner = std::make_unique<campaign::CampaignRunner>(p.factory);
        pinModes(*p.runner, /*batch=*/false, /*collapse=*/false, /*cadence=*/-1);
        return p;
    }
};

/// Figure 8's pulse parameter sets (PA, RT, FT, PW), exactly the paper's.
struct PulseSet {
    double pa, rt, ft, pw;
};
const PulseSet kFigure8Sets[] = {
    {2e-3, 100e-12, 100e-12, 300e-12},
    {8e-3, 100e-12, 100e-12, 300e-12},
    {10e-3, 40e-12, 40e-12, 120e-12},
    {10e-3, 180e-12, 180e-12, 540e-12},
};
constexpr int kPllInstants = 16;

// pll_fig8_fork — the paper's own case study: few long runs on the mixed
// PLL, forked from golden checkpoints. It loads the analog solver (dense LU
// per Newton iteration), the AMS bridges, snapshot capture/restore and
// analog comparison. The executor sees long, uneven runs, so a scheduling
// change that helps dut_seu_event but hurts load balance shows up here.
class PllFig8Fork final : public Workload {
public:
    std::string name() const override { return "pll_fig8_fork"; }

    Prepared prepare(int variant) const override
    {
        Rng rng(0x9118u * 1000u + static_cast<std::uint64_t>(variant));
        pll::PllConfig cfg;
        cfg.duration = 40 * kMicrosecond;

        Prepared p;
        p.duration = cfg.duration;
        p.factory = [cfg] { return std::make_unique<pll::PllTestbench>(cfg); };
        if (p.factory()->findCurrentSaboteur(pll::names::kSabFilter) == nullptr) {
            throw std::runtime_error("PLL testbench lacks the filter-input saboteur");
        }
        // 16 late instants in 28-38 us, one per 625 ns slot, placed by the seed.
        std::vector<double> instants;
        for (int k = 0; k < kPllInstants; ++k) {
            instants.push_back(28e-6 + (k + rng.uniform(0.05, 0.95)) * 0.625e-6);
        }
        for (const PulseSet& s : kFigure8Sets) {
            auto shape = std::make_shared<fault::TrapezoidPulse>(s.pa, s.rt, s.ft, s.pw);
            for (double t : instants) {
                p.faults.emplace_back(fault::CurrentPulseFault{pll::names::kSabFilter, t, shape});
            }
        }
        // 5 mV on the VCO control node, 200 ps (1 % of the output period) of
        // clock-edge jitter: the repository's standard PLL tolerances.
        p.runner = std::make_unique<campaign::CampaignRunner>(
            p.factory, campaign::Tolerance{5e-3, 0.0, 200 * kPicosecond});
        pinModes(*p.runner, /*batch=*/false, /*collapse=*/false, /*cadence=*/2 * kMicrosecond);
        return p;
    }
};

constexpr int kNetInputs = 16;
constexpr int kNetLayers = 18;
constexpr int kNetWidth = 32; // 576 gates, 592 nets, 1184 stuck-at faults
constexpr int kNetDead = 4;   // unread gates per inner layer: their faults are masked
constexpr int kNetPatterns = 192;

/// A layered ISCAS-style .bench netlist. In every layer but the last, a
/// seeded kNetDead gates are left unread, so every variant has statically
/// masked faults for collapse to save (about a fifth of them; nets read only
/// by unread gates are masked too, so the count varies a little). Each gate
/// reads a seeded live net of the previous layer (every live net at least
/// once) and one seeded live net of any earlier layer or input; gate kinds
/// are seeded. The last layer is the output.
std::string generateBench(Rng& rng)
{
    // Every layer has the same gate-kind mix (4 NOT and 28 two-input gates),
    // placed by the seed: the mix sets how much switching activity, and so
    // word-sweep work, a layer passes on, and it must not vary by seed.
    static const std::vector<std::string> kLayerKinds = [] {
        std::vector<std::string> kinds(4, "NOT");
        for (const auto& [kind, count] : std::vector<std::pair<const char*, int>>{
                 {"AND", 4}, {"OR", 4}, {"NAND", 5}, {"NOR", 5}, {"XOR", 5}, {"XNOR", 5}}) {
            kinds.insert(kinds.end(), static_cast<std::size_t>(count), kind);
        }
        return kinds;
    }();
    static_assert(kNetWidth == 32, "kLayerKinds holds one kind per gate of a layer");
    const auto shuffle = [&rng](std::vector<std::string>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[rng.below(i)]);
        }
    };
    std::ostringstream out;
    out << "# perfbench layered netlist\n";
    std::vector<std::string> live; // every net some gate may read
    std::vector<std::string> prev; // live nets of the previous layer
    for (int i = 0; i < kNetInputs; ++i) {
        out << "INPUT(i" << i << ")\n";
        prev.push_back("i" + std::to_string(i));
    }
    live = prev;
    for (int g = 0; g < kNetWidth; ++g) {
        out << "OUTPUT(n" << (kNetLayers - 1) << "_" << g << ")\n";
    }
    for (int l = 0; l < kNetLayers; ++l) {
        std::vector<std::string> firsts = prev; // each live net read once as input a
        while (firsts.size() < static_cast<std::size_t>(kNetWidth)) {
            firsts.push_back(prev[rng.below(prev.size())]);
        }
        shuffle(firsts);
        std::vector<std::string> kinds = kLayerKinds;
        shuffle(kinds);
        std::vector<std::string> layer;
        for (int g = 0; g < kNetWidth; ++g) {
            const auto gi = static_cast<std::size_t>(g);
            const std::string& a = firsts[gi];
            const std::string net = "n" + std::to_string(l) + "_" + std::to_string(g);
            if (kinds[gi] == "NOT") {
                out << net << " = NOT(" << a << ")\n";
            } else {
                std::string b = a;
                while (b == a) {
                    b = live[rng.below(live.size())];
                }
                out << net << " = " << kinds[gi] << "(" << a << ", " << b << ")\n";
            }
            layer.push_back(net);
        }
        if (l + 1 < kNetLayers) {
            shuffle(layer);
            layer.resize(static_cast<std::size_t>(kNetWidth - kNetDead));
        }
        live.insert(live.end(), layer.begin(), layer.end());
        prev = std::move(layer);
    }
    return out.str();
}

// netlist_batch — an ingested netlist: generated .bench text parsed and
// elaborated through io, stuck-at faults collapsed and swept 63 to a word
// by the batch backend. It loads io parse/elaboration, analyze collapse and
// batch compile/sweep/lane classification; the event kernel only runs the
// golden. The first verdict commits only after the whole batch pre-phase.
class NetlistBatch final : public Workload {
public:
    std::string name() const override { return "netlist_batch"; }

    /// The seeded design text and stimulus seed of @p variant.
    static std::pair<std::string, std::uint64_t> inputs(int variant)
    {
        Rng rng(0xBE4Cu * 1000u + static_cast<std::uint64_t>(variant));
        std::string text = generateBench(rng);
        return {std::move(text), rng.next()};
    }

    static io::IngestConfig config(std::uint64_t patternSeed)
    {
        io::IngestConfig cfg;
        cfg.patternCount = kNetPatterns;
        cfg.patternSeed = patternSeed;
        return cfg;
    }

    Prepared prepare(int variant) const override
    {
        auto [text, patternSeed] = inputs(variant);
        io::NetlistDesc desc = io::parseNetlist(text, "perfbench.bench");
        const io::IngestWorkload wl = io::makeWorkload(std::move(desc), config(patternSeed));
        Prepared p;
        p.faults = wl.faults;
        p.factory = wl.factory();
        p.duration = p.factory()->duration();
        p.runner = std::make_unique<campaign::CampaignRunner>(p.factory);
        pinModes(*p.runner, /*batch=*/true, /*collapse=*/true, /*cadence=*/-1);
        return p;
    }
};

const Workload* findWorkload(const std::string& name)
{
    static const DutSeuEvent dut;
    static const PllFig8Fork pll;
    static const NetlistBatch net;
    for (const Workload* w : std::initializer_list<const Workload*>{&dut, &pll, &net}) {
        if (w->name() == name) {
            return w;
        }
    }
    return nullptr;
}

// --- verdict and work checks ---------------------------------------------------

char outcomeLetter(campaign::Outcome o)
{
    switch (o) {
    case campaign::Outcome::Silent:
        return 'S';
    case campaign::Outcome::Latent:
        return 'L';
    case campaign::Outcome::TransientError:
        return 'T';
    case campaign::Outcome::Failure:
        return 'F';
    case campaign::Outcome::SimError:
        return 'E';
    case campaign::Outcome::Timeout:
        return 'O';
    case campaign::Outcome::Diverged:
        return 'D';
    }
    return '?';
}

/// The exact work counts of one campaign (deterministic, worker-width
/// invariant): they must equal the reference in timed and traced runs.
struct Counts {
    std::uint64_t waves = 0;       ///< digital.waves
    std::uint64_t steps = 0;       ///< analog.steps
    std::uint64_t classes = 0;     ///< analyze.classes (simulated representatives)
    std::uint64_t checkpoints = 0; ///< snapshot.checkpoints
    std::uint64_t batched = 0;     ///< verdicts produced by the word kernel
    std::uint64_t groups = 0;      ///< batch.groups (word simulations run)

    [[nodiscard]] std::map<std::string, std::uint64_t> named() const
    {
        return {{"digital.waves", waves},
                {"analog.steps", steps},
                {"analyze.classes", classes},
                {"snapshot.checkpoints", checkpoints},
                {"batch.batched", batched},
                {"batch.groups", groups}};
    }
};

/// Calls @p onGroup(wallSeconds) once per word-simulation group of
/// @p report and @p onRun(wallSeconds) once per event-kernel run; expanded
/// collapse members are skipped. The batch backend hands out lanes 1..63 in
/// fault-list order, so a new group starts wherever the lane number does not
/// increase, and every lane of a group carries the group's wall time.
template <typename OnGroup, typename OnRun>
void forEachJob(const campaign::CampaignReport& report, OnGroup&& onGroup, OnRun&& onRun)
{
    int prevLane = 0;
    for (const campaign::RunResult& r : report.runs) {
        const campaign::RunDiagnostics& d = r.diagnostics;
        if (!d.collapsedFrom.empty()) {
            continue;
        }
        if (d.batchLane == 0) {
            onRun(d.wallSeconds);
            continue;
        }
        if (prevLane == 0 || d.batchLane <= prevLane) {
            onGroup(d.wallSeconds);
        }
        prevLane = d.batchLane;
    }
}

Counts countsOf(const campaign::CampaignReport& report, const campaign::CampaignRunner& runner)
{
    Counts c;
    for (const campaign::RunResult& r : report.runs) {
        c.waves += r.diagnostics.digitalWaves;
        c.steps += r.diagnostics.analogSteps;
        c.classes += r.diagnostics.collapsedFrom.empty() ? 1 : 0;
        c.batched += r.diagnostics.batchLane > 0 ? 1 : 0;
    }
    forEachJob(report, [&c](double) { ++c.groups; }, [](double) {});
    c.checkpoints = runner.checkpointCount();
    return c;
}

std::string outcomesOf(const campaign::CampaignReport& report)
{
    std::string s;
    for (const campaign::RunResult& r : report.runs) {
        s += outcomeLetter(r.outcome);
    }
    return s;
}

/// Figure 8's finding: peak V_ctrl deviation grows with PA at a fixed PW
/// (set 1 over set 0) and with PW at a fixed PA (set 3 over set 2), at every
/// injection instant. True for non-PLL reports.
bool figure8Holds(const std::string& workload, const campaign::CampaignReport& report)
{
    if (workload != "pll_fig8_fork") {
        return true;
    }
    if (report.runs.size() != 4 * kPllInstants) {
        return false;
    }
    const auto dev = [&](int set, int k) {
        return report.runs[static_cast<std::size_t>(set * kPllInstants + k)].maxAnalogDeviation;
    };
    for (int k = 0; k < kPllInstants; ++k) {
        if (!(dev(1, k) > dev(0, k)) || !(dev(3, k) > dev(2, k))) {
            return false;
        }
    }
    return true;
}

/// The recorded reference of one workload variant.
struct Reference {
    std::string digest;   ///< sha256 of reportToJson with timing recording off
    std::string outcomes; ///< one outcome letter per fault
    std::map<std::string, std::uint64_t> counts;
};

Reference loadReference(const std::string& path, const std::string& workload, int variant)
{
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read reference " + path);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const util::JsonValue doc = util::parseJson(ss.str());
    const util::JsonValue* all = doc.find("workloads");
    const util::JsonValue* wl = all != nullptr ? all->find(workload) : nullptr;
    if (wl == nullptr) {
        throw std::runtime_error("reference has no workload " + workload);
    }
    for (const util::JsonValue& e : wl->asArray()) {
        if (static_cast<int>(e.find("variant")->asNumber()) != variant) {
            continue;
        }
        Reference ref;
        ref.digest = e.find("digest")->asString();
        ref.outcomes = e.find("outcomes")->asString();
        for (const auto& [k, v] : e.find("counts")->asObject()) {
            ref.counts[k] = static_cast<std::uint64_t>(v.asNumber());
        }
        return ref;
    }
    throw std::runtime_error("reference has no variant " + std::to_string(variant) + " of " +
                             workload);
}

/// Tally of checked campaigns.
struct Verdicts {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool checksOk = true;
    std::vector<std::string> problems;

    void fail(const std::string& why)
    {
        checksOk = false;
        if (problems.size() < 8) {
            problems.push_back(why);
        }
    }
};

/// Checks one finished campaign: per-fault outcomes against the reference
/// (a differing or missing verdict is a failed fault), the report digest
/// when @p digestComparable (a differing digest with equal outcomes fails
/// the whole campaign, since the differing fault is unknown), the exact
/// counts, and Figure 8's cumulative effect.
void check(const std::string& workload, const Reference& ref, std::size_t faultCount,
           const campaign::CampaignReport& report, const Counts& counts, bool digestComparable,
           Verdicts& v)
{
    v.attempted += faultCount;
    const std::string got = outcomesOf(report);
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < faultCount; ++i) {
        if (i >= got.size() || i >= ref.outcomes.size() || got[i] != ref.outcomes[i]) {
            ++failed;
        }
    }
    if (failed > 0) {
        v.fail(std::to_string(failed) + " verdicts differ from the reference");
    }
    if (digestComparable) {
        const std::string digest = io::sha256Hex(campaign::reportToJson(report));
        if (digest != ref.digest) {
            v.fail("report digest " + digest + " differs from the reference " + ref.digest);
            if (failed == 0) {
                failed = faultCount;
            }
        }
    }
    v.failed += failed;
    for (const auto& [name, value] : counts.named()) {
        const auto it = ref.counts.find(name);
        if (it == ref.counts.end() || it->second != value) {
            v.fail(name + " = " + std::to_string(value) + " differs from the reference");
        }
    }
    if (!figure8Holds(workload, report)) {
        v.fail("Figure 8 cumulative effect does not hold");
    }
}

// --- one timed campaign ----------------------------------------------------------

struct CampaignRun {
    campaign::CampaignReport report;
    double wallSeconds = 0;
    double firstVerdictSeconds = 0;
    bool threw = false;
    std::string error;
};

/// A journal path private to this process.
std::string journalPathFor(const std::string& workload)
{
    return std::string(kRunDir) + "/" + workload + "-" + std::to_string(::getpid()) +
           ".journal.jsonl";
}

/// Runs @p p's campaign with a fresh journal at @p journalPath.
CampaignRun runCampaign(Prepared& p, const std::string& journalPath)
{
    std::filesystem::remove(journalPath);
    p.runner->setJournalPath(journalPath);
    CampaignRun out;
    double first = -1.0;
    const auto t0 = Clock::now();
    try {
        out.report = p.runner->run(p.faults, [&](std::size_t, const campaign::RunResult&) {
            if (first < 0.0) {
                first = secondsSince(t0);
            }
        });
    } catch (const std::exception& e) {
        out.threw = true;
        out.error = e.what();
    }
    out.wallSeconds = secondsSince(t0);
    out.firstVerdictSeconds = first < 0.0 ? out.wallSeconds : first;
    std::filesystem::remove(journalPath);
    return out;
}

// --- output ----------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string resultLine(const Verdicts& v, const std::vector<Metric>& metrics)
{
    std::string s = "{\"correct\": " + std::string(v.checksOk && v.failed == 0 ? "true" : "false");
    s += ", \"attempted\": " + std::to_string(v.attempted);
    s += ", \"failed\": " + std::to_string(v.failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i > 0 ? ", " : "") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
             num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return s + "}}";
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool record = false;
    std::string reference = "perfbench/reference.json";
};

void printProblems(const Verdicts& v)
{
    for (const std::string& p : v.problems) {
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
    }
}

// --- timed mode: the end-to-end metrics --------------------------------------------

int timedMode(const Workload& w, const Args& a, int variant, const Reference& ref)
{
    const std::string journal = journalPathFor(w.name());
    std::vector<double> setup, rate, first;
    Verdicts v;
    // Set-up is cheap next to a campaign, so it gets its own sample of at
    // least kMinSetups set-ups and about kSetupBudgetS seconds, taken first,
    // while the process is in the same state in every run.
    double setupTotal = 0;
    while (setup.size() < kMinSetups ||
           (setupTotal < kSetupBudgetS && setup.size() < kMaxSetups)) {
        setup.push_back(timeIt([&] { (void)w.prepare(variant); }));
        setupTotal += setup.back();
    }
    const auto start = Clock::now();
    do {
        Prepared p = w.prepare(variant);
        CampaignRun run = runCampaign(p, journal);
        if (run.threw) {
            v.attempted += p.faults.size();
            v.failed += p.faults.size();
            v.fail("campaign threw: " + run.error);
            continue;
        }
        rate.push_back(static_cast<double>(p.faults.size()) / run.wallSeconds);
        first.push_back(run.firstVerdictSeconds);
        check(w.name(), ref, p.faults.size(), run.report, countsOf(run.report, *p.runner),
              /*digestComparable=*/true, v);
    } while (secondsSince(start) < a.seconds);
    printProblems(v);

    const std::vector<Metric> metrics{
        {"faults_per_s", median(rate), "1/s"},
        {"first_verdict_s", median(first), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    const double failedShare =
        v.attempted > 0 ? static_cast<double>(v.failed) / static_cast<double>(v.attempted) : 1.0;
    std::printf("workload %s, seed %llu (variant %d), %u workers, %zu campaigns, %zu set-ups\n",
                w.name().c_str(), static_cast<unsigned long long>(a.seed), variant, kWorkers,
                rate.size(), setup.size());
    const std::vector<const std::vector<double>*> samples{&rate, &first, &setup, nullptr};
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        std::printf("  %-16s %14.6g %-4s", m.name.c_str(), m.value, m.unit.c_str());
        if (samples[i] != nullptr && !samples[i]->empty()) {
            std::printf("  median of %zu, range %.6g .. %.6g", samples[i]->size(),
                        *std::min_element(samples[i]->begin(), samples[i]->end()),
                        *std::max_element(samples[i]->begin(), samples[i]->end()));
        }
        std::printf("\n");
    }
    std::printf("  %-16s %14.6g %-4s (%llu of %llu faults)\n", "failed_share", failedShare,
                "1", static_cast<unsigned long long>(v.failed),
                static_cast<unsigned long long>(v.attempted));
    std::printf("%s\n", resultLine(v, metrics).c_str());
    return 0;
}

// --- traced mode: the per-layer ledger ------------------------------------------------

/// Mean per-build milliseconds of @p factory with @p threads threads building
/// @p perThread testbenches each at once.
double buildMs(const fault::TestbenchFactory& factory, unsigned threads, int perThread)
{
    std::vector<double> elapsed(threads, 0.0);
    std::barrier sync(static_cast<std::ptrdiff_t>(threads));
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            sync.arrive_and_wait();
            elapsed[t] = timeIt([&] {
                for (int i = 0; i < perThread; ++i) {
                    (void)factory();
                }
            });
        });
    }
    for (std::thread& th : pool) {
        th.join();
    }
    double sum = 0;
    for (double e : elapsed) {
        sum += e;
    }
    return 1e3 * sum / (static_cast<double>(threads) * perThread);
}

/// Event-kernel timing of sampled faults, each built, armed and run alone.
struct KernelSample {
    double runMs = 0;       ///< mean tb->run() milliseconds per fault
    double nsPerWave = 0;   ///< run time per delta-cycle wave
    double usPerStep = 0;   ///< run time per analog step attempt
    double classifyMs = 0;  ///< mean CampaignRunner::classify milliseconds
};

KernelSample sampleKernel(Ledger& ledger, const std::string& label, Prepared& p, int samples)
{
    p.runner->runGolden();
    KernelSample k;
    double runS = 0, classifyS = 0;
    std::uint64_t waves = 0, steps = 0;
    const std::size_t n = p.faults.size();
    for (int s = 0; s < samples; ++s) {
        const fault::FaultSpec& f = p.faults[(static_cast<std::size_t>(s) * n) / samples];
        std::unique_ptr<fault::Testbench> tb = p.factory();
        fault::armFault(*tb, f);
        runS += ledger.span(label + ".run", [&] { tb->run(); });
        waves += tb->sim().digital().scheduler().deltaCycles();
        if (tb->sim().elaborated()) {
            const auto& st = tb->sim().solver().stats();
            steps += st.acceptedSteps + st.rejectedSteps;
        }
        classifyS += ledger.span(label + ".classify", [&] { (void)p.runner->classify(*tb, f); });
    }
    k.runMs = 1e3 * runS / samples;
    k.nsPerWave = waves > 0 ? 1e9 * runS / static_cast<double>(waves) : 0.0;
    k.usPerStep = steps > 0 ? 1e6 * runS / static_cast<double>(steps) : 0.0;
    k.classifyMs = 1e3 * classifyS / samples;
    return k;
}

/// The batch layer on the netlist workload, at one worker: word compile,
/// one group's sweep and one group's lane classification, over the first 63
/// collapse representatives.
struct BatchProbe {
    double compileMs = 0, sweepMs = 0, classifyMs = 0, collapseS = 0;
};

BatchProbe probeBatch(Ledger& ledger, int variant)
{
    BatchProbe b;
    Prepared p = NetlistBatch().prepare(variant);
    p.runner->runGolden();
    const fault::Testbench& golden = p.runner->golden();
    analyze::CollapsePlan plan;
    b.collapseS = ledger.bestOf("analyze.collapse", 3, [&] {
        plan = analyze::collapseFaults(golden, p.faults);
    });

    std::map<std::string, std::uint64_t> goldenState;
    for (const std::string& name : golden.observedState()) {
        goldenState[name] = golden.sim().digital().instrumentation().hook(name).get();
    }
    batch::BatchRequest req;
    req.factory = &p.factory;
    req.golden = &golden;
    req.goldenState = &goldenState;
    req.goldenWaves = golden.sim().digital().scheduler().deltaCycles();
    req.faults = &p.faults;
    for (std::size_t i = 0; i < p.faults.size() && req.candidates.size() < 63; ++i) {
        if (plan.isRepresentative(i)) {
            req.candidates.push_back(i);
            req.needSim.push_back(1);
        }
    }
    req.tolerance = p.runner->tolerance();
    req.workers = 1;
    req.recordTiming = true; // lanes carry their group's pre-classification wall time

    const double buildS = ledger.bestOf("core.testbench.build", 5, [&] { (void)p.factory(); });
    const double compileS = ledger.bestOf("batch.compile", 5, [&] {
        const std::unique_ptr<fault::Testbench> tb = p.factory();
        (void)batch::compileWordModel(*tb);
    }) - buildS;
    const std::unique_ptr<fault::Testbench> tb = p.factory();
    const batch::CompileResult compiled = batch::compileWordModel(*tb);
    const double sweepS = ledger.bestOf("batch.sweep", 3, [&] {
        batch::WordSim sim(*compiled.model);
        for (std::size_t c = 0; c < req.candidates.size(); ++c) {
            sim.armFault(static_cast<int>(c) + 1, p.faults[req.candidates[c]]);
        }
        sim.run();
    });
    // Per-group classification: one group through runBatchedCampaign at one
    // worker, minus the scout build + compile timed next to it, minus the
    // group's own build-to-cross-check wall time (the lanes' wallSeconds,
    // taken before they are classified). Median of 5.
    std::vector<double> classify;
    for (int i = 0; i < 5; ++i) {
        const double scoutS = ledger.span("batch.scout", [&] {
            const std::unique_ptr<fault::Testbench> scout = p.factory();
            (void)batch::compileWordModel(*scout);
        });
        std::map<std::size_t, campaign::RunResult> out;
        const double wallS = ledger.span("batch.runBatchedCampaign",
                                         [&] { (void)batch::runBatchedCampaign(req, out); });
        if (!out.empty()) {
            classify.push_back(wallS - scoutS - out.begin()->second.diagnostics.wallSeconds);
        }
    }
    b.compileMs = 1e3 * compileS;
    b.sweepMs = 1e3 * sweepS;
    b.classifyMs = 1e3 * median(classify);
    return b;
}

int tracedMode(const Workload& w, const Args& a, int variant, const Reference& ref)
{
    Ledger ledger;
    Verdicts v;
    std::map<std::string, double> m;
    const auto start = Clock::now();
    const bool isPll = w.name() == "pll_fig8_fork";
    const bool isNet = w.name() == "netlist_batch";

    // core: preflight and golden (cadence off), each on a fresh runner.
    ledger.span("core", [&] {
        double preflight = 0, golden = 0;
        for (int i = 0; i < 3; ++i) {
            Prepared p = w.prepare(variant);
            const double tp =
                ledger.span("core.preflight", [&] { (void)p.runner->preflightReport(p.faults); });
            Prepared q = w.prepare(variant);
            q.runner->setCheckpointCadence(-1);
            const double tg = ledger.span("core.golden", [&] { q.runner->runGolden(); });
            preflight = i == 0 ? tp : std::min(preflight, tp);
            golden = i == 0 ? tg : std::min(golden, tg);
        }
        m["core.preflight_s"] = preflight;
        m["core.golden_s"] = golden;
    });

    // snapshot: the checkpoint captures of a forking PLL golden run, as the
    // checkpoint count times one captureSnapshot() of the run's final state
    // (best of 5). The difference of golden runs with and without capture is
    // a few ms under the host's run-to-run noise, so it is not used.
    ledger.span("snapshot", [&] {
        Prepared p = PllFig8Fork().prepare(variant);
        ledger.span("snapshot.golden_capture", [&] { p.runner->runGolden(); });
        const std::unique_ptr<fault::Testbench> tb = p.factory();
        tb->run();
        m["snapshot.capture_s"] =
            static_cast<double>(p.runner->checkpointCount()) *
            ledger.bestOf("snapshot.capture", 5, [&] { (void)tb->sim().captureSnapshot(); });
    });

    // core.testbench: construction alone, one thread, then four threads at
    // once with the same per-thread count (sized to about 0.2 s serially).
    ledger.span("core.testbench", [&] {
        Prepared p = w.prepare(variant);
        int perThread = 0;
        const auto t0 = Clock::now();
        while (perThread < 2000 && (perThread < 4 || secondsSince(t0) < 0.2)) {
            (void)p.factory();
            ++perThread;
        }
        ledger.span("core.testbench.build_1t", [&] {
            m["core.testbench.build_ms"] = buildMs(p.factory, 1, perThread);
        });
        ledger.span("core.testbench.build_4t", [&] {
            m["core.testbench.build_ms_4t"] = buildMs(p.factory, 4, perThread);
        });
    });

    // digital and trace: sampled faults run alone on this workload's design.
    ledger.span("digital", [&] {
        Prepared p = w.prepare(variant);
        const KernelSample k = sampleKernel(ledger, "digital", p, isPll ? 4 : 16);
        m["digital.run_ms"] = k.runMs;
        m["digital.ns_per_wave"] = k.nsPerWave;
        m["trace.classify_ms"] = k.classifyMs;
        if (isPll) {
            m["analog.run_ms"] = k.runMs;
            m["analog.us_per_step"] = k.usPerStep;
        }
    });
    if (!isPll) {
        ledger.span("analog", [&] {
            // The analog solver runs only in the PLL workload; time it there.
            Prepared p = PllFig8Fork().prepare(variant);
            const KernelSample k = sampleKernel(ledger, "analog", p, 3);
            m["analog.run_ms"] = k.runMs;
            m["analog.us_per_step"] = k.usPerStep;
        });
    }

    // batch and io: on the netlist workload (the one that batches and
    // ingests); collapse on this workload's own design.
    BatchProbe bp;
    ledger.span("batch", [&] { bp = probeBatch(ledger, variant); });
    m["batch.compile_ms"] = bp.compileMs;
    m["batch.sweep_ms"] = bp.sweepMs;
    m["batch.classify_ms"] = bp.classifyMs;
    if (isNet) {
        m["analyze.collapse_s"] = bp.collapseS;
    } else {
        Prepared p = w.prepare(variant);
        p.runner->runGolden();
        m["analyze.collapse_s"] = ledger.bestOf("analyze.collapse", 3, [&] {
            (void)analyze::collapseFaults(p.runner->golden(), p.faults);
        });
    }
    ledger.span("io", [&] {
        const auto [text, patternSeed] = NetlistBatch::inputs(variant);
        io::NetlistDesc desc;
        m["io.parse_ms"] = 1e3 * ledger.bestOf("io.parse", 5, [&] {
            desc = io::parseNetlist(text, "perfbench.bench");
        });
        m["io.elaborate_ms"] = 1e3 * ledger.bestOf("io.elaborate", 5, [&] {
            (void)io::makeWorkload(desc, NetlistBatch::config(patternSeed));
        });
    });

    // Campaigns: plain (timing recorded, for executor occupancy) and with a
    // telemetry sink attached (for obs.trace_overhead), in alternating pairs
    // while the run lasts.
    const std::string journal = journalPathFor(w.name());
    std::vector<double> plainWall, telWall;
    campaign::CampaignReport firstReport;
    Counts firstCounts;
    ledger.span("campaigns", [&] {
        do {
            for (const bool withTelemetry : {false, true}) {
                Prepared p = w.prepare(variant);
                p.runner->setRecordTiming(true);
                obs::Telemetry tel;
                tel.enableTracing();
                if (withTelemetry) {
                    p.runner->setTelemetry(tel);
                }
                CampaignRun run;
                ledger.span(withTelemetry ? "campaign.telemetry" : "campaign.plain",
                            [&] { run = runCampaign(p, journal); });
                if (run.threw) {
                    v.attempted += p.faults.size();
                    v.failed += p.faults.size();
                    v.fail("campaign threw: " + run.error);
                    continue;
                }
                const Counts counts = countsOf(run.report, *p.runner);
                check(w.name(), ref, p.faults.size(), run.report, counts,
                      /*digestComparable=*/false, v);
                if (withTelemetry) {
                    telWall.push_back(run.wallSeconds);
                    m["analog.newton_iters"] = static_cast<double>(
                        tel.metrics().counterValue("gfi_analog_newton_iterations_total"));
                    continue;
                }
                plainWall.push_back(run.wallSeconds);
                if (plainWall.size() > 1) {
                    continue;
                }
                // Executor jobs: event-kernel runs and word-simulation groups.
                std::vector<double> jobMs;
                double busy = 0, simulated = 0, runs = 0;
                const auto addJob = [&](double wall) {
                    jobMs.push_back(1e3 * wall);
                    busy += wall;
                };
                forEachJob(run.report, addJob, addJob);
                for (const campaign::RunResult& r : run.report.runs) {
                    const campaign::RunDiagnostics& d = r.diagnostics;
                    if (d.batchLane > 0 || !d.collapsedFrom.empty()) {
                        continue; // no simulated time of its own
                    }
                    runs += 1;
                    simulated += d.checkpointTime > 0 ? static_cast<double>(d.resimulatedTime)
                                                      : static_cast<double>(p.duration);
                }
                m["core.executor.busy_share"] = busy / (kWorkers * run.wallSeconds);
                m["core.executor.run_ms_p50"] = percentile(jobMs, 0.50);
                m["core.executor.run_ms_p99"] = percentile(jobMs, 0.99);
                m["snapshot.resimulated_share"] =
                    runs > 0 ? simulated / (runs * static_cast<double>(p.duration)) : 0.0;
                firstReport = std::move(run.report);
                firstCounts = counts;
            }
        } while (secondsSince(start) < a.seconds);
    });
    m["obs.trace_overhead"] = plainWall.empty() ? 0.0 : median(telWall) / median(plainWall);

    // core.journal: append every verdict of the first campaign to a fresh
    // journal, then load it back.
    ledger.span("core.journal", [&] {
        std::filesystem::remove(journal);
        double appendS = 0;
        {
            campaign::CampaignJournal j(journal);
            appendS = ledger.span("core.journal.append", [&] {
                for (std::size_t i = 0; i < firstReport.runs.size(); ++i) {
                    j.append(i, firstReport.runs[i]);
                }
            });
        }
        m["core.journal.append_us"] =
            1e6 * appendS / static_cast<double>(std::max<std::size_t>(1, firstReport.runs.size()));
        m["core.journal.load_ms"] = 1e3 * ledger.bestOf("core.journal.load", 3, [&] {
            (void)campaign::CampaignJournal::loadWithStats(journal);
        });
        std::filesystem::remove(journal);
    });

    m["digital.waves"] = static_cast<double>(firstCounts.waves);
    m["analog.steps"] = static_cast<double>(firstCounts.steps);
    m["snapshot.checkpoints"] = static_cast<double>(firstCounts.checkpoints);
    m["analyze.classes"] = static_cast<double>(firstCounts.classes);
    m["batch.groups"] = static_cast<double>(firstCounts.groups);
    // With the batch backend on, every simulated representative the word
    // kernel did not take fell back to the event kernel.
    m["batch.fallbacks"] =
        isNet ? static_cast<double>(firstCounts.classes - firstCounts.batched) : 0.0;
    const auto lanes = static_cast<double>(firstCounts.groups) * 63.0;
    m["batch.lane_occupancy"] =
        lanes > 0 ? static_cast<double>(firstCounts.batched) / lanes : 0.0;

    ledger.write(kRunDir + std::string("/spans-") + w.name() + "-seed" + std::to_string(a.seed) +
                 ".json");
    printProblems(v);

    static const std::vector<std::pair<std::string, std::string>> kLayout{
        {"core.preflight_s", "s"},          {"core.golden_s", "s"},
        {"core.testbench.build_ms", "ms"},  {"core.testbench.build_ms_4t", "ms"},
        {"core.executor.busy_share", "share"}, {"core.executor.run_ms_p50", "ms"},
        {"core.executor.run_ms_p99", "ms"}, {"core.journal.append_us", "us"},
        {"core.journal.load_ms", "ms"},     {"digital.run_ms", "ms"},
        {"digital.ns_per_wave", "ns"},      {"digital.waves", "count"},
        {"analog.run_ms", "ms"},            {"analog.us_per_step", "us"},
        {"analog.steps", "count"},          {"analog.newton_iters", "count"},
        {"snapshot.capture_s", "s"},        {"snapshot.resimulated_share", "share"},
        {"snapshot.checkpoints", "count"},  {"trace.classify_ms", "ms"},
        {"analyze.collapse_s", "s"},        {"analyze.classes", "count"},
        {"batch.compile_ms", "ms"},         {"batch.sweep_ms", "ms"},
        {"batch.classify_ms", "ms"},        {"batch.groups", "count"},
        {"batch.fallbacks", "count"},       {"batch.lane_occupancy", "share"},
        {"io.parse_ms", "ms"},              {"io.elaborate_ms", "ms"},
        {"obs.trace_overhead", "ratio"},
    };
    std::vector<Metric> metrics;
    std::printf("workload %s, seed %llu (variant %d), traced, %zu plain + %zu telemetry "
                "campaigns\n",
                w.name().c_str(), static_cast<unsigned long long>(a.seed), variant,
                plainWall.size(), telWall.size());
    for (const auto& [name, unit] : kLayout) {
        metrics.push_back({name, m[name], unit});
        std::printf("  %-28s %14.6g %s\n", name.c_str(), m[name], unit.c_str());
    }
    std::printf("%s\n", resultLine(v, metrics).c_str());
    return 0;
}

// --- record mode: the reference entry of one variant ---------------------------------

int recordMode(const Workload& w, int variant)
{
    Prepared p = w.prepare(variant);
    CampaignRun run = runCampaign(p, journalPathFor(w.name()));
    if (run.threw) {
        std::fprintf(stderr, "perfbench: campaign threw: %s\n", run.error.c_str());
        return 1;
    }
    if (!figure8Holds(w.name(), run.report)) {
        std::fprintf(stderr, "perfbench: Figure 8 cumulative effect does not hold\n");
        return 1;
    }
    const std::map<std::string, std::uint64_t> counts = countsOf(run.report, *p.runner).named();
    std::string line = "{\"variant\": " + std::to_string(variant) + ", \"faults\": " +
                       std::to_string(p.faults.size()) + ", \"digest\": \"" +
                       io::sha256Hex(campaign::reportToJson(run.report)) +
                       "\", \"outcomes\": \"" + outcomesOf(run.report) + "\", \"counts\": {";
    bool firstKey = true;
    for (const auto& [k, val] : counts) {
        line += (firstKey ? "\"" : ", \"") + k + "\": " + std::to_string(val);
        firstKey = false;
    }
    std::printf("%s}}\n", line.c_str());
    return 0;
}

bool parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc) {
            return false;
        }
        const std::string val = argv[++i];
        if (k == "--workload") {
            a.workload = val;
        } else if (k == "--seed") {
            a.seed = std::stoull(val);
        } else if (k == "--seconds") {
            a.seconds = std::stod(val);
        } else if (k == "--trace") {
            a.trace = val == "1";
        } else if (k == "--reference") {
            a.reference = val;
        } else {
            return false;
        }
    }
    return !a.workload.empty();
}

} // namespace

int main(int argc, char** argv)
{
    // Environment switches that would silently change a pinned workload.
    for (const char* var : {"GFI_JOBS", "GFI_BATCH", "GFI_COLLAPSE", "GFI_CHECKPOINT",
                            "GFI_FORENSICS", "GFI_TRACE", "GFI_METRICS"}) {
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
            return 2;
        }
    }
    Args a;
    try {
        if (!parseArgs(argc, argv, a)) {
            std::fprintf(stderr, "usage: campaign_bench --workload <name> --seed <n> "
                                 "--seconds <s> --trace <0|1> [--reference <file>] "
                                 "[--record]\n");
            return 2;
        }
        const Workload* w = findWorkload(a.workload);
        if (w == nullptr) {
            std::fprintf(stderr, "perfbench: unknown workload %s\n", a.workload.c_str());
            return 2;
        }
        std::filesystem::create_directories(kRunDir);
        const int variant = static_cast<int>(a.seed % kVariants);
        if (a.record) {
            return recordMode(*w, variant);
        }
        const Reference ref = loadReference(a.reference, w->name(), variant);
        return a.trace ? tracedMode(*w, a, variant, ref) : timedMode(*w, a, variant, ref);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
