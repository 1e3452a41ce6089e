#include "core/campaign.hpp"

#include "analyze/collapse.hpp"
#include "batch/backend.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "lint/lint.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "sim/errors.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace gfi::campaign {

namespace {

/// CheckpointStore key of the (single) golden testbench.
constexpr const char* kGoldenCheckpoints = "golden";

/// Where a fault's verdict comes from. run() assigns exactly one per fault
/// index before the worker phase; workers simulate only Simulated indices,
/// and the ordered commit is one switch over the four.
enum class Source : unsigned char {
    Restored,  ///< a journal entry of an earlier campaign, committed as-is
    Batched,   ///< classified by the bit-parallel word kernel
    Expanded,  ///< a collapse-class member, copied from its representative
    Simulated, ///< a contained event-driven run on a worker
};

/// The result of an expanded (not simulated) member of a collapse class: the
/// representative's whole result, so every verdict field carries over, with
/// fresh diagnostics — its error text, zero resource consumption and
/// provenance in collapsedFrom.
RunResult expandCollapsed(const RunResult& rep, const fault::FaultSpec& member)
{
    RunResult r = rep;
    r.fault = member;
    r.diagnostics = RunDiagnostics{};
    r.diagnostics.error = rep.diagnostics.error;
    r.diagnostics.collapsedFrom = fault::describe(rep.fault);
    return r;
}

/// FNV-1a 64-bit of a fault description, as 16 hex digits — the stable,
/// filesystem-safe run identity forensic artifacts are named by (fault
/// descriptions contain '/', spaces and '@').
std::string fnv1aHex(const std::string& s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

const char* toString(Outcome o)
{
    switch (o) {
    case Outcome::Silent:
        return "silent";
    case Outcome::Latent:
        return "latent";
    case Outcome::TransientError:
        return "transient";
    case Outcome::Failure:
        return "failure";
    case Outcome::SimError:
        return "sim-error";
    case Outcome::Timeout:
        return "timeout";
    case Outcome::Diverged:
        return "diverged";
    }
    return "?";
}

bool outcomeFromString(const std::string& name, Outcome& out)
{
    for (Outcome o : kAllOutcomes) {
        if (name == toString(o)) {
            out = o;
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// CampaignReport

std::map<Outcome, int> CampaignReport::histogram() const
{
    std::map<Outcome, int> h;
    for (const RunResult& r : runs) {
        ++h[r.outcome];
    }
    return h;
}

std::string CampaignReport::summaryTable() const
{
    const auto h = histogram();
    TextTable t;
    t.setHeader({"outcome", "count", "fraction"});
    const int total = static_cast<int>(runs.size());
    for (Outcome o : kAllOutcomes) {
        const int n = h.count(o) != 0 ? h.at(o) : 0;
        t.addRow({toString(o), std::to_string(n),
                  total > 0 ? formatDouble(100.0 * n / total, 4) + " %" : "-"});
    }
    t.addSeparator();
    t.addRow({"total", std::to_string(total), "100 %"});

    // Fork-from-golden savings footer — only when at least one run actually
    // forked, so non-forking campaigns keep the exact historical table.
    int forked = 0;
    SimTime skipped = 0;
    for (const RunResult& r : runs) {
        if (r.diagnostics.checkpointTime > 0) {
            ++forked;
            skipped += r.diagnostics.checkpointTime;
        }
    }
    if (forked > 0) {
        t.addSeparator();
        t.addRow({"forked runs", std::to_string(forked), formatTime(skipped) + " skipped"});
    }
    // Collapse footer — only when at least one verdict was statically
    // expanded, so non-collapsed campaigns keep the exact historical table.
    int collapsed = 0;
    for (const RunResult& r : runs) {
        if (!r.diagnostics.collapsedFrom.empty()) {
            ++collapsed;
        }
    }
    if (collapsed > 0) {
        t.addSeparator();
        t.addRow({"collapsed runs", std::to_string(collapsed), "statically expanded"});
    }
    // Lossy-resume footer — only when the journal actually lost lines, so
    // clean campaigns keep the exact historical table.
    if (journalSkippedLines > 0) {
        t.addSeparator();
        t.addRow({"journal lines skipped", std::to_string(journalSkippedLines),
                  "torn/corrupt"});
    }
    return t.str();
}

std::string CampaignReport::detailTable() const
{
    TextTable t;
    t.setHeader({"fault", "outcome", "first err", "err time", "max analog dev", "error"});
    for (const RunResult& r : runs) {
        // Abnormal runs carry the contained failure instead of metrics.
        std::string note = r.diagnostics.error;
        if (note.size() > 60) {
            note = note.substr(0, 57) + "...";
        }
        t.addRow({fault::describe(r.fault), toString(r.outcome),
                  r.firstOutputError >= 0 ? formatTime(r.firstOutputError) : "-",
                  r.totalOutputErrorTime > 0 ? formatTime(r.totalOutputErrorTime) : "-",
                  r.maxAnalogDeviation > 0 ? formatSi(r.maxAnalogDeviation, "V") : "-",
                  note.empty() ? "-" : note});
    }
    return t.str();
}

// ---------------------------------------------------------------------------
// PropagationModel

void PropagationModel::record(const std::string& target,
                              const std::vector<std::string>& erredSignals)
{
    ++totals_[target];
    for (const std::string& sig : erredSignals) {
        ++counts_[target][sig];
    }
}

int PropagationModel::runsFor(const std::string& target) const
{
    const auto it = totals_.find(target);
    return it == totals_.end() ? 0 : it->second;
}

int PropagationModel::reaches(const std::string& target, const std::string& signal) const
{
    const auto it = counts_.find(target);
    if (it == counts_.end()) {
        return 0;
    }
    const auto jt = it->second.find(signal);
    return jt == it->second.end() ? 0 : jt->second;
}

std::string PropagationModel::table() const
{
    // Collect the union of affected signals for the column set.
    std::vector<std::string> signals;
    for (const auto& [target, row] : counts_) {
        for (const auto& [sig, n] : row) {
            if (std::find(signals.begin(), signals.end(), sig) == signals.end()) {
                signals.push_back(sig);
            }
        }
    }
    TextTable t;
    std::vector<std::string> header{"target \\ reaches", "runs"};
    header.insert(header.end(), signals.begin(), signals.end());
    t.setHeader(header);
    for (const auto& [target, total] : totals_) {
        std::vector<std::string> row{target, std::to_string(total)};
        for (const std::string& sig : signals) {
            row.push_back(std::to_string(reaches(target, sig)));
        }
        t.addRow(row);
    }
    return t.str();
}

std::string targetOf(const fault::FaultSpec& fault)
{
    return std::visit(
        [](const auto& f) -> std::string {
            using T = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<T, std::monostate>) {
                return "golden";
            } else if constexpr (std::is_same_v<T, fault::BitFlipFault> ||
                                 std::is_same_v<T, fault::DoubleBitFlipFault> ||
                                 std::is_same_v<T, fault::StateWriteFault> ||
                                 std::is_same_v<T, fault::FsmTransitionFault>) {
                return f.target;
            } else if constexpr (std::is_same_v<T, fault::DigitalPulseFault> ||
                                 std::is_same_v<T, fault::StuckAtFault> ||
                                 std::is_same_v<T, fault::CurrentPulseFault>) {
                return f.saboteur;
            } else {
                return f.parameter;
            }
        },
        fault);
}

// ---------------------------------------------------------------------------
// VerdictFold

void VerdictFold::digital(const std::string& name, SimTime first, SimTime lastEnd,
                          SimTime total)
{
    if (first < 0) {
        return;
    }
    r_.erredSignals.push_back(name);
    noteFirstError(first);
    r_.lastOutputErrorEnd = std::max(r_.lastOutputErrorEnd, lastEnd);
    r_.totalOutputErrorTime += total;
    // A window that reaches tEnd was still open when observation stopped.
    recovered_ = recovered_ && lastEnd < tEnd_;
    decide();
}

void VerdictFold::analog(const std::string& name, const trace::AnalogDiff& diff)
{
    r_.maxAnalogDeviation = std::max(r_.maxAnalogDeviation, diff.maxDeviation);
    if (diff.withinTolerance()) {
        return;
    }
    r_.erredSignals.push_back(name);
    noteFirstError(fromSeconds(diff.firstExceed));
    r_.analogTimeOutsideTol += diff.timeOutsideTol;
    recovered_ = recovered_ && diff.withinTolAtEnd;
    decide();
}

void VerdictFold::state(const std::string& name, bool differs)
{
    if (differs) {
        r_.corruptedState.push_back(name);
        decide();
    }
}

void VerdictFold::noteFirstError(SimTime t) noexcept
{
    if (r_.firstOutputError < 0 || t < r_.firstOutputError) {
        r_.firstOutputError = t;
    }
}

void VerdictFold::decide() noexcept
{
    if (!r_.erredSignals.empty()) {
        r_.outcome = recovered_ ? Outcome::TransientError : Outcome::Failure;
    } else {
        r_.outcome = r_.corruptedState.empty() ? Outcome::Silent : Outcome::Latent;
    }
}

// ---------------------------------------------------------------------------
// CampaignRunner

CampaignRunner::CampaignRunner(fault::TestbenchFactory factory, Tolerance tolerance)
    : factory_(std::move(factory)), tolerance_(tolerance)
{
}

CampaignRunner::~CampaignRunner() = default;

/// Every campaign mode, resolved once by resolvePlan() and passed down: no
/// later code reads a mode setter or the environment.
struct CampaignRunner::CampaignPlan {
    SimTime cadence = 0;                 ///< fork-from-golden cadence; 0 = off
    bool collapse = false;               ///< static fault collapsing
    bool batch = false;                  ///< bit-parallel backend, conflicts applied
    const char* batchConflict = nullptr; ///< why a requested backend is off
    std::string forensicsDir;            ///< flight-recorder dumps; empty = off
    obs::Telemetry* tel = nullptr;       ///< sink; nullptr = every site a no-op

    /// Drops the provenance keys of a restored verdict that a campaign under
    /// this plan could not have written, so a journal of a differently
    /// configured campaign restores into the report this one would produce
    /// (no "forked runs", "collapsed runs" or forensic rows for modes that
    /// are off). Each key belongs to exactly one Source, read back from the
    /// keys themselves.
    void scrub(RunDiagnostics& d) const
    {
        bool keepLane = false;
        bool keepCollapsed = false;
        bool keepFork = false;
        bool keepForensic = false;
        switch (d.batchLane > 0                ? Source::Batched
                : !d.collapsedFrom.empty() ? Source::Expanded
                                           : Source::Simulated) {
        case Source::Batched:
            keepLane = batch;
            break;
        case Source::Expanded:
            keepCollapsed = collapse;
            break;
        case Source::Simulated:
            keepFork = cadence > 0;
            keepForensic = !forensicsDir.empty();
            break;
        case Source::Restored:
            break;
        }
        if (!keepLane) {
            d.batchLane = 0;
        }
        if (!keepCollapsed) {
            d.collapsedFrom.clear();
        }
        if (!keepFork) {
            d.checkpointTime = 0;
            d.resimulatedTime = 0;
        }
        if (!keepForensic) {
            d.forensic.clear();
        }
    }
};

CampaignRunner::CampaignPlan CampaignRunner::resolvePlan()
{
    // Precedence: an explicit setter beats the environment, including the
    // explicit "off" of a negative cadence or setForensics("").
    const auto envFlag = [](const char* name) {
        const char* env = std::getenv(name);
        return env != nullptr && *env != '\0' && *env != '0';
    };
    CampaignPlan plan;
    if (checkpointCadence_ != 0) {
        plan.cadence = std::max<SimTime>(checkpointCadence_, 0);
    } else if (const char* env = std::getenv("GFI_CHECKPOINT");
               env != nullptr && *env != '\0') {
        const double seconds = std::strtod(env, nullptr);
        if (seconds > 0.0 && seconds < 1e30) {
            plan.cadence = fromSeconds(seconds);
        }
    }
    plan.collapse = collapseMode_ != 0 ? collapseMode_ > 0 : envFlag("GFI_COLLAPSE");
    plan.batch = batchMode_ != 0 ? batchMode_ > 0 : envFlag("GFI_BATCH");
    if (forensicsSet_) {
        plan.forensicsDir = forensicsDir_;
    } else if (const char* env = std::getenv("GFI_FORENSICS")) {
        plan.forensicsDir = env;
    }
    // The attached sink wins, else GFI_TRACE/GFI_METRICS builds a runner-owned
    // one (kept across calls so repeated campaigns accumulate into one dump).
    if (telemetry_ == nullptr && !envTelemetry_) {
        envTelemetry_ = obs::Telemetry::fromEnv();
    }
    plan.tel = telemetry_ != nullptr ? telemetry_ : envTelemetry_.get();

    // Per-run watchdog budgets cannot be metered inside a shared 64-lane word
    // run, and fork-from-golden restores event-kernel snapshots the word
    // kernel cannot consume: either falls the whole campaign back to the
    // event-driven kernel, and run() says so.
    if (plan.batch && (watchdogConfig_.wallClockSeconds > 0.0 ||
                       watchdogConfig_.digitalWaves != 0 || watchdogConfig_.analogSteps != 0)) {
        plan.batchConflict = "per-run watchdog budgets require the event-driven kernel";
    } else if (plan.batch && plan.cadence > 0) {
        plan.batchConflict = "fork-from-golden uses event-kernel checkpoints";
    }
    plan.batch = plan.batch && plan.batchConflict == nullptr;
    return plan;
}

std::size_t CampaignRunner::checkpointCount() const
{
    return checkpoints_.count(kGoldenCheckpoints);
}

void CampaignRunner::runGolden()
{
    runGolden(resolvePlan());
}

void CampaignRunner::runGolden(const CampaignPlan& plan)
{
    if (goldenRan_) {
        return;
    }
    if (!golden_) {
        golden_ = factory_(); // may already exist: preflight lints it pre-run
    }
    const SimTime cadence = plan.cadence;
    if (cadence > 0) {
        // Fork-from-golden: advance event by event and capture at the first
        // scheduled event past each cadence mark. Scheduled event times are
        // exactly where an uninterrupted run's kernels stop anyway (the
        // analog solver never steps past the next digital event), so the
        // capture points perturb nothing and a restored run is bit-identical
        // to a from-scratch one.
        auto& sim = golden_->sim();
        sim.elaborate();
        const SimTime duration = golden_->duration();
        SimTime nextMark = cadence;
        while (true) {
            const SimTime ev = sim.digital().scheduler().nextEventTime();
            if (ev >= duration) {
                break;
            }
            sim.run(ev);
            if (ev >= nextMark) {
                checkpoints_.put(kGoldenCheckpoints, std::make_shared<const snapshot::Snapshot>(
                                                         sim.captureSnapshot()));
                nextMark = ev + cadence;
                if (plan.tel != nullptr && plan.tel->trace() != nullptr) {
                    std::string args;
                    util::JsonWriter(args).beginObject().member("sim_time", formatTime(ev)).end();
                    plan.tel->trace()->instantEvent("checkpoint", "golden", args);
                }
            }
        }
        sim.run(duration);
    } else {
        golden_->run();
    }
    goldenRan_ = true;
    for (const std::string& name : golden_->observedState()) {
        goldenState_[name] = golden_->sim().digital().instrumentation().hook(name).get();
    }
}

const fault::Testbench& CampaignRunner::golden() const
{
    if (!goldenRan_) {
        throw std::logic_error("CampaignRunner: golden run not executed yet");
    }
    return *golden_;
}

lint::Report CampaignRunner::preflightReport(const std::vector<fault::FaultSpec>& faults)
{
    if (!golden_) {
        golden_ = factory_(); // lint the design without running it
    }
    return lint::lintCampaign(*golden_, faults);
}

RunResult CampaignRunner::classify(fault::Testbench& tb, const fault::FaultSpec& fault) const
{
    RunResult result;
    result.fault = fault;
    const SimTime tEnd = tb.duration();
    VerdictFold verdict(result, tEnd);

    // Digital outputs: exact comparison.
    for (const std::string& name : tb.observedDigital()) {
        const auto diff =
            trace::compareDigital(golden_->recorder().digitalTrace(name),
                                  tb.recorder().digitalTrace(name), tEnd,
                                  tolerance_.digitalJitter);
        verdict.digital(name, diff.firstMismatch, diff.lastMismatchEnd, diff.totalMismatch);
    }

    // Analog outputs: tolerance-based comparison.
    for (const std::string& name : tb.observedAnalog()) {
        verdict.analog(name, trace::compareAnalog(golden_->recorder().analogTrace(name),
                                                  tb.recorder().analogTrace(name),
                                                  tolerance_.analogAbs, tolerance_.analogRel));
    }

    // Final-state comparison (latent faults).
    for (const std::string& name : tb.observedState()) {
        const std::uint64_t now = tb.sim().digital().instrumentation().hook(name).get();
        const auto it = goldenState_.find(name);
        verdict.state(name, it != goldenState_.end() && it->second != now);
    }
    return result;
}

RunResult CampaignRunner::attemptOne(const fault::FaultSpec& fault, int attempt,
                                     const CampaignPlan& plan)
{
    RunResult result;
    result.fault = fault;

    // Fork-from-golden: a first attempt at a real fault may resume from the
    // nearest golden checkpoint strictly before the injection instant (the
    // store is empty unless runGolden() captured in fork mode). Retries
    // always re-simulate from scratch — a tightened solver step invalidates
    // the captured integrator history.
    std::shared_ptr<const snapshot::Snapshot> cp;
    if (attempt == 1 && !fault::isGolden(fault)) {
        const SimTime tInj = fault::injectionTime(fault);
        if (tInj > 0) {
            cp = checkpoints_.nearestBefore(kGoldenCheckpoints, tInj);
        }
    }

    Watchdog watchdog(watchdogConfig_.scaledFor(activeWorkers_));
    obs::Telemetry* const tel = plan.tel;
    // Forensics: a bounded kernel-event ring rides along with the run; it is
    // declared before the testbench so the simulator's recorder pointer never
    // outlives it. Recording is a branch plus a fixed-slot write, so arming
    // it for every run of a campaign is fine.
    std::unique_ptr<obs::FlightRecorder> recorder;
    if (!plan.forensicsDir.empty()) {
        recorder = std::make_unique<obs::FlightRecorder>();
    }
    std::unique_ptr<fault::Testbench> tb;
    obs::ProbeSnapshot baseline;
    try {
        {
            obs::Span span(tel, "build", "run");
            tb = factory_();
        }
        if (recorder) {
            tb->sim().setFlightRecorder(recorder.get());
        }
        if (attempt > 1 && retryPolicy_.stepTighten > 0.0 && retryPolicy_.stepTighten < 1.0) {
            tb->sim().setSolverStepScale(std::pow(retryPolicy_.stepTighten, attempt - 1));
        }
        if (cp) {
            obs::Span span(tel, "restore", "run");
            tb->sim().restoreSnapshot(*cp);
            tb->recorder().preloadPrefix(golden_->recorder(), cp->time, cp->analogTime);
            // Re-arm so the wave/step/wall budgets meter only the post-restore
            // suffix, not the restore work — a forked run must never trip a
            // budget its from-scratch twin would survive.
            watchdog.arm();
        }
        tb->sim().setWatchdog(&watchdog);
        // Probe baseline AFTER a possible restore: restored kernels carry the
        // golden prefix's counters, which must not be billed to this run —
        // that subtraction is what makes per-run deltas agree between forked
        // and from-scratch execution.
        baseline = tb->sim().sampleProbes();
        fault::armFault(*tb, fault);
        {
            obs::Span span(tel, "simulate", "run");
            tb->run();
        }
        {
            obs::Span span(tel, "classify", "run");
            result = classify(*tb, fault);
        }
    } catch (const WatchdogTimeout& e) {
        result.outcome = Outcome::Timeout;
        result.diagnostics.error = e.what();
    } catch (const DivergenceError& e) {
        result.outcome = Outcome::Diverged;
        result.diagnostics.error = e.what();
    } catch (const std::exception& e) {
        // Unknown targets (std::invalid_argument), scheduler limits and any
        // other structural failure: a classified data point, not a crash.
        result.outcome = Outcome::SimError;
        result.diagnostics.error = e.what();
    }

    if (tb) {
        tb->sim().setWatchdog(nullptr);
        tb->sim().setFlightRecorder(nullptr);
        result.diagnostics.digitalWaves = tb->sim().digital().scheduler().deltaCycles();
        if (tb->sim().elaborated()) {
            const auto& stats = tb->sim().solver().stats();
            result.diagnostics.analogSteps = stats.acceptedSteps + stats.rejectedSteps;
        }
        if (baseline.valid) {
            // Sampled even after a watchdog unwind — the final queue depth
            // and solver step sizes are the stall picture for Timeout runs.
            result.diagnostics.probes = tb->sim().sampleProbes().delta(baseline);
        }
    }
    result.diagnostics.wallSeconds = recordTiming_ ? watchdog.elapsedSeconds() : 0.0;
    if (cp && recordTiming_) {
        result.diagnostics.checkpointTime = cp->time;
        if (tb) {
            result.diagnostics.resimulatedTime =
                std::max<SimTime>(tb->sim().now() - cp->time, 0);
        }
    }
    // Abnormal terminal attempt with forensics armed: dump the last-N kernel
    // window. Artifact names are derived from the fault identity and attempt
    // number only, so reruns and different worker widths produce identical
    // paths and (the events being simulated-time-only) identical bytes. A
    // failed dump must not turn a classified data point into a crash.
    if (recorder && isAbnormal(result.outcome)) {
        const std::string stem =
            plan.forensicsDir + "/run-" + fnv1aHex(fault::describe(fault)) + "-a" +
            std::to_string(attempt);
        try {
            recorder->writeArtifacts(stem);
            result.diagnostics.forensic = stem;
            if (tel != nullptr && tel->trace() != nullptr) {
                std::string args;
                util::JsonWriter(args).beginObject().member("stem", stem).end();
                tel->trace()->instantEvent("forensic dump", "run", args);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "gfi: forensics: dump failed for %s: %s\n", stem.c_str(),
                         e.what());
        }
    }
    return result;
}

RunResult CampaignRunner::runContained(const fault::FaultSpec& fault, const CampaignPlan& plan)
{
    const int maxAttempts = std::max(1, retryPolicy_.maxAttempts);
    RunResult result;
    for (int attempt = 1;; ++attempt) {
        result = attemptOne(fault, attempt, plan);
        result.diagnostics.attempts = attempt;
        if (!isAbnormal(result.outcome) || attempt >= maxAttempts ||
            !retryPolicy_.shouldRetry(result.outcome)) {
            return result;
        }
        // Counted at decision time because only the final outcome survives
        // into the result — the cause label would otherwise be lost when a
        // retry succeeds.
        if (plan.tel != nullptr) {
            plan.tel->metrics()
                .counter(std::string("gfi_run_retries_total{cause=\"") +
                             toString(result.outcome) + "\"}",
                         "Retried attempts by the abnormal outcome that triggered them")
                .inc();
        }
    }
}

RunResult CampaignRunner::runOne(const fault::FaultSpec& fault)
{
    const CampaignPlan plan = resolvePlan();
    runGolden(plan);
    return runContained(fault, plan);
}

std::map<Outcome, int> CampaignRunner::liveHistogram() const
{
    const std::lock_guard<std::mutex> lock(liveMutex_);
    return liveHistogram_;
}

std::size_t CampaignRunner::completedRuns() const
{
    const std::lock_guard<std::mutex> lock(liveMutex_);
    return liveCompleted_;
}

namespace {

/// Applies one committed run to the metrics registry (outcome/attempt
/// counters, kernel-probe deltas, fork savings). Called in commit order; only
/// counter/gauge folds, so totals are worker-width invariant.
void recordRunMetrics(obs::Telemetry* tel, const RunResult& r)
{
    if (tel == nullptr) {
        return;
    }
    obs::MetricsRegistry& m = tel->metrics();
    m.counter(std::string("gfi_runs_total{outcome=\"") + toString(r.outcome) + "\"}",
              "Classified campaign runs by outcome")
        .inc();
    m.counter("gfi_run_attempts_total", "Contained run attempts, including retries")
        .inc(static_cast<std::uint64_t>(std::max(1, r.diagnostics.attempts)));

    const obs::ProbeSnapshot& p = r.diagnostics.probes;
    if (!p.valid) {
        return; // never sampled (restored from a pre-telemetry journal)
    }
    m.counter("gfi_digital_events_total", "Digital event-queue entries executed")
        .inc(p.digitalEvents);
    m.counter("gfi_digital_delta_cycles_total", "Delta-cycle waves run").inc(p.deltaCycles);
    m.gauge("gfi_digital_queue_high_water", "Deepest pending event queue of any run")
        .foldMax(static_cast<double>(p.queueHighWater));
    m.counter("gfi_analog_steps_accepted_total", "Accepted analog integration steps")
        .inc(p.analogAcceptedSteps);
    m.counter("gfi_analog_steps_rejected_total", "Rejected analog integration steps")
        .inc(p.analogRejectedSteps);
    m.counter("gfi_analog_newton_iterations_total", "Newton iterations across all steps")
        .inc(p.newtonIterations);
    m.counter("gfi_analog_companion_rebuilds_total",
              "Companion-model restarts after discontinuities")
        .inc(p.companionRebuilds);
    m.gauge("gfi_analog_min_step_seconds", "Smallest accepted analog step of any run")
        .foldMinNonzero(p.minAcceptedDt);
    m.counter("gfi_bridge_atod_crossings_total", "Analog->digital threshold crossings")
        .inc(p.atodCrossings);
    m.counter("gfi_bridge_dtoa_events_total", "Digital->analog drive-level updates")
        .inc(p.dtoaEvents);

    // Per-run distributions of the deterministic resource counters.
    m.histogram("gfi_run_digital_waves", {10, 100, 1000, 10000, 100000, 1000000},
                "Delta-cycle waves per run")
        .observe(static_cast<double>(p.deltaCycles));
    m.histogram("gfi_run_analog_steps", {10, 100, 1000, 10000, 100000, 1000000},
                "Analog step attempts per run")
        .observe(static_cast<double>(p.analogAcceptedSteps + p.analogRejectedSteps));

    if (r.diagnostics.checkpointTime > 0) {
        m.counter("gfi_snapshot_skipped_fs_total",
                  "Simulated time skipped by forking from golden checkpoints")
            .inc(static_cast<std::uint64_t>(r.diagnostics.checkpointTime));
        m.counter("gfi_snapshot_resimulated_fs_total",
                  "Simulated time re-run after restoring a checkpoint")
            .inc(static_cast<std::uint64_t>(std::max<SimTime>(r.diagnostics.resimulatedTime, 0)));
    }
}

/// Static fault collapsing: partitions the list into provably-equivalent
/// classes; only class representatives simulate, members expand at commit
/// time. Purely structural (declared connectivity only), so it costs
/// microseconds even for thousands of faults. nullptr when nothing collapses.
std::unique_ptr<analyze::CollapsePlan> planCollapse(const fault::Testbench& golden,
                                                    const std::vector<fault::FaultSpec>& faults,
                                                    obs::Telemetry* tel)
{
    obs::Span span(tel, "collapse", "campaign");
    auto plan =
        std::make_unique<analyze::CollapsePlan>(analyze::collapseFaults(golden, faults));
    if (plan->collapsedRuns() == 0) {
        return nullptr; // nothing to save: identical to a full campaign
    }
    std::fprintf(stderr, "gfi: fault collapsing: %zu fault%s -> %zu class%s\n", faults.size(),
                 faults.size() == 1 ? "" : "s", plan->classes(),
                 plan->classes() == 1 ? "" : "es");
    if (tel != nullptr) {
        tel->metrics()
            .counter("gfi_runs_collapsed_total",
                     "Campaign runs expanded from a collapse representative instead of "
                     "simulated")
            .inc(plan->collapsedRuns());
    }
    return plan;
}

/// Bit-parallel pre-phase: word-simulates the request's candidates and logs
/// what happened. Returns index -> verdict for every fault the word kernel
/// classified; the rest (ineligible faults or designs, cross-check
/// fallbacks) stay on the contained event-driven path.
std::map<std::size_t, RunResult> runBatchPhase(const batch::BatchRequest& req)
{
    obs::Telemetry* tel = req.telemetry;
    std::map<std::size_t, RunResult> batched;
    const batch::BatchStats bstats = batch::runBatchedCampaign(req, batched);
    if (!bstats.designEligible) {
        std::fprintf(stderr, "gfi: batch: event-driven fallback (%s)\n",
                     bstats.designReason.c_str());
    } else if (bstats.groups > 0 || !bstats.fallbacks.empty()) {
        std::fprintf(stderr,
                     "gfi: batch: %zu run%s word-simulated in %zu group%s, %zu "
                     "event-driven fallback%s\n",
                     bstats.batched, bstats.batched == 1 ? "" : "s", bstats.groups,
                     bstats.groups == 1 ? "" : "s", bstats.fallbacks.size(),
                     bstats.fallbacks.size() == 1 ? "" : "s");
    }
    if (bstats.crossCheckFailures > 0) {
        std::fprintf(stderr,
                     "gfi: batch: %zu group%s failed the golden cross-check and "
                     "re-ran event-driven\n",
                     bstats.crossCheckFailures, bstats.crossCheckFailures == 1 ? "" : "s");
    }
    if (tel != nullptr && bstats.batched > 0) {
        tel->metrics()
            .counter("gfi_runs_batched_total",
                     "Campaign runs classified by the bit-parallel word kernel")
            .inc(bstats.batched);
    }
    return batched;
}

} // namespace

CampaignReport CampaignRunner::run(
    const std::vector<fault::FaultSpec>& faults,
    const std::function<void(std::size_t, const RunResult&)>& progress)
{
    const CampaignPlan plan = resolvePlan();
    obs::Telemetry* const tel = plan.tel;
    const auto campaignStart = std::chrono::steady_clock::now();

    // Static-analysis phase: a broken design or malformed fault list fails
    // here in O(1), before the golden run and before any journal restore.
    if (preflight_) {
        obs::Span span(tel, "preflight", "campaign");
        lint::Report rep = preflightReport(faults);
        if (plan.cadence > 0) {
            // Fork-from-golden restores component state through the
            // Snapshottable interface; a stateful component outside it would
            // silently resume stale (PRE006).
            rep.merge(lint::preflightSnapshot(*golden_));
        }
        if (rep.count(lint::Severity::Error) > 0) {
            throw lint::PreflightError(std::move(rep));
        }
    }
    {
        obs::Span span(tel, "golden", "campaign");
        if (tel != nullptr && tel->trace() != nullptr) {
            tel->trace()->nameCurrentTrack("campaign");
        }
        runGolden(plan);
    }

    // Source assignment: every index gets exactly one Source before the
    // worker phase, so workers only simulate and the ordered commit only
    // dispatches. Restored and Batched verdicts land in their report slots
    // up front; Expanded and Simulated ones arrive at commit time.
    CampaignReport report;
    report.runs.resize(faults.size());
    std::vector<Source> sources(faults.size(), Source::Simulated);
    const std::unique_ptr<analyze::CollapsePlan> collapse =
        plan.collapse ? planCollapse(*golden_, faults, tel) : nullptr;
    for (std::size_t i = 0; collapse && i < faults.size(); ++i) {
        if (!collapse->isRepresentative(i)) {
            sources[i] = Source::Expanded;
        }
    }
    if (plan.batchConflict != nullptr) {
        std::fprintf(stderr, "gfi: batch: disabled (%s)\n", plan.batchConflict);
    }

    // Resume: index -> journal entry of an earlier (possibly killed) campaign.
    // Restorability is decided here, serially (preflightFault is cheap
    // registry lookups); a restored entry beats every other Source.
    std::map<std::size_t, JournalEntry> done;
    std::unique_ptr<CampaignJournal> journal;
    std::size_t restored = 0;
    if (!journalPath_.empty()) {
        CampaignJournal::LoadResult loaded = CampaignJournal::loadWithStats(journalPath_);
        report.journalSkippedLines = loaded.skippedLines;
        for (JournalEntry& e : loaded.entries) {
            done[e.index] = std::move(e); // later duplicates win
        }
        journal = std::make_unique<CampaignJournal>(journalPath_);
        // With a sink attached, journal lines carry the per-run kernel deltas
        // so a resumed campaign rebuilds the same metric totals from restored
        // entries. Without one the line format stays exactly historical.
        journal->setEmbedProbes(tel != nullptr);
    }
    for (auto& [i, entry] : done) {
        // Restorable: same index and fault description, and still passing
        // preflight — a stale sim-error row must not be resurrected.
        if (i >= faults.size() || entry.faultDescription != fault::describe(faults[i]) ||
            (preflight_ && lint::preflightFault(*golden_, faults[i], i)
                                   .count(lint::Severity::Error) > 0)) {
            continue;
        }
        RunResult& r = report.runs[i] = std::move(entry.result);
        r.fault = faults[i];
        plan.scrub(r.diagnostics);
        sources[i] = Source::Restored;
        ++restored;
    }
    const std::size_t journalSkipped = report.journalSkippedLines;
    // Resume log line: operators must be able to tell a clean resume from a
    // lossy one (skipped lines mean those runs re-simulate).
    if (!done.empty() || journalSkipped > 0) {
        std::fprintf(stderr,
                     "gfi: journal %s: %zu entr%s loaded, %zu restorable, %zu "
                     "torn/corrupt line%s skipped\n",
                     journalPath_.c_str(), done.size(), done.size() == 1 ? "y" : "ies",
                     restored, journalSkipped, journalSkipped == 1 ? "" : "s");
    }
    if (tel != nullptr && journalSkipped > 0) {
        tel->metrics()
            .counter("gfi_journal_skipped_lines_total",
                     "Torn/corrupt journal lines skipped on resume")
            .inc(journalSkipped);
    }

    {
        const std::lock_guard<std::mutex> lock(liveMutex_);
        liveHistogram_.clear();
        liveCompleted_ = 0;
    }

    // Bit-parallel pre-phase over the non-golden representatives. Lane
    // assignment ignores restoration status, so journals of interrupted
    // batched campaigns resume with identical batch_lane keys.
    std::size_t batchedCount = 0;
    if (plan.batch) {
        batch::BatchRequest breq;
        breq.factory = &factory_;
        breq.golden = golden_.get();
        breq.goldenState = &goldenState_;
        breq.goldenWaves = golden_->sim().digital().scheduler().deltaCycles();
        if (golden_->sim().elaborated()) {
            const auto& stats = golden_->sim().solver().stats();
            breq.goldenAnalogSteps = stats.acceptedSteps + stats.rejectedSteps;
        }
        breq.faults = &faults;
        for (std::size_t i = 0; i < faults.size(); ++i) {
            if (!fault::isGolden(faults[i]) && (!collapse || collapse->isRepresentative(i))) {
                breq.candidates.push_back(i);
                breq.needSim.push_back(sources[i] == Source::Restored ? 0 : 1);
            }
        }
        breq.tolerance = tolerance_;
        breq.workers = workers_;
        breq.recordTiming = recordTiming_;
        breq.telemetry = tel;
        for (auto& [i, r] : runBatchPhase(breq)) {
            report.runs[i] = std::move(r);
            sources[i] = Source::Batched;
            ++batchedCount;
        }
    }

    // Worker phase: simulations run concurrently, commits (journal append,
    // live counters, progress callback, report slot) run serialized in
    // fault-list order — byte-identical observable output at any width.
    core::Executor exec(workers_);
    activeWorkers_ = exec.effectiveWorkers();

    // Live progress stream (NDJSON). Counts are cumulative across the whole
    // campaign — journal-restored runs included — so a resumed campaign
    // reports restored + new, never from zero; throughput and ETA come from
    // newly executed (simulated or word-batched) runs only. All emission
    // happens on the serialized commit path plus the start/done bookends, so
    // no extra synchronization is needed beyond the live-counter mutex.
    struct ProgressCounters {
        std::size_t restored = 0;  ///< committed from the journal
        std::size_t batched = 0;   ///< committed from the word kernel
        std::size_t collapsed = 0; ///< expanded from a collapse representative
        std::size_t executed = 0;  ///< newly simulated or word-batched
    };
    ProgressCounters prog;
    const auto progressStart = std::chrono::steady_clock::now();
    auto lastBeat = progressStart;
    const auto emitProgress = [&](const char* event) {
        if (!progressSink_) {
            return;
        }
        std::map<Outcome, int> hist;
        std::size_t completed = 0;
        {
            const std::lock_guard<std::mutex> lock(liveMutex_);
            hist = liveHistogram_;
            completed = liveCompleted_;
        }
        std::string line;
        util::JsonWriter w(line);
        w.beginObject().member("event", event).member("completed", completed);
        w.member("total", faults.size()).key("outcomes").beginObject();
        for (Outcome o : kAllOutcomes) {
            const auto it = hist.find(o);
            w.member(toString(o), it != hist.end() ? it->second : 0);
        }
        w.end().member("restored", prog.restored).member("batched", prog.batched);
        w.member("collapsed", prog.collapsed).member("workers", activeWorkers_);
        // With timing recording off, elapsed is pinned to 0 and the derived
        // rate/ETA fields are omitted, so the stream is byte-deterministic.
        const double elapsed =
            recordTiming_ ? std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                          progressStart)
                                .count()
                          : 0.0;
        w.member("elapsed_s", elapsed, 3);
        if (elapsed > 0.0 && prog.executed > 0) {
            const double rate = static_cast<double>(prog.executed) / elapsed;
            w.member("runs_per_s", rate, 3);
            if (completed < faults.size()) {
                w.member("eta_s", static_cast<double>(faults.size() - completed) / rate, 3);
            }
        }
        // The start line also carries the campaign plan.
        if (std::string_view(event) == "start") {
            w.member("restorable", restored)
                .member("collapsed_planned", collapse ? collapse->collapsedRuns() : 0)
                .member("batched_planned", batchedCount);
        }
        w.end();
        line += '\n';
        progressSink_(line);
    };
    emitProgress("start");

    try {
        exec.forEachOrdered(faults.size(), [&](std::size_t i) -> core::CommitFn {
            RunResult r;
            if (sources[i] == Source::Simulated) {
                if (tel != nullptr && tel->trace() != nullptr) {
                    tel->trace()->nameCurrentTrack(
                        "worker " + std::to_string(obs::TraceWriter::currentTrackId()));
                }
                obs::Span span(tel, "run #" + std::to_string(i), "campaign");
                r = runContained(faults[i], plan);
                std::string args;
                util::JsonWriter(args)
                    .beginObject()
                    .member("fault", fault::describe(faults[i]))
                    .member("outcome", toString(r.outcome))
                    .end();
                span.setArgs(std::move(args));
            }
            return [this, &report, &journal, &progress, &faults, &sources, &prog, &lastBeat,
                    &emitProgress, collapse = collapse.get(), tel, i,
                    r = std::move(r)]() mutable {
                RunResult& slot = report.runs[i];
                switch (sources[i]) {
                case Source::Restored:
                    ++prog.restored; // already in its slot and in the journal
                    break;
                case Source::Batched:
                    ++prog.batched;
                    ++prog.executed;
                    break;
                case Source::Expanded:
                    // The representative (an earlier index) has committed,
                    // so its slot is guaranteed populated.
                    slot = expandCollapsed(report.runs[collapse->repOf[i]], faults[i]);
                    ++prog.collapsed;
                    break;
                case Source::Simulated:
                    slot = std::move(r);
                    ++prog.executed;
                    break;
                }
                if (journal && sources[i] != Source::Restored) {
                    journal->append(i, slot);
                }
                {
                    const std::lock_guard<std::mutex> lock(liveMutex_);
                    ++liveHistogram_[slot.outcome];
                    ++liveCompleted_;
                }
                // Commit-order metric application: counters only see the
                // deterministic per-run deltas, so totals match at any
                // worker width; restored entries re-apply their journaled
                // deltas, reproducing the interrupted campaign's telemetry.
                recordRunMetrics(tel, slot);
                if (progress) {
                    progress(i, slot);
                }
                if (progressSink_) {
                    const auto beatNow = std::chrono::steady_clock::now();
                    if (progressCadence_ <= 0.0 ||
                        std::chrono::duration<double>(beatNow - lastBeat).count() >=
                            progressCadence_) {
                        lastBeat = beatNow;
                        emitProgress("heartbeat");
                    }
                }
            };
        });
    } catch (...) {
        activeWorkers_ = 1;
        throw;
    }
    emitProgress("done");
    const unsigned usedWorkers = activeWorkers_;
    activeWorkers_ = 1;

    if (tel != nullptr) {
        // Campaign-level readings. The checkpoint-store counters bill only
        // this run()'s usage (difference against the last application), so
        // repeated campaigns on one runner accumulate without double counting.
        obs::MetricsRegistry& m = tel->metrics();
        const snapshot::CheckpointStore::Stats st = checkpoints_.stats();
        m.counter("gfi_snapshot_checkpoints_total", "Golden checkpoints captured")
            .inc(st.puts - statsApplied_.puts);
        m.counter("gfi_snapshot_checkpoint_hits_total",
                  "Fork lookups that found a usable golden checkpoint")
            .inc(st.hits - statsApplied_.hits);
        m.counter("gfi_snapshot_checkpoint_misses_total",
                  "Fork lookups with no checkpoint before the injection time")
            .inc(st.misses - statsApplied_.misses);
        m.gauge("gfi_snapshot_bytes", "Serialized bytes held by the checkpoint store")
            .set(static_cast<double>(st.bytes));
        statsApplied_ = st;
        m.gauge("gfi_campaign_workers", "Resolved worker-thread count of the last campaign")
            .set(static_cast<double>(usedWorkers));
        m.gauge("gfi_campaign_wall_seconds", "Wall-clock time of the last campaign")
            .set(std::chrono::duration<double>(std::chrono::steady_clock::now() - campaignStart)
                     .count());
        tel->flush();
    }
    return report;
}


} // namespace gfi::campaign
