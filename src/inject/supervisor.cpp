#include "inject/supervisor.hpp"

#include "obs/telemetry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <stdexcept>

namespace gfi::inject {

const char* toString(CpuClass c)
{
    switch (c) {
    case CpuClass::Masked:
        return "masked";
    case CpuClass::Corrected:
        return "corrected";
    case CpuClass::Detected:
        return "detected";
    case CpuClass::SilentDataCorruption:
        return "sdc";
    case CpuClass::Hang:
        return "hang";
    case CpuClass::Contained:
        return "contained";
    }
    return "?";
}

const char* toString(TargetClass t)
{
    switch (t) {
    case TargetClass::Pc:
        return "pc";
    case TargetClass::Acc:
        return "acc";
    case TargetClass::Ctrl:
        return "ctrl";
    case TargetClass::Ram:
        return "ram";
    case TargetClass::OutReg:
        return "outreg";
    case TargetClass::Other:
        return "other";
    }
    return "?";
}

TargetClass targetClassOf(const std::string& hookName)
{
    const auto endsWith = [&hookName](const char* suffix) {
        const std::size_t n = std::string(suffix).size();
        return hookName.size() >= n &&
               hookName.compare(hookName.size() - n, n, suffix) == 0;
    };
    if (hookName.find("/sup/") != std::string::npos) {
        return TargetClass::Other;
    }
    if (endsWith("/pc")) {
        return TargetClass::Pc;
    }
    if (endsWith("/acc")) {
        return TargetClass::Acc;
    }
    if (endsWith("/halt")) {
        return TargetClass::Ctrl;
    }
    if (hookName.find("/ram/w") != std::string::npos) {
        return TargetClass::Ram;
    }
    if (hookName.find("/outreg") != std::string::npos) {
        return TargetClass::OutReg;
    }
    return TargetClass::Other;
}

// ---------------------------------------------------------------------------
// SupervisorReport

void SupervisorReport::rebuild()
{
    classes.clear();
    byTarget.clear();
    totals.clear();
    classes.reserve(campaign.runs.size());
    for (const campaign::RunResult& r : campaign.runs) {
        const CpuClass c = InjectionSupervisor::classifyRun(r);
        classes.push_back(c);
        ++totals[c];
        ++byTarget[targetClassOf(campaign::targetOf(r.fault))][c];
    }
}

int SupervisorReport::runsFor(TargetClass t) const
{
    const auto it = byTarget.find(t);
    if (it == byTarget.end()) {
        return 0;
    }
    int n = 0;
    for (const auto& [cls, count] : it->second) {
        n += count;
    }
    return n;
}

campaign::Proportion SupervisorReport::rate(TargetClass t, CpuClass c, double z) const
{
    const int trials = runsFor(t);
    int successes = 0;
    if (const auto it = byTarget.find(t); it != byTarget.end()) {
        if (const auto jt = it->second.find(c); jt != it->second.end()) {
            successes = jt->second;
        }
    }
    return campaign::wilsonInterval(successes, trials, z);
}

std::string formatRateCell(const campaign::Proportion& p)
{
    if (p.trials == 0) {
        return "n/a";
    }
    return std::to_string(p.successes) + " (" + formatDouble(100.0 * p.estimate, 3) +
           " % [" + formatDouble(100.0 * p.low, 3) + ", " +
           formatDouble(100.0 * p.high, 3) + "])";
}

std::string SupervisorReport::table() const
{
    TextTable t;
    std::vector<std::string> header{"target class", "runs"};
    for (CpuClass c : kAllCpuClasses) {
        header.emplace_back(toString(c));
    }
    t.setHeader(header);
    for (TargetClass tc : kReportTargetClasses) {
        const int runs = runsFor(tc);
        if (runs == 0) {
            continue;
        }
        std::vector<std::string> row{toString(tc), std::to_string(runs)};
        for (CpuClass c : kAllCpuClasses) {
            row.push_back(formatRateCell(rate(tc, c)));
        }
        t.addRow(row);
    }
    t.addSeparator();
    std::vector<std::string> totalRow{"all", std::to_string(classes.size())};
    const int all = static_cast<int>(classes.size());
    for (CpuClass c : kAllCpuClasses) {
        const auto it = totals.find(c);
        totalRow.push_back(
            formatRateCell(campaign::wilsonInterval(it == totals.end() ? 0 : it->second, all)));
    }
    t.addRow(totalRow);
    return t.str();
}

std::string SupervisorReport::csv() const
{
    std::string out = "target_class,cpu_class,count,runs,rate,low,high\n";
    for (TargetClass tc : kReportTargetClasses) {
        const int runs = runsFor(tc);
        if (runs == 0) {
            continue;
        }
        for (CpuClass c : kAllCpuClasses) {
            const campaign::Proportion p = rate(tc, c);
            out += std::string(toString(tc)) + "," + toString(c) + "," +
                   std::to_string(p.successes) + "," + std::to_string(p.trials) + ",";
            if (p.trials == 0) {
                out += "n/a,n/a,n/a\n";
            } else {
                out += formatDouble(p.estimate, 6) + "," + formatDouble(p.low, 6) + "," +
                       formatDouble(p.high, 6) + "\n";
            }
        }
    }
    return out;
}

std::string SupervisorReport::json() const
{
    const auto prop = [](util::JsonWriter& w, const campaign::Proportion& p) {
        w.beginObject().member("count", p.successes).member("runs", p.trials);
        if (p.trials == 0) {
            // No samples: the Wilson interval is undefined, so the estimate
            // fields are null rather than a misleading 0-width interval.
            w.key("rate").null().key("low").null().key("high").null();
        } else {
            w.member("rate", p.estimate, 6).member("low", p.low, 6).member("high", p.high, 6);
        }
        w.end();
    };
    std::string out;
    util::JsonWriter w(out);
    w.beginObject().member("samples", classes.size()).key("classes").beginObject();
    const int all = static_cast<int>(classes.size());
    for (CpuClass c : kAllCpuClasses) {
        const auto it = totals.find(c);
        prop(w.key(toString(c)),
             campaign::wilsonInterval(it == totals.end() ? 0 : it->second, all));
    }
    w.end().key("targets").beginObject();
    for (TargetClass tc : kReportTargetClasses) {
        if (runsFor(tc) == 0) {
            continue;
        }
        w.key(toString(tc)).beginObject();
        for (CpuClass c : kAllCpuClasses) {
            prop(w.key(toString(c)), rate(tc, c));
        }
        w.end();
    }
    w.end().end();
    return out;
}

// ---------------------------------------------------------------------------
// InjectionSupervisor

InjectionSupervisor::InjectionSupervisor(duts::CpuSystemConfig config)
    : config_(std::move(config)),
      runner_([cfg = config_] { return std::make_unique<duts::CpuSystemTestbench>(cfg); })
{
}

SimTime InjectionSupervisor::clockPeriod() const
{
    return fromSeconds(1.0 / config_.clockHz);
}

SimTime InjectionSupervisor::goldenHaltTime()
{
    if (goldenHalt_ >= 0) {
        return goldenHalt_;
    }
    duts::CpuSystemTestbench probe(config_);
    probe.run();
    if (probe.hangDetected() || !probe.cpu().halted()) {
        throw std::invalid_argument(
            "InjectionSupervisor: the golden program must halt before the hang "
            "deadline (" + formatTime(probe.hangDeadline()) +
            ") — the Hang class is undefined for a program that never halts");
    }
    const auto edges = probe.recorder().digitalTrace("sys/halted").risingEdges();
    goldenHalt_ = edges.empty() ? probe.sim().now() : edges.front();
    return goldenHalt_;
}

std::vector<ArchTarget> InjectionSupervisor::targets() const
{
    const duts::CpuSystemTestbench probe(config_);
    std::vector<ArchTarget> out;
    // Map iteration order = sorted names: deterministic across platforms.
    for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
        const TargetClass cls = targetClassOf(name);
        if (cls == TargetClass::Other) {
            continue; // meta-hooks and non-architectural state
        }
        out.push_back(ArchTarget{name, hook.width, cls});
    }
    return out;
}

std::vector<fault::FaultSpec> InjectionSupervisor::sampleFaults(std::size_t n,
                                                                std::uint64_t seed)
{
    const std::vector<ArchTarget> tgts = targets();
    std::uint64_t totalBits = 0;
    for (const ArchTarget& t : tgts) {
        totalBits += static_cast<std::uint64_t>(t.width);
    }
    if (totalBits == 0) {
        throw std::invalid_argument("InjectionSupervisor: no architectural targets");
    }
    const SimTime period = clockPeriod();
    const auto haltCycle =
        static_cast<std::uint64_t>(std::max<SimTime>(goldenHaltTime() / period, 2));

    Rng rng(seed);
    std::vector<fault::FaultSpec> faults;
    faults.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Target weighted by bit count: every architectural bit is equally
        // likely, which is the physical cross-section model.
        std::uint64_t pick = rng.below(totalBits);
        const ArchTarget* target = &tgts.front();
        for (const ArchTarget& t : tgts) {
            if (pick < static_cast<std::uint64_t>(t.width)) {
                target = &t;
                break;
            }
            pick -= static_cast<std::uint64_t>(t.width);
        }
        const int bit = static_cast<int>(pick);
        // Cycle uniform in [1, golden halt cycle); the flip lands mid-cycle
        // so it never races the capture edge itself.
        const std::uint64_t cycle = 1 + rng.below(haltCycle - 1);
        const SimTime time =
            static_cast<SimTime>(cycle) * period + (period * 37) / 100;
        faults.emplace_back(fault::BitFlipFault{target->hook, bit, time});
    }
    return faults;
}

std::vector<fault::FaultSpec>
InjectionSupervisor::exhaustiveFaults(TargetClass cls,
                                      const std::vector<SimTime>& times) const
{
    std::vector<fault::FaultSpec> faults;
    for (const ArchTarget& t : targets()) {
        if (t.cls != cls) {
            continue;
        }
        for (int bit = 0; bit < t.width; ++bit) {
            for (SimTime time : times) {
                faults.emplace_back(fault::BitFlipFault{t.hook, bit, time});
            }
        }
    }
    return faults;
}

SupervisorReport InjectionSupervisor::run(const std::vector<fault::FaultSpec>& faults)
{
    goldenHaltTime(); // validates the golden program before any injection
    obs::Telemetry* const tel = runner_.telemetry();
    SupervisorReport report;
    report.campaign =
        runner_.run(faults, [tel](std::size_t, const campaign::RunResult& r) {
            if (tel != nullptr) {
                // Commit order, so totals are worker-width invariant.
                tel->metrics()
                    .counter(std::string("gfi_cpu_class_total{class=\"") +
                                 toString(classifyRun(r)) + "\"}",
                             "Architectural CPU outcome classes")
                    .inc();
            }
        });
    report.rebuild();
    return report;
}

CpuClass InjectionSupervisor::classifyRun(const campaign::RunResult& r)
{
    if (campaign::isAbnormal(r.outcome)) {
        return CpuClass::Contained;
    }
    const auto corrupted = [&r](const char* hook) {
        return std::find(r.corruptedState.begin(), r.corruptedState.end(), hook) !=
               r.corruptedState.end();
    };
    if (corrupted(duts::kHangHook)) {
        return CpuClass::Hang;
    }
    if (corrupted(duts::kDetectedHook)) {
        return CpuClass::Detected;
    }
    if (!r.erredSignals.empty() || corrupted(duts::kMemImageHook)) {
        return CpuClass::SilentDataCorruption;
    }
    if (corrupted(duts::kCorrectedHook)) {
        return CpuClass::Corrected;
    }
    return CpuClass::Masked;
}

} // namespace gfi::inject
