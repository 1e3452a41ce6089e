#include "inject/sweep.hpp"

#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <stdexcept>

namespace gfi::inject {

const SupervisorReport& SweepReport::report(duts::HardeningMode mode) const
{
    for (const SweepEntry& e : entries) {
        if (e.mode == mode) {
            return e.report;
        }
    }
    throw std::out_of_range(std::string("SweepReport: no entry for mode ") +
                            duts::toString(mode));
}

campaign::Proportion SweepReport::rate(duts::HardeningMode mode, TargetClass t,
                                       CpuClass c) const
{
    return report(mode).rate(t, c);
}

std::string SweepReport::table() const
{
    TextTable t;
    std::vector<std::string> header{"hardening", "runs"};
    for (CpuClass c : kAllCpuClasses) {
        header.emplace_back(toString(c));
    }
    t.setHeader(header);
    for (const SweepEntry& e : entries) {
        const int all = static_cast<int>(e.report.classes.size());
        std::vector<std::string> row{duts::toString(e.mode), std::to_string(all)};
        for (CpuClass c : kAllCpuClasses) {
            const auto it = e.report.totals.find(c);
            // Shared cell formatter: a zero-sample sweep entry renders "n/a"
            // instead of a degenerate 0% [0, 0] interval.
            row.push_back(formatRateCell(
                campaign::wilsonInterval(it == e.report.totals.end() ? 0 : it->second, all)));
        }
        t.addRow(row);
    }
    return t.str();
}

std::string SweepReport::csv() const
{
    std::string out = "mode,target_class,cpu_class,count,runs,rate,low,high\n";
    for (const SweepEntry& e : entries) {
        std::string perMode = e.report.csv();
        // Drop the per-report header line, prefix each row with the mode.
        const std::size_t firstNl = perMode.find('\n');
        std::size_t pos = firstNl == std::string::npos ? perMode.size() : firstNl + 1;
        while (pos < perMode.size()) {
            const std::size_t nl = perMode.find('\n', pos);
            const std::size_t end = nl == std::string::npos ? perMode.size() : nl;
            out += std::string(duts::toString(e.mode)) + "," +
                   perMode.substr(pos, end - pos) + "\n";
            pos = end + 1;
        }
    }
    return out;
}

std::string SweepReport::json() const
{
    std::string out;
    util::JsonWriter w(out);
    w.beginObject().key("sweep").beginArray();
    for (const SweepEntry& e : entries) {
        w.beginObject().member("mode", duts::toString(e.mode));
        w.key("report").raw(e.report.json()).end();
    }
    w.end().end();
    return out;
}

SweepReport runHardeningSweep(const duts::CpuSystemConfig& base,
                              const std::vector<duts::HardeningMode>& modes,
                              const SweepOptions& options)
{
    SweepReport sweep;
    for (duts::HardeningMode mode : modes) {
        duts::CpuSystemConfig cfg = base;
        cfg.hardening = duts::hardeningPreset(mode);
        InjectionSupervisor supervisor(cfg);
        supervisor.runner().setWorkers(options.workers);
        supervisor.runner().setRecordTiming(options.recordTiming);
        supervisor.runner().setWatchdogConfig(options.watchdog);
        if (options.telemetry != nullptr) {
            supervisor.runner().setTelemetry(*options.telemetry);
        }
        SweepEntry entry;
        entry.mode = mode;
        entry.report = supervisor.run(supervisor.sampleFaults(options.samples, options.seed));
        sweep.entries.push_back(std::move(entry));
    }
    return sweep;
}

} // namespace gfi::inject
