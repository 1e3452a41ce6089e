#include "core/report.hpp"

#include "util/file.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace gfi::campaign {

void writeReportCsv(const CampaignReport& report, const std::string& path,
                    const CsvOptions& options)
{
    std::vector<std::string> header{
        "fault", "target", "outcome", "first_output_error_fs", "total_output_error_fs",
        "max_analog_deviation_v", "analog_time_outside_tol_s", "erred_signals",
        "corrupted_state", "attempts", "wall_s", "checkpoint_fs", "resim_fs",
        "from_journal", "error", "collapsed_from", "batch_lane"};
    if (options.costColumns) {
        // Appended after every historical column so the default shape stays
        // byte-identical and trailing-column consumers keep working.
        header.insert(header.end(), {"digital_waves", "analog_steps", "forensic"});
    }
    std::string csv = csvRow(header);
    for (const RunResult& r : report.runs) {
        std::string erred;
        for (const std::string& s : r.erredSignals) {
            erred += (erred.empty() ? "" : ";") + s;
        }
        std::string corrupted;
        for (const std::string& s : r.corruptedState) {
            corrupted += (corrupted.empty() ? "" : ";") + s;
        }
        std::vector<std::string> row{fault::describe(r.fault), targetOf(r.fault),
                                     toString(r.outcome),
                                     std::to_string(r.firstOutputError),
                                     std::to_string(r.totalOutputErrorTime),
                                     formatDouble(r.maxAnalogDeviation, 9),
                                     formatDouble(r.analogTimeOutsideTol, 9), erred,
                                     corrupted, std::to_string(r.diagnostics.attempts),
                                     formatDouble(r.diagnostics.wallSeconds, 6),
                                     std::to_string(r.diagnostics.checkpointTime),
                                     std::to_string(r.diagnostics.resimulatedTime),
                                     r.diagnostics.fromJournal ? "1" : "0",
                                     r.diagnostics.error, r.diagnostics.collapsedFrom,
                                     r.diagnostics.batchLane > 0
                                         ? std::to_string(r.diagnostics.batchLane)
                                         : ""};
        if (options.costColumns) {
            row.push_back(std::to_string(r.diagnostics.digitalWaves));
            row.push_back(std::to_string(r.diagnostics.analogSteps));
            row.push_back(r.diagnostics.forensic);
        }
        csv += csvRow(row);
    }
    util::writeFile(path, csv, "writeReportCsv");
}

std::string reportToJson(const CampaignReport& report)
{
    const auto hist = report.histogram();
    using Layout = util::JsonWriter::Layout;
    std::string json;
    util::JsonWriter w(json);
    w.beginObject(Layout::Block).key("summary").beginObject(Layout::Block);
    w.member("total", report.runs.size());
    // One counter per Outcome category — iterate the full enum so new
    // categories can never be silently dropped from the summary.
    for (Outcome o : kAllOutcomes) {
        const auto it = hist.find(o);
        w.member(toString(o), it == hist.end() ? 0 : it->second);
    }
    w.end().key("runs").beginArray(Layout::Block);
    for (const RunResult& r : report.runs) {
        const RunDiagnostics& d = r.diagnostics;
        w.beginObject().member("fault", fault::describe(r.fault));
        w.member("target", targetOf(r.fault)).member("outcome", toString(r.outcome));
        w.member("first_output_error_fs", r.firstOutputError);
        w.member("total_output_error_fs", r.totalOutputErrorTime);
        w.member("max_analog_deviation_v", r.maxAnalogDeviation, 9).member("attempts", d.attempts);
        // Forked runs carry their checkpoint bookkeeping; from-scratch runs
        // omit the fields so pre-fork reports keep their exact shape.
        if (d.checkpointTime > 0) {
            w.member("checkpoint_fs", d.checkpointTime).member("resim_fs", d.resimulatedTime);
        }
        // Resumed campaigns restore classified rows from the journal; flag
        // them so a report consumer can tell restored from fresh results.
        if (d.fromJournal) {
            w.member("from_journal", true);
        }
        if (!d.error.empty()) {
            w.member("error", d.error);
        }
        // Expanded collapse-class members name their simulated
        // representative; simulated runs omit the key so pre-collapse
        // reports keep their exact shape.
        if (!d.collapsedFrom.empty()) {
            w.member("collapsed_from", d.collapsedFrom);
        }
        // Word-simulated runs name their fault lane (>= 1); event-driven
        // runs omit the key so pre-batch reports keep their exact shape.
        if (d.batchLane > 0) {
            w.member("batch_lane", d.batchLane);
        }
        // Abnormal runs that dumped a flight-recorder window name the
        // artifact stem; other runs omit the key, keeping the exact
        // pre-forensics shape.
        if (!d.forensic.empty()) {
            w.member("forensic", d.forensic);
        }
        w.end();
    }
    w.end().end();
    json += '\n';
    return json;
}

void writeReportJson(const CampaignReport& report, const std::string& path)
{
    util::writeFile(path, reportToJson(report), "writeReportJson");
}

} // namespace gfi::campaign
