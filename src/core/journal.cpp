#include "core/journal.hpp"

#include "core/report.hpp"
#include "util/json.hpp"

#include <stdexcept>

namespace gfi::campaign {

namespace {

// Optional members of a journal line: an absent key keeps the default (older
// journals lack the newer keys); a present key of the wrong type throws, and
// parseLine() skips the line.

void read(const util::JsonValue& obj, const char* key, std::string& out)
{
    if (const util::JsonValue* v = obj.find(key)) {
        out = v->asString();
    }
}

void read(const util::JsonValue& obj, const char* key, double& out)
{
    if (const util::JsonValue* v = obj.find(key)) {
        out = v->asNumber();
    }
}

template <typename Int>
void read(const util::JsonValue& obj, const char* key, Int& out)
{
    if (const util::JsonValue* v = obj.find(key)) {
        out = v->asInteger<Int>();
    }
}

void read(const util::JsonValue& obj, const char* key, std::vector<std::string>& out)
{
    if (const util::JsonValue* v = obj.find(key)) {
        out.clear();
        for (const util::JsonValue& item : v->asArray()) {
            out.push_back(item.asString());
        }
    }
}

} // namespace

CampaignJournal::CampaignJournal(std::string path) : path_(std::move(path))
{
    // A journal left by a killed campaign can end mid-line; terminate it
    // before appending so the first new record is not glued onto the torn one.
    bool needsNewline = false;
    if (std::FILE* probe = std::fopen(path_.c_str(), "rb")) {
        if (std::fseek(probe, -1, SEEK_END) == 0) {
            needsNewline = std::fgetc(probe) != '\n';
        }
        std::fclose(probe);
    }
    file_ = std::fopen(path_.c_str(), "a");
    if (file_ == nullptr) {
        throw std::runtime_error("CampaignJournal: cannot open " + path_);
    }
    if (needsNewline) {
        std::fputc('\n', file_);
    }
}

CampaignJournal::~CampaignJournal()
{
    if (file_ != nullptr) {
        std::fclose(file_);
    }
}

std::string CampaignJournal::entryToJson(std::size_t index, const RunResult& r,
                                         bool embedProbes)
{
    const RunDiagnostics& d = r.diagnostics;
    std::string json;
    util::JsonWriter w(json);
    w.beginObject().member("index", index).member("fault", fault::describe(r.fault));
    w.member("outcome", toString(r.outcome)).member("attempts", d.attempts);
    w.member("error", d.error).member("wall_s", d.wallSeconds, 6);
    w.member("digital_waves", d.digitalWaves).member("analog_steps", d.analogSteps);
    w.member("checkpoint_fs", d.checkpointTime).member("resim_fs", d.resimulatedTime);
    w.member("first_output_error_fs", r.firstOutputError);
    w.member("last_output_error_end_fs", r.lastOutputErrorEnd);
    w.member("total_output_error_fs", r.totalOutputErrorTime);
    w.member("max_analog_deviation_v", r.maxAnalogDeviation, 9);
    w.member("analog_time_outside_tol_s", r.analogTimeOutsideTol, 9);
    w.member("erred_signals", r.erredSignals).member("corrupted_state", r.corruptedState);
    // Collapse provenance — only when set, so lines of non-collapsed runs
    // remain byte-identical to pre-collapse journals.
    if (!d.collapsedFrom.empty()) {
        w.member("collapsed_from", d.collapsedFrom);
    }
    // Batch provenance — only on word-simulated runs, so event-driven lines
    // remain byte-identical to pre-batch journals.
    if (d.batchLane > 0) {
        w.member("batch_lane", d.batchLane);
    }
    // Forensic provenance — only on abnormal runs that dumped a flight-
    // recorder window, so ordinary lines remain byte-identical.
    if (!d.forensic.empty()) {
        w.member("forensic", d.forensic);
    }
    // Appended after every historical key so lines without probes remain
    // byte-identical to pre-observability journals.
    if (embedProbes && d.probes.valid) {
        const obs::ProbeSnapshot& p = d.probes;
        w.key("probes").beginObject().member("digital_events", p.digitalEvents);
        w.member("delta_cycles", p.deltaCycles).member("queue_high_water", p.queueHighWater);
        w.member("pending_events", p.pendingEvents);
        w.member("analog_accepted", p.analogAcceptedSteps);
        w.member("analog_rejected", p.analogRejectedSteps);
        w.member("newton_iterations", p.newtonIterations);
        w.member("companion_rebuilds", p.companionRebuilds);
        w.member("min_dt_s", p.minAcceptedDt, 12).member("last_dt_s", p.lastAcceptedDt, 12);
        w.member("atod_crossings", p.atodCrossings).member("dtoa_events", p.dtoaEvents).end();
    }
    w.end();
    return json;
}

void CampaignJournal::append(std::size_t index, const RunResult& result)
{
    const std::string line = entryToJson(index, result, embedProbes_) + "\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0) {
        throw std::runtime_error("CampaignJournal: write failed on " + path_);
    }
}

std::optional<JournalEntry> CampaignJournal::parseLine(const std::string& line)
{
    // A record is only trusted when it is one whole, well-typed JSON object:
    // a line torn by a kill mid-append, or one with a corrupted value, must
    // be re-simulated rather than restored with defaulted fields.
    JournalEntry e;
    RunResult& r = e.result;
    RunDiagnostics& d = r.diagnostics;
    try {
        const util::JsonValue doc = util::parseJson(line);
        const util::JsonValue* index = doc.find("index");
        const util::JsonValue* fault = doc.find("fault");
        const util::JsonValue* outcome = doc.find("outcome");
        if (index == nullptr || fault == nullptr || outcome == nullptr ||
            !outcomeFromString(outcome->asString(), r.outcome)) {
            return std::nullopt;
        }
        e.index = index->asInteger<std::size_t>();
        e.faultDescription = fault->asString();
        read(doc, "attempts", d.attempts);
        read(doc, "error", d.error);
        read(doc, "wall_s", d.wallSeconds);
        read(doc, "digital_waves", d.digitalWaves);
        read(doc, "analog_steps", d.analogSteps);
        read(doc, "checkpoint_fs", d.checkpointTime);
        read(doc, "resim_fs", d.resimulatedTime);
        read(doc, "first_output_error_fs", r.firstOutputError);
        read(doc, "last_output_error_end_fs", r.lastOutputErrorEnd);
        read(doc, "total_output_error_fs", r.totalOutputErrorTime);
        read(doc, "max_analog_deviation_v", r.maxAnalogDeviation);
        read(doc, "analog_time_outside_tol_s", r.analogTimeOutsideTol);
        read(doc, "erred_signals", r.erredSignals);
        read(doc, "corrupted_state", r.corruptedState);
        read(doc, "collapsed_from", d.collapsedFrom);
        read(doc, "batch_lane", d.batchLane);
        read(doc, "forensic", d.forensic);

        // Optional probes object (lines written with a telemetry sink attached).
        if (const util::JsonValue* probes = doc.find("probes")) {
            if (!probes->isObject()) {
                return std::nullopt;
            }
            obs::ProbeSnapshot& p = d.probes;
            p.valid = true;
            read(*probes, "digital_events", p.digitalEvents);
            read(*probes, "delta_cycles", p.deltaCycles);
            read(*probes, "queue_high_water", p.queueHighWater);
            read(*probes, "pending_events", p.pendingEvents);
            read(*probes, "analog_accepted", p.analogAcceptedSteps);
            read(*probes, "analog_rejected", p.analogRejectedSteps);
            read(*probes, "newton_iterations", p.newtonIterations);
            read(*probes, "companion_rebuilds", p.companionRebuilds);
            read(*probes, "min_dt_s", p.minAcceptedDt);
            read(*probes, "last_dt_s", p.lastAcceptedDt);
            read(*probes, "atod_crossings", p.atodCrossings);
            read(*probes, "dtoa_events", p.dtoaEvents);
        }
    } catch (const std::runtime_error&) {
        return std::nullopt;
    }
    d.fromJournal = true;
    return e;
}

CampaignJournal::LoadResult CampaignJournal::loadWithStats(const std::string& path)
{
    LoadResult result;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
        return result; // no journal yet: fresh campaign
    }
    const auto consume = [&result](const std::string& line) {
        if (line.empty()) {
            return; // blank lines are separators, not lost data
        }
        if (auto e = parseLine(line)) {
            result.entries.push_back(std::move(*e));
        } else {
            ++result.skippedLines;
        }
    };
    std::string line;
    int c = 0;
    while ((c = std::fgetc(f)) != EOF) {
        if (c == '\n') {
            consume(line);
            line.clear();
        } else {
            line += static_cast<char>(c);
        }
    }
    // Final line without a newline: complete if the flush made it out before
    // the kill, torn otherwise — parseLine tells them apart.
    consume(line);
    std::fclose(f);
    return result;
}

CampaignReport reportFromEntries(const std::vector<fault::FaultSpec>& faults,
                                 const std::vector<JournalEntry>& entries)
{
    std::vector<const JournalEntry*> byIndex(faults.size(), nullptr);
    for (const JournalEntry& e : entries) {
        if (e.index < byIndex.size()) {
            byIndex[e.index] = &e; // later duplicates win, like journal resume
        }
    }
    CampaignReport report;
    report.runs.reserve(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const JournalEntry* e = byIndex[i];
        if (e == nullptr) {
            throw std::runtime_error("reportFromEntries: no entry for fault " +
                                     std::to_string(i) + " (" + fault::describe(faults[i]) +
                                     ")");
        }
        const std::string expected = fault::describe(faults[i]);
        if (e->faultDescription != expected) {
            throw std::runtime_error("reportFromEntries: entry " + std::to_string(i) +
                                     " records '" + e->faultDescription +
                                     "' but the fault list has '" + expected + "'");
        }
        RunResult r = e->result;
        r.fault = faults[i];
        r.diagnostics.fromJournal = false;
        report.runs.push_back(std::move(r));
    }
    return report;
}

} // namespace gfi::campaign
