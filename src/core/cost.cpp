#include "core/cost.hpp"

#include "core/report.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <algorithm>

namespace gfi::campaign {

void CostBucket::add(const RunResult& r)
{
    ++runs;
    const auto att = static_cast<std::uint64_t>(std::max(1, r.diagnostics.attempts));
    attempts += att;
    retries += att - 1;
    digitalWaves += r.diagnostics.digitalWaves;
    analogSteps += r.diagnostics.analogSteps;
    wallSeconds += r.diagnostics.wallSeconds;
    if (r.diagnostics.fromJournal) {
        ++restored;
    }
    if (!r.diagnostics.collapsedFrom.empty()) {
        ++collapsed;
    }
    if (r.diagnostics.batchLane > 0) {
        ++batched;
    }
    if (r.diagnostics.checkpointTime > 0) {
        ++forked;
    }
}

CostReport buildCostReport(const CampaignReport& report)
{
    CostReport cost;
    for (const RunResult& r : report.runs) {
        cost.total.add(r);
        cost.byClass[fault::kindOf(r.fault)].add(r);
        cost.byTarget[targetOf(r.fault)].add(r);
        cost.byOutcome[toString(r.outcome)].add(r);
    }
    return cost;
}

namespace {

std::vector<std::string> bucketCells(const CostBucket& b)
{
    return {std::to_string(b.runs),
            std::to_string(b.attempts),
            std::to_string(b.retries),
            std::to_string(b.digitalWaves),
            std::to_string(b.analogSteps),
            formatDouble(b.wallSeconds, 6),
            std::to_string(b.restored),
            std::to_string(b.collapsed),
            std::to_string(b.batched),
            std::to_string(b.forked)};
}

void writeBucket(util::JsonWriter& w, const CostBucket& b)
{
    w.beginObject().member("runs", b.runs).member("attempts", b.attempts);
    w.member("retries", b.retries).member("digital_waves", b.digitalWaves);
    w.member("analog_steps", b.analogSteps).member("wall_s", b.wallSeconds, 6);
    w.member("restored", b.restored).member("collapsed", b.collapsed);
    w.member("batched", b.batched).member("forked", b.forked).end();
}

void writeGroup(util::JsonWriter& w, const char* name,
                const std::map<std::string, CostBucket>& group)
{
    w.key(name).beginObject();
    for (const auto& [key, bucket] : group) {
        writeBucket(w.key(key), bucket);
    }
    w.end();
}

} // namespace

std::string CostReport::table() const
{
    TextTable t;
    t.setHeader({"dimension", "key", "runs", "attempts", "retries", "waves", "steps",
                 "wall_s", "restored", "collapsed", "batched", "forked"});
    auto addRow = [&t](const std::string& dim, const std::string& key,
                       const CostBucket& b) {
        std::vector<std::string> row{dim, key};
        const auto cells = bucketCells(b);
        row.insert(row.end(), cells.begin(), cells.end());
        t.addRow(row);
    };
    addRow("total", "-", total);
    t.addSeparator();
    for (const auto& [key, bucket] : byClass) {
        addRow("class", key, bucket);
    }
    t.addSeparator();
    for (const auto& [key, bucket] : byTarget) {
        addRow("target", key, bucket);
    }
    t.addSeparator();
    for (const auto& [key, bucket] : byOutcome) {
        addRow("outcome", key, bucket);
    }
    return t.str();
}

std::string CostReport::toJson() const
{
    std::string json;
    util::JsonWriter w(json);
    writeBucket(w.beginObject(util::JsonWriter::Layout::Block).key("total"), total);
    writeGroup(w, "by_class", byClass);
    writeGroup(w, "by_target", byTarget);
    writeGroup(w, "by_outcome", byOutcome);
    w.end();
    json += '\n';
    return json;
}

void CostReport::writeCsv(const std::string& path) const
{
    std::string csv = csvRow({"dimension", "key", "runs", "attempts", "retries",
                              "digital_waves", "analog_steps", "wall_s", "restored",
                              "collapsed", "batched", "forked"});
    auto addRow = [&csv](const std::string& dim, const std::string& key, const CostBucket& b) {
        std::vector<std::string> row{dim, key};
        const auto cells = bucketCells(b);
        row.insert(row.end(), cells.begin(), cells.end());
        csv += csvRow(row);
    };
    addRow("total", "", total);
    for (const auto& [key, bucket] : byClass) {
        addRow("class", key, bucket);
    }
    for (const auto& [key, bucket] : byTarget) {
        addRow("target", key, bucket);
    }
    for (const auto& [key, bucket] : byOutcome) {
        addRow("outcome", key, bucket);
    }
    util::writeFile(path, csv, "CostReport::writeCsv");
}

} // namespace gfi::campaign
