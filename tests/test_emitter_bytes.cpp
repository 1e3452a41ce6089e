// Byte pins for every report document the library writes: the campaign
// journal line, report JSON/CSV, cost JSON/CSV, metrics, Chrome traces,
// flight-recorder forensics, golden-store metadata, CPU supervisor and sweep
// reports, SCOAP/analysis reports, lint reports, analog CSV, VCD, and the
// campaign's progress lines and trace-event args. Each document is rendered
// from a tiny fixed input whose names carry a quote, a backslash, a tab, a
// newline and a 0x01 byte, so escaping is pinned along with layout. Downstream
// tools read these documents as data; any byte that moves here is a format
// change they see.

#include "analyze/analyze.hpp"
#include "core/campaign.hpp"
#include "core/cost.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "duts/digital_dut.hpp"
#include "inject/supervisor.hpp"
#include "inject/sweep.hpp"
#include "io/golden_store.hpp"
#include "lint/diagnostic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_writer.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace gfi {
namespace {

const std::string kHostile = "a\"b\\c\td\ne\x01"
                             "f";

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void expectBytes(const std::string& actual, const std::string& expected)
{
    EXPECT_FALSE(actual.empty());
    EXPECT_EQ(actual, expected);
}

/// A run with every optional journal/report field set.
campaign::RunResult fullRun()
{
    campaign::RunResult r;
    r.fault = fault::BitFlipFault{kHostile, 3, 5 * kNanosecond};
    r.outcome = campaign::Outcome::TransientError;
    r.firstOutputError = 6 * kNanosecond;
    r.lastOutputErrorEnd = 9 * kNanosecond;
    r.totalOutputErrorTime = 3 * kNanosecond;
    r.maxAnalogDeviation = 0.0123456789012;
    r.analogTimeOutsideTol = 1.5e-9;
    r.erredSignals = {"out", kHostile};
    r.corruptedState = {"dut/q"};
    campaign::RunDiagnostics& d = r.diagnostics;
    d.error = kHostile;
    d.attempts = 2;
    d.wallSeconds = 0.125;
    d.digitalWaves = 42;
    d.analogSteps = 7;
    d.fromJournal = true;
    d.collapsedFrom = "rep " + kHostile;
    d.checkpointTime = 4 * kNanosecond;
    d.resimulatedTime = 2 * kNanosecond;
    d.batchLane = 3;
    d.forensic = "forensics/run-" + kHostile;
    obs::ProbeSnapshot& p = d.probes;
    p.valid = true;
    p.digitalEvents = 11;
    p.deltaCycles = 12;
    p.queueHighWater = 13;
    p.pendingEvents = 14;
    p.analogAcceptedSteps = 15;
    p.analogRejectedSteps = 16;
    p.newtonIterations = 17;
    p.companionRebuilds = 18;
    p.minAcceptedDt = 1.25e-12;
    p.lastAcceptedDt = 3.0e-11;
    p.atodCrossings = 19;
    p.dtoaEvents = 20;
    return r;
}

/// A run with no optional field set.
campaign::RunResult plainRun()
{
    campaign::RunResult r;
    r.fault = fault::BitFlipFault{"dut/acc", 0, kMicrosecond};
    return r;
}

campaign::CampaignReport twoRunReport()
{
    campaign::CampaignReport report;
    report.runs = {fullRun(), plainRun()};
    return report;
}

TEST(EmitterBytes, JournalLine)
{
    expectBytes(campaign::CampaignJournal::entryToJson(7, fullRun(), true),
                "{\"index\": 7, \"fault\": \"bit-flip a\\\"b\\\\c\\td\\ne\\u0001f[3] @ 5 ns\", "
                "\"outcome\": \"transient\", \"attempts\": 2, "
                "\"error\": \"a\\\"b\\\\c\\td\\ne\\u0001f\", \"wall_s\": 0.125, "
                "\"digital_waves\": 42, \"analog_steps\": 7, \"checkpoint_fs\": 4000000, "
                "\"resim_fs\": 2000000, \"first_output_error_fs\": 6000000, "
                "\"last_output_error_end_fs\": 9000000, \"total_output_error_fs\": 3000000, "
                "\"max_analog_deviation_v\": 0.0123456789, "
                "\"analog_time_outside_tol_s\": 1.5e-09, \"erred_signals\": [\"out\", "
                "\"a\\\"b\\\\c\\td\\ne\\u0001f\"], \"corrupted_state\": [\"dut/q\"], "
                "\"collapsed_from\": \"rep a\\\"b\\\\c\\td\\ne\\u0001f\", \"batch_lane\": 3, "
                "\"forensic\": \"forensics/run-a\\\"b\\\\c\\td\\ne\\u0001f\", "
                "\"probes\": {\"digital_events\": 11, \"delta_cycles\": 12, "
                "\"queue_high_water\": 13, \"pending_events\": 14, \"analog_accepted\": 15, "
                "\"analog_rejected\": 16, \"newton_iterations\": 17, "
                "\"companion_rebuilds\": 18, \"min_dt_s\": 1.25e-12, \"last_dt_s\": 3e-11, "
                "\"atod_crossings\": 19, \"dtoa_events\": 20}}");
    expectBytes(campaign::CampaignJournal::entryToJson(0, plainRun(), true),
                "{\"index\": 0, \"fault\": \"bit-flip dut/acc[0] @ 1 us\", "
                "\"outcome\": \"silent\", \"attempts\": 1, \"error\": \"\", \"wall_s\": 0, "
                "\"digital_waves\": 0, \"analog_steps\": 0, \"checkpoint_fs\": 0, "
                "\"resim_fs\": 0, \"first_output_error_fs\": -1, "
                "\"last_output_error_end_fs\": -1, \"total_output_error_fs\": 0, "
                "\"max_analog_deviation_v\": 0, \"analog_time_outside_tol_s\": 0, "
                "\"erred_signals\": [], \"corrupted_state\": []}");
}

TEST(EmitterBytes, ReportJsonAndCsv)
{
    const campaign::CampaignReport report = twoRunReport();
    expectBytes(campaign::reportToJson(report),
                "{\n"
                "  \"summary\": {\n"
                "    \"total\": 2,\n"
                "    \"silent\": 1,\n"
                "    \"latent\": 0,\n"
                "    \"transient\": 1,\n"
                "    \"failure\": 0,\n"
                "    \"sim-error\": 0,\n"
                "    \"timeout\": 0,\n"
                "    \"diverged\": 0\n"
                "  },\n"
                "  \"runs\": [\n"
                "    {\"fault\": \"bit-flip a\\\"b\\\\c\\td\\ne\\u0001f[3] @ 5 ns\", "
                "\"target\": \"a\\\"b\\\\c\\td\\ne\\u0001f\", \"outcome\": \"transient\", "
                "\"first_output_error_fs\": 6000000, \"total_output_error_fs\": 3000000, "
                "\"max_analog_deviation_v\": 0.0123456789, \"attempts\": 2, "
                "\"checkpoint_fs\": 4000000, \"resim_fs\": 2000000, \"from_journal\": true, "
                "\"error\": \"a\\\"b\\\\c\\td\\ne\\u0001f\", "
                "\"collapsed_from\": \"rep a\\\"b\\\\c\\td\\ne\\u0001f\", \"batch_lane\": 3, "
                "\"forensic\": \"forensics/run-a\\\"b\\\\c\\td\\ne\\u0001f\"},\n"
                "    {\"fault\": \"bit-flip dut/acc[0] @ 1 us\", \"target\": \"dut/acc\", "
                "\"outcome\": \"silent\", \"first_output_error_fs\": -1, "
                "\"total_output_error_fs\": 0, \"max_analog_deviation_v\": 0, \"attempts\": 1}\n"
                "  ]\n"
                "}\n");
    expectBytes(campaign::reportToJson(campaign::CampaignReport{}),
                "{\n"
                "  \"summary\": {\n"
                "    \"total\": 0,\n"
                "    \"silent\": 0,\n"
                "    \"latent\": 0,\n"
                "    \"transient\": 0,\n"
                "    \"failure\": 0,\n"
                "    \"sim-error\": 0,\n"
                "    \"timeout\": 0,\n"
                "    \"diverged\": 0\n"
                "  },\n"
                "  \"runs\": [\n"
                "  ]\n"
                "}\n");

    const std::string path = ::testing::TempDir() + "gfi_emitter_bytes_report.csv";
    campaign::writeReportCsv(report, path);
    expectBytes(slurp(path),
                "fault,target,outcome,first_output_error_fs,total_output_error_fs,"
                "max_analog_deviation_v,analog_time_outside_tol_s,erred_signals,corrupted_state,"
                "attempts,wall_s,checkpoint_fs,resim_fs,from_journal,error,collapsed_from,"
                "batch_lane\n"
                "\"bit-flip a\"\"b\\c\td\n"
                "e\001f[3] @ 5 ns\",\"a\"\"b\\c\td\n"
                "e\001f\",transient,6000000,3000000,0.0123456789,1.5e-09,\"out;a\"\"b\\c\td\n"
                "e\001f\",dut/q,2,0.125,4000000,2000000,1,\"a\"\"b\\c\td\n"
                "e\001f\",\"rep a\"\"b\\c\td\n"
                "e\001f\",3\n"
                "bit-flip dut/acc[0] @ 1 us,dut/acc,silent,-1,0,0,0,,,1,0,0,0,0,,,\n");
    campaign::CsvOptions options;
    options.costColumns = true;
    campaign::writeReportCsv(report, path, options);
    expectBytes(slurp(path),
                "fault,target,outcome,first_output_error_fs,total_output_error_fs,"
                "max_analog_deviation_v,analog_time_outside_tol_s,erred_signals,corrupted_state,"
                "attempts,wall_s,checkpoint_fs,resim_fs,from_journal,error,collapsed_from,"
                "batch_lane,digital_waves,analog_steps,forensic\n"
                "\"bit-flip a\"\"b\\c\td\n"
                "e\001f[3] @ 5 ns\",\"a\"\"b\\c\td\n"
                "e\001f\",transient,6000000,3000000,0.0123456789,1.5e-09,\"out;a\"\"b\\c\td\n"
                "e\001f\",dut/q,2,0.125,4000000,2000000,1,\"a\"\"b\\c\td\n"
                "e\001f\",\"rep a\"\"b\\c\td\n"
                "e\001f\",3,42,7,\"forensics/run-a\"\"b\\c\td\n"
                "e\001f\"\n"
                "bit-flip dut/acc[0] @ 1 us,dut/acc,silent,-1,0,0,0,,,1,0,0,0,0,,,,0,0,\n");
    std::remove(path.c_str());
}

TEST(EmitterBytes, CostJsonAndCsv)
{
    const campaign::CostReport cost = campaign::buildCostReport(twoRunReport());
    expectBytes(cost.toJson(),
                "{\n"
                "  \"total\": {\"runs\": 2, \"attempts\": 3, \"retries\": 1, "
                "\"digital_waves\": 42, \"analog_steps\": 7, \"wall_s\": 0.125, "
                "\"restored\": 1, \"collapsed\": 1, \"batched\": 1, \"forked\": 1},\n"
                "  \"by_class\": {\"bit-flip\": {\"runs\": 2, \"attempts\": 3, \"retries\": 1, "
                "\"digital_waves\": 42, \"analog_steps\": 7, \"wall_s\": 0.125, "
                "\"restored\": 1, \"collapsed\": 1, \"batched\": 1, \"forked\": 1}},\n"
                "  \"by_target\": {\"a\\\"b\\\\c\\td\\ne\\u0001f\": {\"runs\": 1, "
                "\"attempts\": 2, \"retries\": 1, \"digital_waves\": 42, \"analog_steps\": 7, "
                "\"wall_s\": 0.125, \"restored\": 1, \"collapsed\": 1, \"batched\": 1, "
                "\"forked\": 1}, \"dut/acc\": {\"runs\": 1, \"attempts\": 1, \"retries\": 0, "
                "\"digital_waves\": 0, \"analog_steps\": 0, \"wall_s\": 0, \"restored\": 0, "
                "\"collapsed\": 0, \"batched\": 0, \"forked\": 0}},\n"
                "  \"by_outcome\": {\"silent\": {\"runs\": 1, \"attempts\": 1, \"retries\": 0, "
                "\"digital_waves\": 0, \"analog_steps\": 0, \"wall_s\": 0, \"restored\": 0, "
                "\"collapsed\": 0, \"batched\": 0, \"forked\": 0}, \"transient\": {\"runs\": 1, "
                "\"attempts\": 2, \"retries\": 1, \"digital_waves\": 42, \"analog_steps\": 7, "
                "\"wall_s\": 0.125, \"restored\": 1, \"collapsed\": 1, \"batched\": 1, "
                "\"forked\": 1}}\n"
                "}\n");
    expectBytes(campaign::CostReport{}.toJson(),
                "{\n"
                "  \"total\": {\"runs\": 0, \"attempts\": 0, \"retries\": 0, "
                "\"digital_waves\": 0, \"analog_steps\": 0, \"wall_s\": 0, \"restored\": 0, "
                "\"collapsed\": 0, \"batched\": 0, \"forked\": 0},\n"
                "  \"by_class\": {},\n"
                "  \"by_target\": {},\n"
                "  \"by_outcome\": {}\n"
                "}\n");

    const std::string path = ::testing::TempDir() + "gfi_emitter_bytes_cost.csv";
    cost.writeCsv(path);
    expectBytes(slurp(path),
                "dimension,key,runs,attempts,retries,digital_waves,analog_steps,wall_s,restored,"
                "collapsed,batched,forked\n"
                "total,,2,3,1,42,7,0.125,1,1,1,1\n"
                "class,bit-flip,2,3,1,42,7,0.125,1,1,1,1\n"
                "target,\"a\"\"b\\c\td\n"
                "e\001f\",1,2,1,42,7,0.125,1,1,1,1\n"
                "target,dut/acc,1,1,0,0,0,0,0,0,0,0\n"
                "outcome,silent,1,1,0,0,0,0,0,0,0,0\n"
                "outcome,transient,1,2,1,42,7,0.125,1,1,1,1\n");
    std::remove(path.c_str());
}

TEST(EmitterBytes, MetricsJson)
{
    obs::MetricsRegistry m;
    m.counter("gfi_runs_total{outcome=\"Silent\"}").inc(5);
    m.counter("gfi_" + kHostile).inc(1);
    m.gauge("gfi_workers").set(4.0);
    m.gauge("gfi_share").set(0.123456789012);
    obs::Histogram& h = m.histogram("gfi_run_seconds", {0.5, 2.0});
    h.observe(0.25);
    h.observe(1.0);
    h.observe(3.5);
    m.histogram("gfi_no_bounds", {}).observe(1.0);
    expectBytes(m.json(),
                "{\n"
                "  \"counters\": {\n"
                "    \"gfi_a\\\"b\\\\c\\td\\ne\\u0001f\": 1,\n"
                "    \"gfi_runs_total{outcome=\\\"Silent\\\"}\": 5\n"
                "  },\n"
                "  \"gauges\": {\n"
                "    \"gfi_share\": 0.123456789,\n"
                "    \"gfi_workers\": 4\n"
                "  },\n"
                "  \"histograms\": {\n"
                "    \"gfi_no_bounds\": {\"count\": 1, \"sum\": 1, "
                "\"buckets\": [{\"le\": \"+Inf\", \"count\": 1}]},\n"
                "    \"gfi_run_seconds\": {\"count\": 3, \"sum\": 4.75, "
                "\"buckets\": [{\"le\": 0.5, \"count\": 1}, {\"le\": 2, \"count\": 1}, "
                "{\"le\": \"+Inf\", \"count\": 1}]}\n"
                "  }\n"
                "}\n");
}

TEST(EmitterBytes, TraceWriterJson)
{
    obs::TraceWriter trace;
    trace.nameCurrentTrack("main " + kHostile);
    trace.completeEvent(kHostile, "cat\"x", 1.5, 2.25, "{\"k\": 1}");
    trace.completeEvent("plain", "campaign", 1234.56789, 0.0);
    const std::string tid = std::to_string(obs::TraceWriter::currentTrackId());
    std::string expected = "{\"traceEvents\": [\n"
                           "  {\"pid\": 1, \"tid\": <TID>, \"ph\": \"M\", "
                           "\"name\": \"thread_name\", "
                           "\"args\": {\"name\": \"main a\\\"b\\\\c\\td\\ne\\u0001f\"}},\n"
                           "  {\"pid\": 1, \"tid\": <TID>, \"ph\": \"X\", "
                           "\"name\": \"a\\\"b\\\\c\\td\\ne\\u0001f\", \"cat\": \"cat\\\"x\", "
                           "\"ts\": 1.5, \"dur\": 2.25, \"args\": {\"k\": 1}},\n"
                           "  {\"pid\": 1, \"tid\": <TID>, \"ph\": \"X\", \"name\": \"plain\", "
                           "\"cat\": \"campaign\", \"ts\": 1.23e+03, \"dur\": 0}\n"
                           "], \"displayTimeUnit\": \"ms\"}\n";
    for (std::size_t at = expected.find("<TID>"); at != std::string::npos;
         at = expected.find("<TID>")) {
        expected.replace(at, 5, tid);
    }
    expectBytes(trace.json(), expected);
    expectBytes(obs::TraceWriter().json(),
                "{\"traceEvents\": [\n"
                "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(EmitterBytes, FlightRecorderArtifacts)
{
    using Kind = obs::FlightRecorder::Kind;
    obs::FlightRecorder recorder(8);
    recorder.record(Kind::Restore, 100, 0.0, 0, 0, 0.0);
    recorder.record(Kind::Wave, 2 * kNanosecond, 0.0, 5, 3, 0.0);
    recorder.record(Kind::SolverAccept, 0, 1.5e-9, 9, 0, 2.5e-12);
    recorder.record(Kind::SolverReject, 0, 1.75e-9, 2, 0, 1.0e-13);
    recorder.record(Kind::AtoD, 3 * kNanosecond, 3e-9, 4, 0, 1.0);
    recorder.record(Kind::AtoD, 4 * kNanosecond, 4e-9, 5, 0, 0.0);
    recorder.record(Kind::DtoA, 5 * kNanosecond, 5e-9, 6, 0, 1.8);
    expectBytes(recorder.jsonl(),
                "{\"seq\": 0, \"kind\": \"restore\", \"t_fs\": 100, \"t_analog_s\": 0}\n"
                "{\"seq\": 1, \"kind\": \"wave\", \"t_fs\": 2000000, \"t_analog_s\": 0, "
                "\"waves\": 5, \"pending_events\": 3}\n"
                "{\"seq\": 2, \"kind\": \"solver-accept\", \"t_fs\": 0, "
                "\"t_analog_s\": 1.5e-09, \"accepted_steps\": 9, \"dt_s\": 2.5e-12}\n"
                "{\"seq\": 3, \"kind\": \"solver-reject\", \"t_fs\": 0, "
                "\"t_analog_s\": 1.75e-09, \"rejected_steps\": 2, \"dt_s\": 1e-13}\n"
                "{\"seq\": 4, \"kind\": \"atod\", \"t_fs\": 3000000, \"t_analog_s\": 3e-09, "
                "\"crossings\": 4, \"rising\": true}\n"
                "{\"seq\": 5, \"kind\": \"atod\", \"t_fs\": 4000000, \"t_analog_s\": 4e-09, "
                "\"crossings\": 5, \"rising\": false}\n"
                "{\"seq\": 6, \"kind\": \"dtoa\", \"t_fs\": 5000000, \"t_analog_s\": 5e-09, "
                "\"updates\": 6, \"level_v\": 1.8}\n");
    expectBytes(recorder.chromeTraceJson(),
                "{\"traceEvents\": [\n"
                "  {\"pid\": 1, \"tid\": 0, \"ph\": \"M\", \"name\": \"thread_name\", "
                "\"args\": {\"name\": \"simulator\"}},\n"
                "  {\"pid\": 1, \"tid\": 1, \"ph\": \"M\", \"name\": \"thread_name\", "
                "\"args\": {\"name\": \"digital scheduler\"}},\n"
                "  {\"pid\": 1, \"tid\": 2, \"ph\": \"M\", \"name\": \"thread_name\", "
                "\"args\": {\"name\": \"analog solver\"}},\n"
                "  {\"pid\": 1, \"tid\": 3, \"ph\": \"M\", \"name\": \"thread_name\", "
                "\"args\": {\"name\": \"ams bridges\"}},\n"
                "  {\"pid\": 1, \"tid\": 0, \"ph\": \"i\", \"s\": \"t\", \"name\": \"restore\", "
                "\"cat\": \"kernel\", \"ts\": 1e-07, \"args\": {\"t_fs\": 100}},\n"
                "  {\"pid\": 1, \"tid\": 1, \"ph\": \"i\", \"s\": \"t\", \"name\": \"wave\", "
                "\"cat\": \"kernel\", \"ts\": 0.002, \"args\": {\"t_fs\": 2000000, "
                "\"waves\": 5, \"pending_events\": 3}},\n"
                "  {\"pid\": 1, \"tid\": 2, \"ph\": \"i\", \"s\": \"t\", "
                "\"name\": \"solver-accept\", \"cat\": \"kernel\", \"ts\": 0.0015, "
                "\"args\": {\"t_fs\": 0, \"accepted_steps\": 9, \"dt_s\": 2.5e-12}},\n"
                "  {\"pid\": 1, \"tid\": 2, \"ph\": \"i\", \"s\": \"t\", "
                "\"name\": \"solver-reject\", \"cat\": \"kernel\", \"ts\": 0.00175, "
                "\"args\": {\"t_fs\": 0, \"rejected_steps\": 2, \"dt_s\": 1e-13}},\n"
                "  {\"pid\": 1, \"tid\": 3, \"ph\": \"i\", \"s\": \"t\", \"name\": \"atod\", "
                "\"cat\": \"kernel\", \"ts\": 0.003, \"args\": {\"t_fs\": 3000000, "
                "\"crossings\": 4, \"rising\": true}},\n"
                "  {\"pid\": 1, \"tid\": 3, \"ph\": \"i\", \"s\": \"t\", \"name\": \"atod\", "
                "\"cat\": \"kernel\", \"ts\": 0.004, \"args\": {\"t_fs\": 4000000, "
                "\"crossings\": 5, \"rising\": false}},\n"
                "  {\"pid\": 1, \"tid\": 3, \"ph\": \"i\", \"s\": \"t\", \"name\": \"dtoa\", "
                "\"cat\": \"kernel\", \"ts\": 0.005, \"args\": {\"t_fs\": 5000000, "
                "\"updates\": 6, \"level_v\": 1.8}}\n"
                "], \"displayTimeUnit\": \"ms\"}\n");
}

TEST(EmitterBytes, GoldenStoreDocuments)
{
    const std::string root = ::testing::TempDir() + "gfi_emitter_bytes_store";
    std::filesystem::remove_all(root);
    io::GoldenStore store(root);
    const io::CacheKey key{"net " + kHostile, "stim", "faults"};
    store.put(key, "circuit " + kHostile, twoRunReport());
    expectBytes(slurp(store.entryDir(key.combined()) + "/meta.json"),
                "{\n"
                "  \"version\": 1,\n"
                "  \"circuit\": \"circuit a\\\"b\\\\c\\td\\ne\\u0001f\",\n"
                "  \"netlist\": \"net a\\\"b\\\\c\\td\\ne\\u0001f\",\n"
                "  \"stimulus\": \"stim\",\n"
                "  \"faults\": \"faults\",\n"
                "  \"runs\": 2,\n"
                "  \"verdicts_sha256\": "
                "\"ae5c4c1273bdfabb5ad6f31c52d1800cebc13fd744ab6fa6ef1fa93ad57f6100\",\n"
                "  \"report_sha256\": "
                "\"97e9bdd8b64b720fb813104910f5ab7954c25d9ca3ae509efc3985bae874f24b\"\n"
                "}\n");
    // The one name pointer; its file name is the sanitized circuit name.
    std::vector<std::string> pointers;
    for (const auto& f : std::filesystem::directory_iterator(root + "/names")) {
        pointers.push_back(slurp(f.path().string()));
    }
    ASSERT_EQ(pointers.size(), 1u);
    expectBytes(pointers[0],
                "{\n"
                "  \"circuit\": \"circuit a\\\"b\\\\c\\td\\ne\\u0001f\",\n"
                "  \"netlist\": \"net a\\\"b\\\\c\\td\\ne\\u0001f\",\n"
                "  \"key\": \"0536ffc6bc813531061dc69059108cfe3b7232313b600174cd6f4a39553594e6\"\n"
                "}\n");
    std::filesystem::remove_all(root);
}

TEST(EmitterBytes, SupervisorAndSweepJson)
{
    using inject::CpuClass;
    using inject::TargetClass;
    inject::SupervisorReport report;
    report.classes = {CpuClass::Masked, CpuClass::Masked, CpuClass::SilentDataCorruption};
    report.totals = {{CpuClass::Masked, 2}, {CpuClass::SilentDataCorruption, 1}};
    report.byTarget[TargetClass::Pc] = {{CpuClass::Masked, 1}};
    report.byTarget[TargetClass::Ram] = {{CpuClass::Masked, 1},
                                         {CpuClass::SilentDataCorruption, 1}};
    expectBytes(report.json(),
                "{\"samples\": 3, \"classes\": {\"masked\": {\"count\": 2, \"runs\": 3, "
                "\"rate\": 0.666667, \"low\": 0.207655, \"high\": 0.93851}, "
                "\"corrected\": {\"count\": 0, \"runs\": 3, \"rate\": 0, \"low\": 0, "
                "\"high\": 0.561506}, \"detected\": {\"count\": 0, \"runs\": 3, \"rate\": 0, "
                "\"low\": 0, \"high\": 0.561506}, \"sdc\": {\"count\": 1, \"runs\": 3, "
                "\"rate\": 0.333333, \"low\": 0.0614903, \"high\": 0.792345}, "
                "\"hang\": {\"count\": 0, \"runs\": 3, \"rate\": 0, \"low\": 0, "
                "\"high\": 0.561506}, \"contained\": {\"count\": 0, \"runs\": 3, \"rate\": 0, "
                "\"low\": 0, \"high\": 0.561506}}, "
                "\"targets\": {\"pc\": {\"masked\": {\"count\": 1, \"runs\": 1, \"rate\": 1, "
                "\"low\": 0.206543, \"high\": 1}, \"corrected\": {\"count\": 0, \"runs\": 1, "
                "\"rate\": 0, \"low\": 0, \"high\": 0.793457}, \"detected\": {\"count\": 0, "
                "\"runs\": 1, \"rate\": 0, \"low\": 0, \"high\": 0.793457}, "
                "\"sdc\": {\"count\": 0, \"runs\": 1, \"rate\": 0, \"low\": 0, "
                "\"high\": 0.793457}, \"hang\": {\"count\": 0, \"runs\": 1, \"rate\": 0, "
                "\"low\": 0, \"high\": 0.793457}, \"contained\": {\"count\": 0, \"runs\": 1, "
                "\"rate\": 0, \"low\": 0, \"high\": 0.793457}}, "
                "\"ram\": {\"masked\": {\"count\": 1, \"runs\": 2, \"rate\": 0.5, "
                "\"low\": 0.0945287, \"high\": 0.905471}, \"corrected\": {\"count\": 0, "
                "\"runs\": 2, \"rate\": 0, \"low\": 0, \"high\": 0.657628}, "
                "\"detected\": {\"count\": 0, \"runs\": 2, \"rate\": 0, \"low\": 0, "
                "\"high\": 0.657628}, \"sdc\": {\"count\": 1, \"runs\": 2, \"rate\": 0.5, "
                "\"low\": 0.0945287, \"high\": 0.905471}, \"hang\": {\"count\": 0, \"runs\": 2, "
                "\"rate\": 0, \"low\": 0, \"high\": 0.657628}, \"contained\": {\"count\": 0, "
                "\"runs\": 2, \"rate\": 0, \"low\": 0, \"high\": 0.657628}}}}");

    inject::SweepReport sweep;
    sweep.entries.push_back({duts::HardeningMode::None, report});
    sweep.entries.push_back({duts::HardeningMode::Tmr, inject::SupervisorReport{}});
    expectBytes(sweep.json(),
                "{\"sweep\": [{\"mode\": \"none\", \"report\": {\"samples\": 3, "
                "\"classes\": {\"masked\": {\"count\": 2, \"runs\": 3, \"rate\": 0.666667, "
                "\"low\": 0.207655, \"high\": 0.93851}, \"corrected\": {\"count\": 0, "
                "\"runs\": 3, \"rate\": 0, \"low\": 0, \"high\": 0.561506}, "
                "\"detected\": {\"count\": 0, \"runs\": 3, \"rate\": 0, \"low\": 0, "
                "\"high\": 0.561506}, \"sdc\": {\"count\": 1, \"runs\": 3, \"rate\": 0.333333, "
                "\"low\": 0.0614903, \"high\": 0.792345}, \"hang\": {\"count\": 0, \"runs\": 3, "
                "\"rate\": 0, \"low\": 0, \"high\": 0.561506}, \"contained\": {\"count\": 0, "
                "\"runs\": 3, \"rate\": 0, \"low\": 0, \"high\": 0.561506}}, "
                "\"targets\": {\"pc\": {\"masked\": {\"count\": 1, \"runs\": 1, \"rate\": 1, "
                "\"low\": 0.206543, \"high\": 1}, \"corrected\": {\"count\": 0, \"runs\": 1, "
                "\"rate\": 0, \"low\": 0, \"high\": 0.793457}, \"detected\": {\"count\": 0, "
                "\"runs\": 1, \"rate\": 0, \"low\": 0, \"high\": 0.793457}, "
                "\"sdc\": {\"count\": 0, \"runs\": 1, \"rate\": 0, \"low\": 0, "
                "\"high\": 0.793457}, \"hang\": {\"count\": 0, \"runs\": 1, \"rate\": 0, "
                "\"low\": 0, \"high\": 0.793457}, \"contained\": {\"count\": 0, \"runs\": 1, "
                "\"rate\": 0, \"low\": 0, \"high\": 0.793457}}, "
                "\"ram\": {\"masked\": {\"count\": 1, \"runs\": 2, \"rate\": 0.5, "
                "\"low\": 0.0945287, \"high\": 0.905471}, \"corrected\": {\"count\": 0, "
                "\"runs\": 2, \"rate\": 0, \"low\": 0, \"high\": 0.657628}, "
                "\"detected\": {\"count\": 0, \"runs\": 2, \"rate\": 0, \"low\": 0, "
                "\"high\": 0.657628}, \"sdc\": {\"count\": 1, \"runs\": 2, \"rate\": 0.5, "
                "\"low\": 0.0945287, \"high\": 0.905471}, \"hang\": {\"count\": 0, \"runs\": 2, "
                "\"rate\": 0, \"low\": 0, \"high\": 0.657628}, \"contained\": {\"count\": 0, "
                "\"runs\": 2, \"rate\": 0, \"low\": 0, \"high\": 0.657628}}}}}, "
                "{\"mode\": \"TMR\", \"report\": {\"samples\": 0, "
                "\"classes\": {\"masked\": {\"count\": 0, \"runs\": 0, \"rate\": null, "
                "\"low\": null, \"high\": null}, \"corrected\": {\"count\": 0, \"runs\": 0, "
                "\"rate\": null, \"low\": null, \"high\": null}, \"detected\": {\"count\": 0, "
                "\"runs\": 0, \"rate\": null, \"low\": null, \"high\": null}, "
                "\"sdc\": {\"count\": 0, \"runs\": 0, \"rate\": null, \"low\": null, "
                "\"high\": null}, \"hang\": {\"count\": 0, \"runs\": 0, \"rate\": null, "
                "\"low\": null, \"high\": null}, \"contained\": {\"count\": 0, \"runs\": 0, "
                "\"rate\": null, \"low\": null, \"high\": null}}, \"targets\": {}}}]}");
}

TEST(EmitterBytes, AnalysisAndTestabilityJson)
{
    analyze::AnalysisReport r;
    r.signals = 4;
    r.processes = 3;
    r.combProcesses = 2;
    r.seqProcesses = 1;
    r.maxLevel = 2;
    r.cyclicSignals = 0;
    r.observableSignals = 3;
    r.unobservableSignals = 1;
    r.testability.ranked = {
        {"top/" + kHostile, 3, 5, 1, 2, true},
        {"loop", analyze::kInfCost, -1, -1, 0, false},
    };
    expectBytes(r.testability.json(),
                "[\n"
                "  {\"signal\": \"top/a\\\"b\\\\c\\td\\ne\\u0001f\", \"level\": 1, "
                "\"fanout\": 2, \"cc\": 3, \"co\": 5, \"observable\": true},\n"
                "  {\"signal\": \"loop\", \"level\": -1, \"fanout\": 0, \"cc\": null, "
                "\"co\": null, \"observable\": false}\n"
                "]\n");
    expectBytes(r.json(),
                "{\n"
                "  \"graph\": {\"signals\": 4, \"processes\": 3, \"combinational\": 2, "
                "\"sequential\": 1, \"max_level\": 2, \"cyclic_signals\": 0, "
                "\"observable_signals\": 3, \"unobservable_signals\": 1},\n"
                "  \"testability\": [\n"
                "  {\"signal\": \"top/a\\\"b\\\\c\\td\\ne\\u0001f\", \"level\": 1, "
                "\"fanout\": 2, \"cc\": 3, \"co\": 5, \"observable\": true},\n"
                "  {\"signal\": \"loop\", \"level\": -1, \"fanout\": 0, \"cc\": null, "
                "\"co\": null, \"observable\": false}\n"
                "]\n"
                "}\n");
    expectBytes(analyze::TestabilityReport{}.json(),
                "[\n"
                "]\n");
}

TEST(EmitterBytes, LintReportJson)
{
    lint::Report report;
    report.add("DIG001", lint::Severity::Error, "top/" + kHostile, "loop \"x\"", "cut it");
    report.add("ANA002", lint::Severity::Info, "n1", "gmin", "");
    expectBytes(report.json(),
                "[\n"
                "  {\"rule\": \"DIG001\", \"severity\": \"error\", "
                "\"path\": \"top/a\\\"b\\\\c\\td\\ne\\u0001f\", "
                "\"message\": \"loop \\\"x\\\"\", \"hint\": \"cut it\"},\n"
                "  {\"rule\": \"ANA002\", \"severity\": \"info\", \"path\": \"n1\", "
                "\"message\": \"gmin\", \"hint\": \"\"}\n"
                "]");
}

TEST(EmitterBytes, AnalogCsvAndVcd)
{
    trace::AnalogTrace a;
    a.name = "vout";
    a.samples = {{0.0, 0.5}, {1.25e-9, 1.0000000001}, {3e-9, -0.25}};
    trace::AnalogTrace b;
    b.name = "vin";
    b.samples = {{1e-9, 2.0}, {3e-9, 1.5}};
    trace::DigitalTrace d;
    d.name = "clk";
    d.initial = digital::Logic::Zero;
    d.events = {{1000000, digital::Logic::One},
                {2000000, digital::Logic::X},
                {3000000, digital::Logic::H},
                {3000000, digital::Logic::Z}};
    trace::DigitalTrace e;
    e.name = "q";
    e.events = {{1000000, digital::Logic::L}, {2500000, digital::Logic::W}};

    const std::string csv = ::testing::TempDir() + "gfi_emitter_bytes.csv";
    const std::string vcd = ::testing::TempDir() + "gfi_emitter_bytes.vcd";
    trace::writeAnalogCsv(csv, {&a, &b});
    trace::writeVcd(vcd, {&d, &e}, {&a});
    expectBytes(slurp(csv),
                "time_s,vout,vin\n"
                "0,0.5,2\n"
                "1e-09,0.9,2\n"
                "1.25e-09,1,1.9375\n"
                "3e-09,-0.25,1.5\n");
    expectBytes(slurp(vcd),
                "$timescale 1fs $end\n"
                "$scope module gfi $end\n"
                "$var wire 1 ! clk $end\n"
                "$var wire 1 \" q $end\n"
                "$var real 64 # vout $end\n"
                "$upscope $end\n"
                "$enddefinitions $end\n"
                "#0\n"
                "0!\n"
                "U\"\n"
                "r0.5 #\n"
                "#1000000\n"
                "1!\n"
                "0\"\n"
                "#1250000\n"
                "r1 #\n"
                "#2000000\n"
                "x!\n"
                "#2500000\n"
                "x\"\n"
                "#3000000\n"
                "1!\n"
                "z!\n"
                "r-0.25 #\n");
    std::remove(csv.c_str());
    std::remove(vcd.c_str());
}

/// The "args" member of every trace event that has one, as written: one
/// "<name> <args>" entry per event, in file order.
std::vector<std::string> eventArgs(const std::string& traceJson)
{
    std::vector<std::string> out;
    std::istringstream lines(traceJson);
    std::string line;
    const std::string nameKey = "\"name\": \"";
    const std::string argsKey = "\"args\": ";
    while (std::getline(lines, line)) {
        const std::size_t args = line.find(argsKey);
        const std::size_t name = line.find(nameKey);
        if (args == std::string::npos || name == std::string::npos ||
            line.find("\"ph\": \"M\"") != std::string::npos) {
            continue;
        }
        if (line.back() == ',') {
            line.pop_back();
        }
        const std::size_t nameEnd = line.find('"', name + nameKey.size());
        out.push_back(line.substr(name + nameKey.size(), nameEnd - name - nameKey.size()) +
                      " " +
                      line.substr(args + argsKey.size(),
                                  line.size() - 1 - args - argsKey.size()));
    }
    return out;
}

TEST(EmitterBytes, CampaignProgressAndTraceArgs)
{
    ::unsetenv("GFI_TRACE");
    ::unsetenv("GFI_METRICS");
    ::unsetenv("GFI_CHECKPOINT");
    ::unsetenv("GFI_FORENSICS");
    const std::string dir = ::testing::TempDir() + "gfi_emitter_bytes_forensics";
    std::filesystem::remove_all(dir);
    const std::vector<fault::FaultSpec> faults{
        fault::BitFlipFault{"dut/cnt", 0, 3 * kMicrosecond + 3 * kNanosecond},
        fault::BitFlipFault{"dut/cnt", 1, 3 * kMicrosecond + 3 * kNanosecond}};

    obs::Telemetry telemetry;
    telemetry.enableTracing();
    std::string progress;
    campaign::CampaignRunner runner(
        [] { return std::make_unique<duts::DigitalDutTestbench>(); });
    runner.setWorkers(1);
    runner.setRecordTiming(false);
    runner.setCheckpointCadence(kMicrosecond);
    runner.setTelemetry(telemetry);
    runner.setProgressSink([&progress](const std::string& l) { progress += l; }, 0.0);
    runner.run(faults);
    expectBytes(progress,
                "{\"event\": \"start\", \"completed\": 0, \"total\": 2, "
                "\"outcomes\": {\"silent\": 0, \"latent\": 0, \"transient\": 0, \"failure\": 0, "
                "\"sim-error\": 0, \"timeout\": 0, \"diverged\": 0}, \"restored\": 0, "
                "\"batched\": 0, \"collapsed\": 0, \"workers\": 1, \"elapsed_s\": 0, "
                "\"restorable\": 0, \"collapsed_planned\": 0, \"batched_planned\": 0}\n"
                "{\"event\": \"heartbeat\", \"completed\": 1, \"total\": 2, "
                "\"outcomes\": {\"silent\": 0, \"latent\": 0, \"transient\": 0, \"failure\": 1, "
                "\"sim-error\": 0, \"timeout\": 0, \"diverged\": 0}, \"restored\": 0, "
                "\"batched\": 0, \"collapsed\": 0, \"workers\": 1, \"elapsed_s\": 0}\n"
                "{\"event\": \"heartbeat\", \"completed\": 2, \"total\": 2, "
                "\"outcomes\": {\"silent\": 0, \"latent\": 0, \"transient\": 0, \"failure\": 2, "
                "\"sim-error\": 0, \"timeout\": 0, \"diverged\": 0}, \"restored\": 0, "
                "\"batched\": 0, \"collapsed\": 0, \"workers\": 1, \"elapsed_s\": 0}\n"
                "{\"event\": \"done\", \"completed\": 2, \"total\": 2, "
                "\"outcomes\": {\"silent\": 0, \"latent\": 0, \"transient\": 0, \"failure\": 2, "
                "\"sim-error\": 0, \"timeout\": 0, \"diverged\": 0}, \"restored\": 0, "
                "\"batched\": 0, \"collapsed\": 0, \"workers\": 1, \"elapsed_s\": 0}\n");

    std::string args;
    for (const std::string& a : eventArgs(telemetry.trace()->json())) {
        args += a + "\n";
    }
    expectBytes(args,
                "checkpoint {\"sim_time\": \"1 us\"}\n"
                "checkpoint {\"sim_time\": \"2 us\"}\n"
                "checkpoint {\"sim_time\": \"3 us\"}\n"
                "run #0 {\"fault\": \"bit-flip dut/cnt[0] @ 3.003 us\", "
                "\"outcome\": \"failure\"}\n"
                "run #1 {\"fault\": \"bit-flip dut/cnt[1] @ 3.003 us\", "
                "\"outcome\": \"failure\"}\n");

    obs::Telemetry forensicTelemetry;
    forensicTelemetry.enableTracing();
    campaign::CampaignRunner timeouts(
        [] { return std::make_unique<duts::DigitalDutTestbench>(); });
    timeouts.setWorkers(1);
    timeouts.setRecordTiming(false);
    WatchdogConfig watchdog;
    watchdog.digitalWaves = 50;
    timeouts.setWatchdogConfig(watchdog);
    timeouts.setForensics(dir);
    timeouts.setTelemetry(forensicTelemetry);
    const campaign::CampaignReport report = timeouts.run({faults[0]});
    ASSERT_EQ(report.runs.size(), 1u);
    ASSERT_FALSE(report.runs[0].diagnostics.forensic.empty());
    std::string forensicArgs;
    for (const std::string& a : eventArgs(forensicTelemetry.trace()->json())) {
        if (a.rfind("forensic dump ", 0) == 0) {
            forensicArgs += a + "\n";
        }
    }
    std::string expected = "forensic dump {\"stem\": \"<DIR>/run-aca3b321f29013c7-a1\"}\n";
    expected.replace(expected.find("<DIR>"), 5, dir);
    expectBytes(forensicArgs, expected);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace gfi
