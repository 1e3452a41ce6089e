#pragma once
// Shared helpers for the PLL figure-reproduction benches and the perf_*
// engineering benchmarks (machine-readable BENCH_<tool>.json output).

#include "core/campaign.hpp"
#include "pll/pll.hpp"
#include "trace/metrics.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <ctime>
#include <memory>

// Build provenance, injected by bench/CMakeLists.txt; the fallbacks keep the
// header compilable from other targets.
#ifndef GFI_GIT_SHA
#define GFI_GIT_SHA "unknown"
#endif
#ifndef GFI_BUILD_TYPE
#define GFI_BUILD_TYPE "unknown"
#endif

namespace gfi::bench {

/// Standard experiment tolerances for the PLL benches: 5 mV on the VCO
/// control node, 1 % of the output period (200 ps) of clock-edge jitter.
inline campaign::Tolerance pllTolerance()
{
    return campaign::Tolerance{5e-3, 0.0, 200 * kPicosecond};
}

/// Campaign runner over PllTestbench with the given config.
inline campaign::CampaignRunner makePllRunner(const pll::PllConfig& cfg)
{
    return campaign::CampaignRunner(
        [cfg] { return std::make_unique<pll::PllTestbench>(cfg); }, pllTolerance());
}

/// Runs one armed faulty testbench to completion and returns it.
inline std::unique_ptr<fault::Testbench> runFaulty(campaign::CampaignRunner& runner,
                                                   const fault::FaultSpec& f)
{
    auto tb = runner.makeTestbench();
    fault::armFault(*tb, f);
    tb->run();
    return tb;
}

// --- machine-readable bench output ------------------------------------------

/// The shared metadata block stamped into every BENCH_*.json artifact, so
/// regression tooling (tools/benchdiff) can refuse apples-to-oranges
/// comparisons: schema version, emitting tool, source revision, build type,
/// configured worker count (0 = auto — deliberately NOT the resolved thread
/// count, so artifacts compare across machines with different core counts)
/// and emission timestamp (informational only).
inline std::string benchMetaJson(const std::string& tool, unsigned workers = 0)
{
    char stamp[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm tm{}; gmtime_r(&now, &tm) != nullptr) {
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm);
    }
    std::string meta = "{\"schema\": 1";
    meta += ", \"tool\": \"" + tool + "\"";
    meta += ", \"git_sha\": \"" GFI_GIT_SHA "\"";
    meta += ", \"build_type\": \"" GFI_BUILD_TYPE "\"";
    meta += ", \"workers\": " + std::to_string(workers);
    meta += ", \"timestamp\": \"" + std::string(stamp) + "\"";
    meta += "}";
    return meta;
}

/// Composes a one-line BENCH_<tool>.json document from the shared meta block
/// plus the tool's own payload fields (braces stripped, "benchmark" first).
inline std::string benchJsonLine(const std::string& tool, const std::string& payloadFields,
                                 unsigned workers = 0)
{
    return "{\"meta\": " + benchMetaJson(tool, workers) + ", " + payloadFields + "}\n";
}

/// Console reporter that additionally accumulates every iteration run into a
/// compact JSON summary — per-benchmark wall milliseconds plus all user
/// counters (runs_per_s, items_per_second, speedups) — so CI can collect and
/// chart performance without scraping console tables.
class JsonTeeReporter : public benchmark::ConsoleReporter {
public:
    void ReportRuns(const std::vector<Run>& runs) override
    {
        for (const Run& r : runs) {
            if (r.run_type != Run::RT_Iteration || r.error_occurred) {
                continue;
            }
            const double wallSec = r.iterations > 0
                                       ? r.real_accumulated_time /
                                             static_cast<double>(r.iterations)
                                       : r.real_accumulated_time;
            std::string e = "  {\"name\": \"" + util::jsonEscape(r.benchmark_name()) + "\"";
            e += ", \"wall_ms\": " + formatDouble(wallSec * 1e3, 6);
            e += ", \"iterations\": " + std::to_string(r.iterations);
            for (const auto& [key, counter] : r.counters) {
                e += ", \"" + util::jsonEscape(key) + "\": " + formatDouble(counter, 6);
            }
            e += "}";
            entries_.push_back(std::move(e));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    /// The accumulated summary as one JSON object.
    [[nodiscard]] std::string json(const std::string& tool) const
    {
        std::string out = "{\"meta\": " + benchMetaJson(tool) + ", \"tool\": \"" + tool +
                          "\", \"benchmarks\": [\n";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            out += entries_[i] + (i + 1 < entries_.size() ? ",\n" : "\n");
        }
        out += "]}\n";
        return out;
    }

private:
    std::vector<std::string> entries_;
};

/// Drop-in BENCHMARK_MAIN() replacement: identical console output, plus a
/// BENCH_<tool>.json summary written to the working directory.
inline int runBenchmarksToJson(int argc, char** argv, const std::string& tool)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    JsonTeeReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    util::writeFile("BENCH_" + tool + ".json", reporter.json(tool), tool.c_str());
    benchmark::Shutdown();
    return 0;
}

/// Prints a compact waveform series: golden vs faulty VCO-control voltage at
/// offsets (in seconds) relative to the injection instant.
inline void printVctrlSeries(const trace::AnalogTrace& golden, const trace::AnalogTrace& faulty,
                             double tInject, const std::vector<double>& offsets)
{
    TextTable t;
    t.setHeader({"t - t_inj", "V_ctrl golden", "V_ctrl faulty", "deviation"});
    for (double dt : offsets) {
        const double time = tInject + dt;
        const double g = golden.valueAt(time);
        const double f = faulty.valueAt(time);
        t.addRow({formatSi(dt, "s"), formatSi(g, "V", 5), formatSi(f, "V", 5),
                  formatSi(f - g, "V")});
    }
    t.print();
}

} // namespace gfi::bench
