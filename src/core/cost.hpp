#pragma once
// Per-fault cost attribution: where did the campaign's simulation budget go?
//
// Every RunResult already carries its deterministic resource bill (delta-cycle
// waves, analog step attempts, retry count) plus wall-clock time and execution
// provenance (restored / collapsed / batched / forked). buildCostReport folds
// those into buckets keyed by fault class, injection target and outcome — the
// three questions an operator asks when a campaign is slow: which fault KIND
// is expensive, which TARGET is expensive, and are the abnormal outcomes
// eating the budget.
//
// Determinism contract: the report is computed purely from journaled RunResult
// fields, in fault-list order, into ordered maps — so a resumed, forked,
// collapsed or parallel campaign reproduces byte-identical table/CSV/JSON
// output (wall-clock fields excepted unless setRecordTiming(false) zeroed
// them at the source).

#include "core/campaign.hpp"

#include <cstdint>
#include <map>
#include <string>

namespace gfi::campaign {

/// Accumulated cost of one group of runs.
struct CostBucket {
    std::uint64_t runs = 0;         ///< classified runs in the bucket
    std::uint64_t attempts = 0;     ///< contained attempts, retries included
    std::uint64_t retries = 0;      ///< attempts beyond the first, per run
    std::uint64_t digitalWaves = 0; ///< delta-cycle waves consumed
    std::uint64_t analogSteps = 0;  ///< analog step attempts consumed
    double wallSeconds = 0.0;       ///< wall-clock time of final attempts
    std::uint64_t restored = 0;     ///< restored from the journal, not simulated
    std::uint64_t collapsed = 0;    ///< expanded from a collapse representative
    std::uint64_t batched = 0;      ///< classified by the word kernel
    std::uint64_t forked = 0;       ///< forked from a golden checkpoint

    void add(const RunResult& r);
};

/// Cost attribution of a whole campaign.
struct CostReport {
    CostBucket total;
    std::map<std::string, CostBucket> byClass;   ///< fault::kindOf key
    std::map<std::string, CostBucket> byTarget;  ///< targetOf key
    std::map<std::string, CostBucket> byOutcome; ///< toString(outcome) key

    /// Printable attribution table (total row, then one section per
    /// grouping dimension, keys in lexicographic order).
    [[nodiscard]] std::string table() const;

    /// The report as a JSON document (stable key order).
    [[nodiscard]] std::string toJson() const;

    /// One CSV row per bucket: dimension, key, then the CostBucket fields.
    /// Throws std::runtime_error when the file cannot be opened or written.
    void writeCsv(const std::string& path) const;
};

/// Folds a finished campaign report into cost buckets.
[[nodiscard]] CostReport buildCostReport(const CampaignReport& report);

} // namespace gfi::campaign
