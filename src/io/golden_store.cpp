#include "io/golden_store.hpp"

#include "core/report.hpp"
#include "io/sha256.hpp"
#include "lint/preflight.hpp"
#include "util/json.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace gfi::io {

namespace fs = std::filesystem;

namespace {

std::string readFileOrThrow(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw GoldenStoreError("golden store: cannot read " + path.string());
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Member @p key of a store document; throws std::runtime_error when absent.
const util::JsonValue& member(const util::JsonValue& doc, const char* key)
{
    const util::JsonValue* v = doc.find(key);
    if (v == nullptr) {
        throw std::runtime_error(std::string("missing \"") + key + "\"");
    }
    return *v;
}

/// The digest triple a meta.json records.
CacheKey recordedKey(const util::JsonValue& meta)
{
    return CacheKey{member(meta, "netlist").asString(), member(meta, "stimulus").asString(),
                    member(meta, "faults").asString()};
}

/// Parses the store document at @p path and hands it to @p read. A document
/// that is not JSON, or lacks a member of the type @p read asks for, is a
/// GoldenStoreError: "golden store: malformed <what>".
template <typename Read>
auto readStoreJson(const fs::path& path, const std::string& what, Read read)
{
    const std::string text = readFileOrThrow(path);
    try {
        return read(util::parseJson(text));
    } catch (const std::runtime_error&) {
        throw GoldenStoreError("golden store: malformed " + what);
    }
}

void writeFileOrThrow(const fs::path& path, const std::string& content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << content) || !out.flush()) {
        throw GoldenStoreError("golden store: cannot write " + path.string());
    }
}

/// File-system-safe rendering of a circuit name (names/<circuit>.json).
std::string sanitizeName(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
        out += ok ? c : '_';
    }
    return out.empty() ? std::string("_") : out;
}

} // namespace

std::string CacheKey::combined() const
{
    Sha256 hash;
    hash.update("key v1\n");
    hash.update("netlist " + netlistDigest + "\n");
    hash.update("stimulus " + stimulusDigest + "\n");
    hash.update("faults " + faultDigest + "\n");
    return hash.finishHex();
}

CacheKey CacheKey::of(const IngestWorkload& workload)
{
    return CacheKey{workload.netlistDigest, workload.stimulusDigest, workload.faultDigest};
}

GoldenStore::GoldenStore(std::string root) : root_(std::move(root))
{
    std::error_code ec;
    fs::create_directories(fs::path(root_) / "objects", ec);
    fs::create_directories(fs::path(root_) / "names", ec);
    fs::create_directories(fs::path(root_) / "tmp", ec);
    if (ec) {
        throw GoldenStoreError("golden store: cannot create store root " + root_);
    }
}

std::string GoldenStore::entryDir(const std::string& combinedKey) const
{
    if (!looksLikeSha256(combinedKey)) {
        throw GoldenStoreError("golden store: malformed entry key '" + combinedKey + "'");
    }
    return (fs::path(root_) / "objects" / combinedKey.substr(0, 2) / combinedKey).string();
}

std::string GoldenStore::namePath(const std::string& circuitName) const
{
    return (fs::path(root_) / "names" / (sanitizeName(circuitName) + ".json")).string();
}

bool GoldenStore::contains(const CacheKey& key) const
{
    return fs::exists(fs::path(entryDir(key.combined())) / "meta.json");
}

std::optional<StoreEntry> GoldenStore::lookup(const CacheKey& key) const
{
    const std::string combined = key.combined();
    const fs::path dir = entryDir(combined);
    if (!fs::exists(dir / "meta.json")) {
        return std::nullopt;
    }
    StoreEntry entry;
    std::string verdictsSha;
    std::string reportSha;
    const auto runs = readStoreJson(
        dir / "meta.json", "meta.json in entry " + combined, [&](const util::JsonValue& meta) {
            entry.key = recordedKey(meta);
            entry.circuitName = member(meta, "circuit").asString();
            verdictsSha = member(meta, "verdicts_sha256").asString();
            reportSha = member(meta, "report_sha256").asString();
            return member(meta, "runs").asInteger<std::size_t>();
        });
    // The entry must be the one this key addresses — a moved/tampered object
    // directory is corruption, not a miss.
    if (entry.key.netlistDigest != key.netlistDigest ||
        entry.key.stimulusDigest != key.stimulusDigest ||
        entry.key.faultDigest != key.faultDigest) {
        throw GoldenStoreError("golden store: entry " + combined +
                               " records a different digest triple than its address");
    }

    const std::string verdictsText = readFileOrThrow(dir / "verdicts.jsonl");
    if (sha256Hex(verdictsText) != verdictsSha) {
        throw GoldenStoreError("golden store: verdicts.jsonl of entry " + combined +
                               " fails its recorded SHA-256 — refusing to replay "
                               "corrupt verdicts");
    }
    entry.reportJson = readFileOrThrow(dir / "report.json");
    if (sha256Hex(entry.reportJson) != reportSha) {
        throw GoldenStoreError("golden store: report.json of entry " + combined +
                               " fails its recorded SHA-256");
    }

    std::istringstream lines(verdictsText);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty()) {
            continue;
        }
        auto parsed = campaign::CampaignJournal::parseLine(line);
        if (!parsed) {
            // The digest matched, so this is a writer bug, not bit rot — but
            // it is still not replayable.
            throw GoldenStoreError("golden store: unparseable verdict line in entry " +
                                   combined);
        }
        entry.verdicts.push_back(std::move(*parsed));
    }
    if (entry.verdicts.size() != runs) {
        throw GoldenStoreError("golden store: entry " + combined + " records " +
                               std::to_string(runs) + " runs but holds " +
                               std::to_string(entry.verdicts.size()) + " verdicts");
    }
    return entry;
}

void GoldenStore::put(const CacheKey& key, const std::string& circuitName,
                      const campaign::CampaignReport& report)
{
    const std::string combined = key.combined();

    std::string verdictsText;
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        verdictsText += campaign::CampaignJournal::entryToJson(i, report.runs[i]) + "\n";
    }
    const std::string reportJson = campaign::reportToJson(report);

    using Layout = util::JsonWriter::Layout;
    std::string meta;
    util::JsonWriter w(meta);
    w.beginObject(Layout::Block).member("version", 1).member("circuit", circuitName);
    w.member("netlist", key.netlistDigest).member("stimulus", key.stimulusDigest);
    w.member("faults", key.faultDigest).member("runs", report.runs.size());
    w.member("verdicts_sha256", sha256Hex(verdictsText));
    w.member("report_sha256", sha256Hex(reportJson)).end();
    meta += '\n';

    // Stage the whole entry in tmp/, then swap it in with a rename — a killed
    // process never leaves a half-written entry addressable.
    const fs::path staged = fs::path(root_) / "tmp" / combined;
    std::error_code ec;
    fs::remove_all(staged, ec);
    fs::create_directories(staged, ec);
    if (ec) {
        throw GoldenStoreError("golden store: cannot stage entry " + combined);
    }
    writeFileOrThrow(staged / "meta.json", meta);
    writeFileOrThrow(staged / "verdicts.jsonl", verdictsText);
    writeFileOrThrow(staged / "report.json", reportJson);

    const fs::path dir = entryDir(combined);
    fs::create_directories(dir.parent_path(), ec);
    fs::remove_all(dir, ec);
    fs::rename(staged, dir, ec);
    if (ec) {
        throw GoldenStoreError("golden store: cannot commit entry " + combined + ": " +
                               ec.message());
    }

    // Repoint the circuit's name at the new entry (atomic file swap).
    std::string pointer;
    util::JsonWriter(pointer)
        .beginObject(Layout::Block)
        .member("circuit", circuitName)
        .member("netlist", key.netlistDigest)
        .member("key", combined)
        .end();
    pointer += '\n';
    const fs::path pointerPath = namePath(circuitName);
    const fs::path pointerStaged = fs::path(root_) / "tmp" / (sanitizeName(circuitName) +
                                                              ".name.json");
    writeFileOrThrow(pointerStaged, pointer);
    fs::rename(pointerStaged, pointerPath, ec);
    if (ec) {
        throw GoldenStoreError("golden store: cannot update name pointer for '" +
                               circuitName + "': " + ec.message());
    }
}

std::optional<NamePointer> GoldenStore::namePointer(const std::string& circuitName) const
{
    const fs::path path = namePath(circuitName);
    if (!fs::exists(path)) {
        return std::nullopt;
    }
    return readStoreJson(path, "name pointer " + path.string(),
                         [](const util::JsonValue& doc) {
                             return NamePointer{member(doc, "circuit").asString(),
                                                member(doc, "netlist").asString(),
                                                member(doc, "key").asString()};
                         });
}

std::optional<StoreEntry> GoldenStore::lookupByName(
    const std::string& circuitName, const std::string& currentNetlistDigest) const
{
    const auto pointer = namePointer(circuitName);
    if (!pointer) {
        return std::nullopt;
    }
    // PRE009: the stored entry was recorded for a different revision of this
    // circuit — replaying it would attribute another design's verdicts here.
    const lint::Report stale = lint::preflightStoredDigest(
        "store:" + circuitName, pointer->netlistDigest, currentNetlistDigest);
    if (stale.count(lint::Severity::Error) > 0) {
        throw lint::PreflightError(stale);
    }

    const fs::path dir = entryDir(pointer->key);
    if (!fs::exists(dir / "meta.json")) {
        throw GoldenStoreError("golden store: name pointer for '" + circuitName +
                               "' references missing entry " + pointer->key);
    }
    return lookup(readStoreJson(dir / "meta.json", "meta.json in entry " + pointer->key,
                                recordedKey));
}

CachedCampaign runCampaignCached(
    campaign::CampaignRunner& runner, const IngestWorkload& workload, GoldenStore& store,
    const std::function<void(std::size_t, const campaign::RunResult&)>& progress)
{
    const CacheKey key = CacheKey::of(workload);
    CachedCampaign out;
    out.key = key.combined();
    if (auto entry = store.lookup(key)) {
        // Digest-verified hit: rebuild the report from the stored verdicts
        // without simulating anything. reportFromEntries() cross-checks every
        // fault description, so the replay can never silently drift off the
        // fault list that keyed the entry.
        out.report = campaign::reportFromEntries(workload.faults, entry->verdicts);
        out.hit = true;
        return out;
    }
    out.report = runner.run(workload.faults, progress);
    store.put(key, workload.netlist->name, out.report);
    return out;
}

} // namespace gfi::io
