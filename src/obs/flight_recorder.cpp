#include "obs/flight_recorder.hpp"

#include "util/file.hpp"
#include "util/json.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

namespace gfi::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1))
{
}

std::size_t FlightRecorder::size() const noexcept
{
    return total_ < ring_.size() ? static_cast<std::size_t>(total_) : ring_.size();
}

void FlightRecorder::clear() noexcept
{
    head_ = 0;
    total_ = 0;
}

std::vector<FlightRecorder::Event> FlightRecorder::window() const
{
    const std::size_t n = size();
    std::vector<Event> out;
    out.reserve(n);
    // Oldest slot: head_ when the ring has wrapped, 0 otherwise.
    const std::size_t start = total_ > ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
}

const FlightRecorder::Event* FlightRecorder::lastOfKind(Kind kind) const
{
    const std::size_t n = size();
    const std::size_t start = total_ > ring_.size() ? head_ : 0;
    for (std::size_t i = n; i > 0; --i) {
        const Event& e = ring_[(start + i - 1) % ring_.size()];
        if (e.kind == kind) {
            return &e;
        }
    }
    return nullptr;
}

const char* FlightRecorder::kindName(Kind kind)
{
    switch (kind) {
    case Kind::Wave:
        return "wave";
    case Kind::SolverAccept:
        return "solver-accept";
    case Kind::SolverReject:
        return "solver-reject";
    case Kind::AtoD:
        return "atod";
    case Kind::DtoA:
        return "dtoa";
    case Kind::Restore:
        return "restore";
    }
    return "?";
}

namespace {

/// Kind-specific payload members, written after the common ones.
void writePayload(util::JsonWriter& w, const FlightRecorder::Event& e)
{
    using Kind = FlightRecorder::Kind;
    switch (e.kind) {
    case Kind::Wave:
        w.member("waves", e.a).member("pending_events", e.b);
        break;
    case Kind::SolverAccept:
        w.member("accepted_steps", e.a).member("dt_s", e.value, 12);
        break;
    case Kind::SolverReject:
        w.member("rejected_steps", e.a).member("dt_s", e.value, 12);
        break;
    case Kind::AtoD:
        w.member("crossings", e.a).member("rising", e.value != 0.0);
        break;
    case Kind::DtoA:
        w.member("updates", e.a).member("level_v", e.value, 9);
        break;
    case Kind::Restore:
        break;
    }
}

/// Simulated-time timestamp in microseconds for the Chrome trace: the analog
/// clock when the event came from the analog domain, the digital clock
/// otherwise.
double simMicros(const FlightRecorder::Event& e)
{
    using Kind = FlightRecorder::Kind;
    const bool analog = e.kind == Kind::SolverAccept || e.kind == Kind::SolverReject;
    return analog ? e.analogTime * 1e6 : toSeconds(e.timeFs) * 1e6;
}

/// Chrome-trace track per kernel domain, so the forensic window renders as
/// one lane each for scheduler, solver and bridges.
int trackOf(FlightRecorder::Kind kind)
{
    using Kind = FlightRecorder::Kind;
    switch (kind) {
    case Kind::Wave:
        return 1;
    case Kind::SolverAccept:
    case Kind::SolverReject:
        return 2;
    case Kind::AtoD:
    case Kind::DtoA:
        return 3;
    case Kind::Restore:
        return 0;
    }
    return 0;
}

} // namespace

std::string FlightRecorder::jsonl() const
{
    std::string out;
    std::size_t seq = 0;
    for (const Event& e : window()) {
        util::JsonWriter w(out);
        w.beginObject().member("seq", seq++).member("kind", kindName(e.kind));
        w.member("t_fs", e.timeFs).member("t_analog_s", e.analogTime, 12);
        writePayload(w, e);
        w.end();
        out += '\n';
    }
    return out;
}

std::string FlightRecorder::chromeTraceJson() const
{
    std::string out;
    util::JsonWriter w(out);
    w.beginObject().key("traceEvents").beginArray(util::JsonWriter::Layout::Block);
    // Track-name metadata first, one lane per kernel domain.
    const std::pair<int, const char*> tracks[] = {
        {0, "simulator"}, {1, "digital scheduler"}, {2, "analog solver"}, {3, "ams bridges"}};
    for (const auto& [tid, name] : tracks) {
        w.beginObject().member("pid", 1).member("tid", tid).member("ph", "M");
        w.member("name", "thread_name").key("args").beginObject().member("name", name);
        w.end().end();
    }
    for (const Event& e : window()) {
        w.beginObject().member("pid", 1).member("tid", trackOf(e.kind)).member("ph", "i");
        w.member("s", "t").member("name", kindName(e.kind)).member("cat", "kernel");
        w.member("ts", simMicros(e), 9).key("args").beginObject().member("t_fs", e.timeFs);
        writePayload(w, e);
        w.end().end();
    }
    w.end().member("displayTimeUnit", "ms").end();
    out += '\n';
    return out;
}

void FlightRecorder::writeArtifacts(const std::string& stem) const
{
    const std::filesystem::path parent = std::filesystem::path(stem).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
        if (ec) {
            throw std::runtime_error("FlightRecorder: cannot create " + parent.string() +
                                     ": " + ec.message());
        }
    }
    util::writeFile(stem + ".jsonl", jsonl(), "FlightRecorder");
    util::writeFile(stem + ".trace.json", chromeTraceJson(), "FlightRecorder");
}

} // namespace gfi::obs
