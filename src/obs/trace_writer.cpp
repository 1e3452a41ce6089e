#include "obs/trace_writer.hpp"

#include "util/file.hpp"
#include "util/json.hpp"

#include <atomic>

namespace gfi::obs {

int TraceWriter::currentTrackId()
{
    static std::atomic<int> next{0};
    thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void TraceWriter::push(Event e)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(e));
}

void TraceWriter::completeEvent(const std::string& name, const std::string& category,
                                double startUs, double durationUs, const std::string& args)
{
    push(Event{'X', currentTrackId(), startUs, durationUs, name, category, args});
}

void TraceWriter::instantEvent(const std::string& name, const std::string& category,
                               const std::string& args)
{
    push(Event{'i', currentTrackId(), nowMicros(), 0.0, name, category, args});
}

void TraceWriter::nameCurrentTrack(const std::string& name)
{
    const int tid = currentTrackId();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (int named : namedTracks_) {
        if (named == tid) {
            return;
        }
    }
    namedTracks_.push_back(tid);
    events_.push_back(Event{'M', tid, 0.0, 0.0, name, {}, {}});
}

std::size_t TraceWriter::eventCount() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::string TraceWriter::json() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    util::JsonWriter w(out);
    w.beginObject().key("traceEvents").beginArray(util::JsonWriter::Layout::Block);
    for (const Event& e : events_) {
        w.beginObject().member("pid", 1).member("tid", e.tid);
        if (e.phase == 'M') {
            w.member("ph", "M").member("name", "thread_name");
            w.key("args").beginObject().member("name", e.name).end();
        } else {
            // Timestamps want sub-microsecond precision but not 17 digits.
            w.member("ph", std::string_view(&e.phase, 1)).member("name", e.name);
            w.member("cat", e.category).member("ts", e.tsUs, 3);
            if (e.phase == 'X') {
                w.member("dur", e.durUs, 3);
            }
            if (e.phase == 'i') {
                w.member("s", "t");
            }
            if (!e.args.empty()) {
                w.key("args").raw(e.args);
            }
        }
        w.end();
    }
    w.end().member("displayTimeUnit", "ms").end();
    out += '\n';
    return out;
}

void TraceWriter::writeFile(const std::string& path) const
{
    util::writeFile(path, json(), "TraceWriter");
}

} // namespace gfi::obs
