#include "trace/trace.hpp"

#include "util/file.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace gfi::trace {

// ---------------------------------------------------------------------------
// DigitalTrace

digital::Logic DigitalTrace::valueAt(SimTime t) const
{
    digital::Logic v = initial;
    for (const auto& [time, value] : events) {
        if (time > t) {
            break;
        }
        v = value;
    }
    return v;
}

std::vector<SimTime> DigitalTrace::risingEdges() const
{
    std::vector<SimTime> edges;
    digital::Logic prev = digital::toX01(initial);
    for (const auto& [time, value] : events) {
        const digital::Logic now = digital::toX01(value);
        if (prev == digital::Logic::Zero && now == digital::Logic::One) {
            edges.push_back(time);
        }
        prev = now;
    }
    return edges;
}

// ---------------------------------------------------------------------------
// AnalogTrace

double AnalogTrace::valueAt(double t) const
{
    if (samples.empty()) {
        return 0.0;
    }
    if (t <= samples.front().first) {
        return samples.front().second;
    }
    if (t >= samples.back().first) {
        return samples.back().second;
    }
    // Binary search for the interval containing t.
    const auto it = std::lower_bound(
        samples.begin(), samples.end(), t,
        [](const std::pair<double, double>& s, double time) { return s.first < time; });
    const auto& [t1, v1] = *it;
    const auto& [t0, v0] = *(it - 1);
    if (t1 <= t0) {
        return v1;
    }
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
}

std::pair<double, double> AnalogTrace::minmax(double t0, double t1) const
{
    double lo = 1e300;
    double hi = -1e300;
    for (const auto& [t, v] : samples) {
        if (t < t0 || t > t1) {
            continue;
        }
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    if (lo > hi) {
        return {0.0, 0.0};
    }
    return {lo, hi};
}

// ---------------------------------------------------------------------------
// Recorder

void Recorder::preloadPrefix(const Recorder& golden, SimTime tDigital, double tAnalog)
{
    for (auto& [name, tr] : digital_) {
        const auto it = golden.digital_.find(name);
        if (it == golden.digital_.end()) {
            throw std::logic_error("Recorder::preloadPrefix: golden run did not record '" +
                                   name + "'");
        }
        const DigitalTrace& g = it->second;
        tr.initial = g.initial;
        const auto end = std::upper_bound(
            g.events.begin(), g.events.end(), tDigital,
            [](SimTime t, const std::pair<SimTime, digital::Logic>& ev) { return t < ev.first; });
        tr.events.clear();
        tr.events.reserve(g.events.size());
        tr.events.assign(g.events.begin(), end);
    }
    for (auto& [name, tr] : analog_) {
        const auto it = golden.analog_.find(name);
        if (it == golden.analog_.end()) {
            throw std::logic_error("Recorder::preloadPrefix: golden run did not record '" +
                                   name + "'");
        }
        const AnalogTrace& g = it->second;
        const auto end =
            std::upper_bound(g.samples.begin(), g.samples.end(), tAnalog,
                             [](double t, const std::pair<double, double>& s) { return t < s.first; });
        // Room for golden's length plus its suffix once more: a faulty suffix
        // usually takes a few more solver steps than golden's, and growing
        // past a golden-length buffer would double the whole trace.
        const auto suffix = static_cast<std::size_t>(g.samples.end() - end);
        tr.samples.clear();
        tr.samples.reserve(g.samples.size() + suffix);
        tr.samples.assign(g.samples.begin(), end);
    }
}

void Recorder::recordDigital(const std::string& signalName)
{
    auto& sig = sim_->digital().findLogic(signalName);
    auto [it, inserted] = digital_.try_emplace(signalName);
    if (!inserted) {
        return; // already recorded
    }
    DigitalTrace& tr = it->second;
    tr.name = signalName;
    tr.initial = sig.value();
    digital::SignalWatch::onEvent(sig, [&tr, &sig, this] {
        tr.events.emplace_back(sim_->digital().scheduler().now(), sig.value());
    });
}

void Recorder::recordAnalog(const std::string& nodeName)
{
    auto [it, inserted] = analog_.try_emplace(nodeName);
    if (!inserted) {
        return;
    }
    AnalogTrace& tr = it->second;
    tr.name = nodeName;
    const analog::NodeId node = sim_->analog().node(nodeName);
    auto* sim = sim_;
    sim_->onElaborate([&tr, node, sim](analog::TransientSolver& solver) {
        tr.samples.emplace_back(solver.time(), sim->analog().voltage(node));
        solver.onAccept(
            [&tr, node, sim](double t) { tr.samples.emplace_back(t, sim->analog().voltage(node)); });
    });
}

const DigitalTrace& Recorder::digitalTrace(const std::string& name) const
{
    const auto it = digital_.find(name);
    if (it == digital_.end()) {
        throw std::out_of_range("Recorder: digital trace '" + name + "' not recorded");
    }
    return it->second;
}

const AnalogTrace& Recorder::analogTrace(const std::string& name) const
{
    const auto it = analog_.find(name);
    if (it == analog_.end()) {
        throw std::out_of_range("Recorder: analog trace '" + name + "' not recorded");
    }
    return it->second;
}

// ---------------------------------------------------------------------------
// Writers

void writeAnalogCsv(const std::string& path, const std::vector<const AnalogTrace*>& traces)
{
    std::string csv = "time_s";
    for (const AnalogTrace* tr : traces) {
        csv += "," + tr->name;
    }
    csv += '\n';

    // Union of all sample times.
    std::vector<double> times;
    for (const AnalogTrace* tr : traces) {
        for (const auto& [t, v] : tr->samples) {
            times.push_back(t);
        }
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());

    for (double t : times) {
        csv += formatDouble(t, 12);
        for (const AnalogTrace* tr : traces) {
            csv += "," + formatDouble(tr->valueAt(t), 9);
        }
        csv += '\n';
    }
    util::writeFile(path, csv, "writeAnalogCsv");
}

void writeVcd(const std::string& path, const std::vector<const DigitalTrace*>& digitalTraces,
              const std::vector<const AnalogTrace*>& analogTraces)
{
    std::string vcd = "$timescale 1fs $end\n$scope module gfi $end\n";
    char id = '!';
    std::vector<char> digIds;
    for (const DigitalTrace* tr : digitalTraces) {
        vcd += std::string("$var wire 1 ") + id + " " + tr->name + " $end\n";
        digIds.push_back(id++);
    }
    std::vector<char> anaIds;
    for (const AnalogTrace* tr : analogTraces) {
        vcd += std::string("$var real 64 ") + id + " " + tr->name + " $end\n";
        anaIds.push_back(id++);
    }
    vcd += "$upscope $end\n$enddefinitions $end\n";
    // Merge all change times.
    struct Change {
        SimTime t;
        std::string text;
    };
    std::vector<Change> changes;
    for (std::size_t i = 0; i < digitalTraces.size(); ++i) {
        const char c = digIds[i];
        changes.push_back({0, std::string(1, digital::toChar(digitalTraces[i]->initial)) +
                                  std::string(1, c)});
        for (const auto& [t, v] : digitalTraces[i]->events) {
            char ch = digital::toChar(v);
            if (ch == 'U' || ch == 'W' || ch == '-') {
                ch = 'x';
            }
            if (ch == 'L') {
                ch = '0';
            }
            if (ch == 'H') {
                ch = '1';
            }
            if (ch == 'X') {
                ch = 'x';
            }
            if (ch == 'Z') {
                ch = 'z';
            }
            changes.push_back({t, std::string(1, ch) + std::string(1, c)});
        }
    }
    for (std::size_t i = 0; i < analogTraces.size(); ++i) {
        const char c = anaIds[i];
        for (const auto& [t, v] : analogTraces[i]->samples) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "r%.9g %c", v, c);
            changes.push_back({fromSeconds(t), buf});
        }
    }
    std::stable_sort(changes.begin(), changes.end(),
                     [](const Change& a, const Change& b) { return a.t < b.t; });

    SimTime last = -1;
    for (const Change& ch : changes) {
        if (ch.t != last) {
            vcd += "#" + std::to_string(ch.t) + "\n";
            last = ch.t;
        }
        vcd += ch.text + "\n";
    }
    util::writeFile(path, vcd, "writeVcd");
}

} // namespace gfi::trace
