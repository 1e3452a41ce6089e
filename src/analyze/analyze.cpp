#include "analyze/analyze.hpp"

#include "analyze/graph.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace gfi::analyze {

AnalysisReport analyzeTestbench(const fault::Testbench& tb)
{
    const SignalGraph g(tb);

    AnalysisReport r;
    r.signals = g.nodes().size();
    r.processes = g.processes().size();
    for (const digital::ProcessConnectivity* p : g.processes()) {
        if (p->sequential) {
            ++r.seqProcesses;
        } else {
            ++r.combProcesses;
        }
    }
    r.maxLevel = g.maxLevel();
    r.cyclicSignals = g.cyclicSignals();
    for (const NodeInfo& n : g.nodes()) {
        if (n.observable) {
            ++r.observableSignals;
        } else {
            ++r.unobservableSignals;
        }
    }
    r.testability = scoreTestability(g);
    return r;
}

std::string AnalysisReport::table(std::size_t topN) const
{
    TextTable t;
    t.setHeader({"metric", "value"});
    t.addRow({"signals", std::to_string(signals)});
    t.addRow({"processes", std::to_string(processes)});
    t.addRow({"combinational", std::to_string(combProcesses)});
    t.addRow({"sequential", std::to_string(seqProcesses)});
    t.addRow({"max comb level", std::to_string(maxLevel)});
    t.addRow({"cyclic signals", std::to_string(cyclicSignals)});
    t.addRow({"observable signals", std::to_string(observableSignals)});
    t.addRow({"unobservable signals", std::to_string(unobservableSignals)});
    return t.str() + "\n" + testability.table(topN);
}

std::string AnalysisReport::json() const
{
    std::string scoap = testability.json();
    scoap.pop_back(); // embedded, so without its own trailing newline
    std::string out;
    util::JsonWriter w(out);
    w.beginObject(util::JsonWriter::Layout::Block).key("graph").beginObject();
    w.member("signals", signals).member("processes", processes);
    w.member("combinational", combProcesses).member("sequential", seqProcesses);
    w.member("max_level", maxLevel).member("cyclic_signals", cyclicSignals);
    w.member("observable_signals", observableSignals);
    w.member("unobservable_signals", unobservableSignals).end();
    w.key("testability").raw(scoap).end();
    out += '\n';
    return out;
}

} // namespace gfi::analyze
