// Engineering benchmarks (google-benchmark): simulation-kernel throughput and
// the cost of instrumentation. The paper's practical argument for the simple
// trapezoid model is simulation cost ("limit the complexity of the model in
// order to simplify the simulations and reduce the fault injection experiment
// duration"); these benches quantify the kernel's costs, including that the
// trapezoid does simulate faster than the double exponential, and that idle
// saboteurs are near-free.

#include "analog/passive.hpp"
#include "analog/solver.hpp"
#include "analog/sources.hpp"
#include "core/saboteur.hpp"
#include "digital/gates.hpp"
#include "digital/sequential.hpp"
#include "digital/stimulus.hpp"
#include "duts/digital_dut.hpp"
#include "obs/telemetry.hpp"
#include "pll/pll.hpp"
#include "trace/compare.hpp"

#include "pll_bench_common.hpp"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace gfi;

namespace {

// --- digital kernel ---------------------------------------------------------

void BM_DigitalEventThroughput(benchmark::State& state)
{
    // A free-running counter: measures raw event-queue + process throughput.
    for (auto _ : state) {
        state.PauseTiming();
        digital::Circuit c;
        auto& clk = c.logicSignal("clk", digital::Logic::Zero);
        c.add<digital::ClockGen>(c, "cg", clk, 10 * kNanosecond);
        digital::Bus q = c.bus("q", 16, digital::Logic::Zero);
        c.add<digital::Counter>(c, "cnt", clk, q);
        state.ResumeTiming();
        c.runUntil(100 * kMicrosecond); // 10k clock edges
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DigitalEventThroughput)->Unit(benchmark::kMillisecond);

void BM_GateChainPropagation(benchmark::State& state)
{
    // Event propagation down an inverter chain of the given depth.
    const int depth = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        digital::Circuit c;
        auto* prev = &c.logicSignal("s0", digital::Logic::Zero);
        for (int i = 1; i <= depth; ++i) {
            auto& next = c.logicSignal("s" + std::to_string(i), digital::Logic::U);
            c.add<digital::NotGate>(c, "inv" + std::to_string(i), *prev, next);
            prev = &next;
        }
        c.runUntil(kMicrosecond);
        auto& head = c.findLogic("s0");
        state.ResumeTiming();
        for (int toggle = 0; toggle < 100; ++toggle) {
            head.forceValue(toggle % 2 == 0 ? digital::Logic::One : digital::Logic::Zero);
            c.runUntil(c.scheduler().now() + kMicrosecond);
        }
    }
    state.SetItemsProcessed(state.iterations() * 100 * depth);
}
BENCHMARK(BM_GateChainPropagation)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_StimulusArming(benchmark::State& state)
{
    // A pattern-driven testbench (io::IngestTestbench) arms one stimulus per
    // changed input bit, at increasing times, before the run starts: each arm
    // is a push later than every pending time. Time per item must not grow
    // with the number of rows.
    const std::int64_t rows = state.range(0);
    for (auto _ : state) {
        digital::Circuit c;
        auto& in = c.logicSignal("in", digital::Logic::Zero);
        auto& stimuli = c.add<digital::StimulusSchedule>(c, "stimuli");
        for (std::int64_t k = 0; k < rows; ++k) {
            stimuli.at((k + 1) * 10 * kNanosecond, in,
                       k % 2 == 0 ? digital::Logic::One : digital::Logic::Zero);
        }
        c.runUntil(rows * 10 * kNanosecond);
    }
    state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_StimulusArming)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);

// --- analog kernel -----------------------------------------------------------

void BM_AnalogRcLadder(benchmark::State& state)
{
    // Transient over an N-section RC ladder driven by a sine.
    const int sections = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        analog::AnalogSystem sys;
        analog::NodeId prev = sys.node("in");
        sys.add<analog::SineVoltage>(sys, "vs", prev, analog::kGround, 0.0, 1.0, 1e6);
        for (int i = 0; i < sections; ++i) {
            const analog::NodeId next = sys.node("n" + std::to_string(i));
            sys.add<analog::Resistor>(sys, "r" + std::to_string(i), prev, next, 1e3);
            sys.add<analog::Capacitor>(sys, "c" + std::to_string(i), next, analog::kGround,
                                       100e-12);
            prev = next;
        }
        analog::TransientSolver solver(sys);
        solver.solveDc();
        state.ResumeTiming();
        solver.advanceTo(10e-6);
        benchmark::DoNotOptimize(sys.voltage(prev));
    }
}
BENCHMARK(BM_AnalogRcLadder)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_CrossingDetection(benchmark::State& state)
{
    // Cost of locating sine-threshold crossings by bisection.
    for (auto _ : state) {
        state.PauseTiming();
        analog::AnalogSystem sys;
        const analog::NodeId n = sys.node("osc");
        sys.add<analog::SineVoltage>(sys, "vs", n, analog::kGround, 0.0, 1.0, 10e6);
        sys.add<analog::Resistor>(sys, "rl", n, analog::kGround, 1e4);
        analog::TransientSolver solver(sys);
        int crossings = 0;
        solver.addMonitor(n, 0.0, analog::CrossingMonitor::Edge::Both,
                          [&](double, bool) { ++crossings; });
        solver.solveDc();
        state.ResumeTiming();
        while (solver.time() < 10e-6) {
            solver.advanceTo(10e-6);
        }
        benchmark::DoNotOptimize(crossings);
    }
    state.SetItemsProcessed(state.iterations() * 200); // 200 crossings per run
}
BENCHMARK(BM_CrossingDetection)->Unit(benchmark::kMillisecond);

// --- instrumentation overhead --------------------------------------------------

enum class Sab { None, Idle, TrapezoidActive, DoubleExpActive };

void runRcWithSaboteur(Sab mode)
{
    analog::AnalogSystem sys;
    const analog::NodeId in = sys.node("in");
    const analog::NodeId out = sys.node("out");
    sys.add<analog::SineVoltage>(sys, "vs", in, analog::kGround, 0.0, 1.0, 1e6);
    sys.add<analog::Resistor>(sys, "r", in, out, 1e3);
    sys.add<analog::Capacitor>(sys, "c", out, analog::kGround, 1e-9);
    if (mode != Sab::None) {
        auto& sab = sys.add<fault::CurrentSaboteur>(sys, "sab", out);
        if (mode == Sab::TrapezoidActive) {
            sab.arm(5e-6, fault::TrapezoidPulse(10e-3, 100e-12, 300e-12, 500e-12));
        } else if (mode == Sab::DoubleExpActive) {
            sab.arm(5e-6, fault::DoubleExpPulse(14.6e-3, 50e-12, 500e-12));
        }
    }
    analog::TransientSolver solver(sys);
    solver.solveDc();
    solver.advanceTo(10e-6);
}

void BM_SaboteurOverhead(benchmark::State& state)
{
    const auto mode = static_cast<Sab>(state.range(0));
    for (auto _ : state) {
        runRcWithSaboteur(mode);
    }
}
BENCHMARK(BM_SaboteurOverhead)
    ->Arg(static_cast<int>(Sab::None))
    ->Arg(static_cast<int>(Sab::Idle))
    ->Arg(static_cast<int>(Sab::TrapezoidActive))
    ->Arg(static_cast<int>(Sab::DoubleExpActive))
    ->Unit(benchmark::kMillisecond);

// --- mixed-mode: the PLL itself -------------------------------------------------

void BM_PllMixedSimulation(benchmark::State& state)
{
    // Wall cost of simulating the full mixed-signal PLL for 20 us
    // (~1000 output clock cycles, 10 reference cycles).
    for (auto _ : state) {
        pll::PllConfig cfg;
        cfg.duration = 20 * kMicrosecond;
        pll::PllTestbench tb(cfg);
        tb.run();
        benchmark::DoNotOptimize(tb.sim().solver().stats().acceptedSteps);
    }
    state.SetItemsProcessed(state.iterations() * 1000); // output cycles
}
BENCHMARK(BM_PllMixedSimulation)->Unit(benchmark::kMillisecond);

// --- trace layer: classifying a forked analog run ------------------------------

void BM_CompareAnalogForked(benchmark::State& state)
{
    // The shape of a forked Fig. 8 run's V_ctrl comparison: a 550k-sample
    // golden trace (a 40 us run at ~72 ps per accepted step) against a run
    // that carries golden's first 450k samples and then diverges, sampled
    // half a step off golden's grid.
    constexpr std::size_t kGolden = 550'000;
    constexpr std::size_t kShared = 450'000;
    constexpr double kStep = 72e-12;
    trace::AnalogTrace golden;
    trace::AnalogTrace forked;
    golden.samples.reserve(kGolden);
    for (std::size_t k = 0; k < kGolden; ++k) {
        const double t = static_cast<double>(k) * kStep;
        golden.samples.emplace_back(t, 0.9 + 0.05 * std::sin(t * 2e7));
    }
    forked.samples.assign(golden.samples.begin(),
                          golden.samples.begin() + static_cast<std::ptrdiff_t>(kShared));
    for (std::size_t k = kShared; k < kGolden; ++k) {
        const double t = (static_cast<double>(k) + 0.5) * kStep;
        forked.samples.emplace_back(t, 0.9 + 0.05 * std::sin(t * 2e7) + 0.02);
    }
    for (auto _ : state) {
        const trace::AnalogDiff diff = trace::compareAnalog(golden, forked, 5e-3);
        benchmark::DoNotOptimize(diff.maxDeviation);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kGolden));
}
BENCHMARK(BM_CompareAnalogForked)->Unit(benchmark::kMillisecond);

// --- telemetry overhead ---------------------------------------------------------

void BM_TelemetryOverhead(benchmark::State& state)
{
    // The observability contract: an attached metrics sink must cost under a
    // percent on a digital campaign (the kernel probes themselves are
    // always-on member increments; the sink only adds the per-run commit
    // fold). Arg 0 = no telemetry, arg 1 = metrics registry attached.
    const bool withTelemetry = state.range(0) != 0;
    std::vector<fault::FaultSpec> faults;
    {
        const duts::DigitalDutTestbench probe;
        const SimTime tInj = kMicrosecond + 7 * kNanosecond;
        for (const auto& [name, hook] : probe.sim().digital().instrumentation().all()) {
            for (int bit = 0; bit < hook.width; ++bit) {
                faults.emplace_back(fault::BitFlipFault{name, bit, tInj});
            }
        }
    }
    for (auto _ : state) {
        obs::Telemetry telemetry;
        campaign::CampaignRunner runner(
            [] { return std::make_unique<duts::DigitalDutTestbench>(); });
        runner.setWorkers(1);
        runner.setRecordTiming(false);
        if (withTelemetry) {
            runner.setTelemetry(telemetry);
        }
        const campaign::CampaignReport report = runner.run(faults);
        benchmark::DoNotOptimize(report.runs.size());
        if (withTelemetry) {
            benchmark::DoNotOptimize(
                telemetry.metrics().counterValue("gfi_digital_delta_cycles_total"));
        }
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int>(faults.size()));
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv)
{
    return gfi::bench::runBenchmarksToJson(argc, argv, "perf_kernel");
}
