#pragma once
// Event-driven digital simulation kernel with VHDL-style delta cycles.
//
// Execution model — one *wave* is:
//   1. apply all signal transactions due at the current time (value updates;
//      a changed value marks an event and wakes sensitive processes);
//   2. run all scheduled actions (clock generators, fault injectors, ...);
//   3. run every woken process.
// Waves repeat at the same simulation time until no zero-delay work remains
// (delta cycles), then time advances to the next pending entry.
//
// Event visibility: a signal event is visible (signal.event() == true) to the
// processes that run in the same wave in which the value changed. This also
// holds for values forced from outside the kernel (mixed-mode bridges, fault
// injectors): the forcing call stamps the current wave, and the next wave run
// by runDeltasNow() executes the woken processes before the wave id advances.
//
// Pending work lives in an EventQueue (sim/event_queue.hpp), the same type
// the word kernel (batch::WordSim) uses: one FIFO of POD entries per pending
// time, each entry (time, seq, signal, id) — a transaction on `signal`, or,
// with a null signal, the action parked in slot `id`. Every entry draws its
// seq from one counter, and restore re-inserts the captured transactions in
// (time, seq) order into an empty queue, so FIFO order is (time, seq) order:
// a wave applies due transactions in seq order, then runs due actions in seq
// order, exactly as a (time, seq)-keyed heap would pop them. Cancelled and
// no-op transactions stay queued and still cost their wave. A wave copies
// its due entries and its runnable processes into scratch buffers the
// scheduler keeps, so a run allocates only while those buffers grow; the
// kernel is therefore not re-entrant (no action or process may call
// runUntil() or runDeltasNow()).

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "sim/watchdog.hpp"
#include "snapshot/serialize.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gfi::obs {
class FlightRecorder;
}

namespace gfi::digital {

class Scheduler;
class SignalBase;

/// A concurrent process: a callback executed whenever one of the signals it is
/// sensitive to has an event (VHDL process with a sensitivity list).
class Process {
public:
    /// @param name  diagnostic name (hierarchical by convention, e.g. "pfd/ff1").
    /// @param fn    body executed on wake-up.
    Process(std::string name, std::function<void()> fn)
        : name_(std::move(name)), fn_(std::move(fn))
    {
    }

    /// Diagnostic name.
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Executes the process body once.
    void run() { fn_(); }

private:
    friend class Scheduler;
    std::string name_;
    std::function<void()> fn_;
    bool queued_ = false; // already in the runnable set
};

/// The digital event queue / delta-cycle engine.
class Scheduler {
public:
    Scheduler() = default;
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /// Current simulation time.
    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Identifier of the execution wave currently running (or about to run).
    /// Signal events stamped with this id are "fresh" for edge detection.
    [[nodiscard]] std::uint64_t waveId() const noexcept { return waveId_; }

    /// Total number of waves (delta cycles) executed — diagnostic metric.
    [[nodiscard]] std::uint64_t deltaCycles() const noexcept { return deltasRun_; }

    // --- kernel probes (always-on counters; cost: one increment each) -------

    /// Queue entries executed so far (transactions applied + actions run).
    [[nodiscard]] std::uint64_t eventsDispatched() const noexcept { return dispatched_; }

    /// Largest pending-queue depth ever observed (a growing high-water mark
    /// is the signature of a run that schedules faster than it retires —
    /// the usual cause of a wall-clock watchdog timeout).
    [[nodiscard]] std::uint64_t queueHighWater() const noexcept { return queueHighWater_; }

    /// Pending-queue depth right now.
    [[nodiscard]] std::uint64_t pendingEvents() const noexcept { return queue_.size(); }

    /// Caps the number of delta cycles at one simulation time before the
    /// kernel declares a combinational loop (SchedulerLimitError).
    void setDeltaLimit(std::uint64_t limit) noexcept
    {
        deltaLimit_ = limit == 0 ? kDefaultDeltaLimit : limit;
    }

    /// Attaches a per-run watchdog (not owned; nullptr detaches). Every wave
    /// charges one digital-wave unit; budget exhaustion unwinds the kernel
    /// with WatchdogTimeout.
    void setWatchdog(Watchdog* wd) noexcept { watchdog_ = wd; }

    /// Attaches a flight recorder (not owned; nullptr detaches). Every
    /// retired wave records one event — a branch and a ring write, so the
    /// recorder can stay armed for entire campaigns.
    void setFlightRecorder(obs::FlightRecorder* fr) noexcept { recorder_ = fr; }

    /// Records the signal whose event was stamped most recently — the prime
    /// suspect when the delta-cycle limit trips (called by SignalBase).
    void noteSignalEvent(const std::string& name) noexcept { lastEventSignal_ = &name; }

    /// Registers a process so the kernel can run it once at startup
    /// (VHDL elaboration semantics). Called by Circuit.
    void registerProcess(Process* p) { processes_.push_back(p); }

    /// Queues a signal-value update at absolute time @p t (phase 1 of a wave):
    /// when due, the kernel calls @p sig->applyTxn(txnId). Transactions are
    /// pure data (no closure) so a pending queue can be snapshotted.
    void scheduleTransaction(SimTime t, SignalBase& sig, std::uint64_t txnId);

    /// Queues a callback at absolute time @p t (phase 2 of a wave). Used for
    /// clock generators, testbench stimuli and fault-injection triggers.
    void scheduleAction(SimTime t, std::function<void()> action);

    /// Marks @p p runnable in the current wave (called on signal events).
    void wake(Process* p);

    /// Earliest pending entry time, or kTimeMax if the queue is empty.
    [[nodiscard]] SimTime nextEventTime() const noexcept;

    /// Processes every entry with time <= @p tEnd, then sets now() = tEnd.
    /// Runs all registered processes once first if the kernel has not started.
    void runUntil(SimTime tEnd);

    /// Runs pending work at the current time only (all deltas), without
    /// advancing time. Used by the mixed-mode synchronizer after an analog
    /// threshold crossing forces a digital signal.
    void runDeltasNow();

    /// True once the initial process execution pass has happened.
    [[nodiscard]] bool started() const noexcept { return started_; }

    /// Forces the startup pass (normally triggered lazily by runUntil).
    void start();

    // --- snapshot support ---------------------------------------------------

    /// Serializes the kernel counters plus every pending *transaction*
    /// (time, seq, signal name, txn id). Pending *actions* are closures and
    /// are not captured: their owners (clock generators, stimulus schedules,
    /// PFD resets, scrubbers) record their fire times and re-arm on restore.
    /// Must be called at a quiescent point (no wave in flight).
    void captureState(snapshot::Writer& w) const;

    /// Restores the counters, clears the queue and re-inserts the captured
    /// transactions with their original sequence numbers (so same-wave apply
    /// order is preserved exactly). @p resolve maps a signal name back to the
    /// freshly built circuit's signal object.
    void restoreState(snapshot::Reader& r,
                      const std::function<SignalBase&(const std::string&)>& resolve);

private:
    /// Queue entry body: a transaction on @c signal, or (null signal) the
    /// action parked in slot @c id.
    struct Target {
        SignalBase* signal;
        std::uint64_t id;
    };
    using Queue = EventQueue<Target, std::function<void()>>;

    /// True while zero-delay work remains at the current time.
    [[nodiscard]] bool workPendingNow() const noexcept
    {
        return !runnable_.empty() || queue_.nextTime() <= now_;
    }

    void runWave(); // one wave at the current time

    /// Throws SchedulerLimitError naming the time, the last signal event and
    /// the last process run (the usual combinational-loop participants).
    [[noreturn]] void throwDeltaLimit() const;

    static constexpr std::uint64_t kDefaultDeltaLimit = 1'000'000;

    Queue queue_;
    std::vector<Queue::Entry> due_;  ///< wave scratch: entries due now
    std::vector<Process*> processes_;
    std::vector<Process*> runnable_;
    std::vector<Process*> toRun_;    ///< wave scratch: processes woken last wave
    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t deltasRun_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t queueHighWater_ = 0;
    std::uint64_t waveId_ = 0;
    std::uint64_t deltaLimit_ = kDefaultDeltaLimit;
    Watchdog* watchdog_ = nullptr;
    obs::FlightRecorder* recorder_ = nullptr;
    const std::string* lastEventSignal_ = nullptr;
    const std::string* lastProcessRun_ = nullptr;
    bool started_ = false;
};

} // namespace gfi::digital
