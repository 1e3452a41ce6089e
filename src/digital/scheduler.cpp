#include "digital/scheduler.hpp"

#include "digital/signal.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/errors.hpp"

namespace gfi::digital {

void Scheduler::scheduleTransaction(SimTime t, SignalBase& sig, std::uint64_t txnId)
{
    queue_.push(t < now_ ? now_ : t, seq_++, Target{&sig, txnId}); // never in the past
    if (queue_.size() > queueHighWater_) {
        queueHighWater_ = queue_.size();
    }
}

void Scheduler::scheduleAction(SimTime t, std::function<void()> action)
{
    queue_.push(t < now_ ? now_ : t, seq_++, Target{nullptr, queue_.park(std::move(action))});
    if (queue_.size() > queueHighWater_) {
        queueHighWater_ = queue_.size();
    }
}

void Scheduler::wake(Process* p)
{
    if (p->queued_) {
        return;
    }
    p->queued_ = true;
    runnable_.push_back(p);
}

SimTime Scheduler::nextEventTime() const noexcept
{
    return queue_.nextTime();
}

void Scheduler::start()
{
    if (started_) {
        return;
    }
    started_ = true;
    // VHDL elaboration: every process runs once at time zero.
    for (Process* p : processes_) {
        p->run();
    }
    runDeltasNow();
}

void Scheduler::throwDeltaLimit() const
{
    std::string msg = "Scheduler: delta-cycle limit (" + std::to_string(deltaLimit_) +
                      ") exceeded at t=" + formatTime(now_) +
                      " (combinational loop or zero-delay oscillation";
    if (lastEventSignal_ != nullptr) {
        msg += "; last signal event: '" + *lastEventSignal_ + "'";
    }
    if (lastProcessRun_ != nullptr) {
        msg += "; last process: '" + *lastProcessRun_ + "'";
    }
    msg += "); hint: run lint — rule DIG001 reports combinational loops statically, "
           "before any simulation";
    throw SchedulerLimitError(msg);
}

void Scheduler::runWave()
{
    // Phase 1: apply signal transactions due now; phase 2: actions; phase 3:
    // woken processes. The wave id advances only after the processes ran, so
    // events stamped in phases 1-2 are visible to them.
    due_.clear();
    queue_.popDue(now_, due_);
    dispatched_ += due_.size();
    for (const Queue::Entry& e : due_) {
        if (e.payload.signal != nullptr) {
            e.payload.signal->applyTxn(e.payload.id);
        }
    }
    for (const Queue::Entry& e : due_) {
        if (e.payload.signal == nullptr) {
            queue_.take(e.payload.id)();
        }
    }
    toRun_.clear();
    toRun_.swap(runnable_);
    for (Process* p : toRun_) {
        p->queued_ = false;
        lastProcessRun_ = &p->name();
        p->run();
    }
    ++waveId_;
    ++deltasRun_;
    if (recorder_ != nullptr) {
        recorder_->record(obs::FlightRecorder::Kind::Wave, now_, 0.0, deltasRun_,
                          queue_.size(), 0.0);
    }
    if (watchdog_ != nullptr) {
        watchdog_->chargeDigitalWave();
    }
}

void Scheduler::runUntil(SimTime tEnd)
{
    start();
    // Values forced from outside the kernel (testbenches, bridges) may have
    // woken processes without queuing any entry; drain them before advancing.
    runDeltasNow();
    while (!queue_.empty() && queue_.nextTime() <= tEnd) {
        const SimTime t = queue_.nextTime();
        now_ = t < now_ ? now_ : t;
        std::uint64_t deltasHere = 0;
        while (workPendingNow()) {
            if (++deltasHere > deltaLimit_) {
                throwDeltaLimit();
            }
            runWave();
        }
    }
    if (tEnd > now_) {
        now_ = tEnd;
    }
}

void Scheduler::runDeltasNow()
{
    started_ = true;
    std::uint64_t deltasHere = 0;
    while (workPendingNow()) {
        if (++deltasHere > deltaLimit_) {
            throwDeltaLimit();
        }
        runWave();
    }
}

void Scheduler::captureState(snapshot::Writer& w) const
{
    w.i64(now_);
    w.u64(seq_);
    w.u64(waveId_);
    w.u64(deltasRun_);
    // The queue visits entries in (time, seq) order: the order pending
    // transactions would apply in.
    std::uint64_t pending = 0;
    queue_.forEach([&](const Queue::Entry& e) { pending += e.payload.signal != nullptr; });
    w.u64(pending);
    queue_.forEach([&](const Queue::Entry& e) {
        if (e.payload.signal != nullptr) {
            w.i64(e.time);
            w.u64(e.seq);
            w.str(e.payload.signal->name());
            w.u64(e.payload.id);
        }
    });
}

void Scheduler::restoreState(snapshot::Reader& r,
                             const std::function<SignalBase&(const std::string&)>& resolve)
{
    now_ = r.i64();
    seq_ = r.u64();
    waveId_ = r.u64();
    deltasRun_ = r.u64();
    started_ = true; // the captured kernel had completed its startup pass
    queue_.clear();
    for (Process* p : runnable_) {
        p->queued_ = false;
    }
    runnable_.clear();
    lastEventSignal_ = nullptr;
    lastProcessRun_ = nullptr;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const SimTime t = r.i64();
        const std::uint64_t seq = r.u64();
        SignalBase& sig = resolve(r.str());
        const std::uint64_t txnId = r.u64();
        // Original sequence numbers are kept so same-wave transactions apply
        // in the captured order. The stream lists them in (time, seq) order
        // and the queue is empty, so each time's FIFO receives them in seq
        // order; fresh entries (re-armed actions, new faults) draw from the
        // restored seq_ counter and queue behind them.
        queue_.push(t, seq, Target{&sig, txnId});
    }
    // Probe counters are not part of the snapshot format: the campaign layer
    // samples a post-restore baseline and bills runs by delta, so they only
    // need to keep counting monotonically from here.
    if (queue_.size() > queueHighWater_) {
        queueHighWater_ = queue_.size();
    }
}

} // namespace gfi::digital
