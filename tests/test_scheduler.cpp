// Unit tests for the event-driven kernel: ordering, delta cycles, inertial vs
// transport delay, edges and process wake-up semantics.

#include "digital/circuit.hpp"
#include "digital/gates.hpp"
#include "io/sha256.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>

namespace gfi::digital {
namespace {

TEST(Scheduler, TimeAdvancesToRunUntilTarget)
{
    Circuit c;
    c.runUntil(5 * kNanosecond);
    EXPECT_EQ(c.scheduler().now(), 5 * kNanosecond);
}

TEST(Scheduler, ActionsRunInTimeOrder)
{
    Circuit c;
    std::vector<int> order;
    c.scheduler().scheduleAction(3 * kNanosecond, [&] { order.push_back(3); });
    c.scheduler().scheduleAction(1 * kNanosecond, [&] { order.push_back(1); });
    c.scheduler().scheduleAction(2 * kNanosecond, [&] { order.push_back(2); });
    c.runUntil(10 * kNanosecond);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SameTimeActionsRunInScheduleOrder)
{
    Circuit c;
    std::vector<int> order;
    c.scheduler().scheduleAction(kNanosecond, [&] { order.push_back(1); });
    c.scheduler().scheduleAction(kNanosecond, [&] { order.push_back(2); });
    c.runUntil(2 * kNanosecond);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, SignalScheduleAppliesAfterDelay)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    c.scheduler().scheduleAction(0, [&] { s.scheduleInertial(Logic::One, 5 * kNanosecond); });
    c.runUntil(4 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::Zero);
    c.runUntil(5 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::One);
    EXPECT_EQ(s.lastEventTime(), 5 * kNanosecond);
}

TEST(Scheduler, InertialCancelsPendingTransactions)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    c.scheduler().scheduleAction(0, [&] {
        s.scheduleInertial(Logic::One, 2 * kNanosecond);
        s.scheduleInertial(Logic::Zero, 4 * kNanosecond); // cancels the 2 ns pulse
    });
    c.runUntil(10 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::Zero);
    EXPECT_EQ(s.lastEventTime(), -1); // never actually changed
}

TEST(Scheduler, TransportPreservesEarlierTransactions)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    std::vector<SimTime> eventTimes;
    SignalWatch::onEvent(s, [&] { eventTimes.push_back(c.scheduler().now()); });
    c.scheduler().scheduleAction(0, [&] {
        s.scheduleTransport(Logic::One, 2 * kNanosecond);
        s.scheduleTransport(Logic::Zero, 4 * kNanosecond); // both survive
    });
    c.runUntil(10 * kNanosecond);
    ASSERT_EQ(eventTimes.size(), 2u);
    EXPECT_EQ(eventTimes[0], 2 * kNanosecond);
    EXPECT_EQ(eventTimes[1], 4 * kNanosecond);
}

TEST(Scheduler, TransportCancelsLaterTransactions)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    c.scheduler().scheduleAction(0, [&] {
        s.scheduleTransport(Logic::One, 5 * kNanosecond);
        s.scheduleTransport(Logic::Zero, 3 * kNanosecond); // cancels the 5 ns one
    });
    c.runUntil(10 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::Zero);
    EXPECT_EQ(s.pendingCount(), 0u);
}

TEST(Scheduler, ProcessWakesOnSignalEvent)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    int wakeCount = 0;
    c.process("watcher", [&] { ++wakeCount; }, {&s});
    c.runUntil(0);
    const int initial = wakeCount; // elaboration pass runs it once
    c.scheduler().scheduleAction(kNanosecond, [&] { s.scheduleInertial(Logic::One, 0); });
    c.runUntil(2 * kNanosecond);
    EXPECT_EQ(wakeCount, initial + 1);
}

TEST(Scheduler, NoWakeWithoutValueChange)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    int wakeCount = 0;
    c.process("watcher", [&] { ++wakeCount; }, {&s});
    c.runUntil(0);
    const int initial = wakeCount;
    // Writing the same value is a transaction but not an event.
    c.scheduler().scheduleAction(kNanosecond, [&] { s.scheduleInertial(Logic::Zero, 0); });
    c.runUntil(2 * kNanosecond);
    EXPECT_EQ(wakeCount, initial);
}

TEST(Scheduler, ZeroDelayChainsResolveInDeltas)
{
    // a -> not -> b -> not -> c with zero gate delay must settle at one time.
    Circuit c;
    auto& a = c.logicSignal("a", Logic::Zero);
    auto& b = c.logicSignal("b", Logic::U);
    auto& y = c.logicSignal("y", Logic::U);
    c.add<NotGate>(c, "inv1", a, b, SimTime{0});
    c.add<NotGate>(c, "inv2", b, y, SimTime{0});
    c.runUntil(0);
    EXPECT_EQ(b.value(), Logic::One);
    EXPECT_EQ(y.value(), Logic::Zero);
    c.scheduler().scheduleAction(kNanosecond, [&] { a.forceValue(Logic::One); });
    c.runUntil(kNanosecond);
    EXPECT_EQ(y.value(), Logic::One);
    EXPECT_EQ(c.scheduler().now(), kNanosecond);
}

TEST(Scheduler, CombinationalLoopDetected)
{
    Circuit c;
    auto& a = c.logicSignal("a", Logic::Zero);
    auto& b = c.logicSignal("b", Logic::U);
    c.add<NotGate>(c, "inv1", a, b, SimTime{0});
    c.add<NotGate>(c, "inv2", b, a, SimTime{0}); // zero-delay ring oscillator
    EXPECT_THROW(c.runUntil(kNanosecond), std::runtime_error);
}

TEST(Scheduler, ForcedValueVisibleAsEdgeToWokenProcess)
{
    // The mixed-mode bridge forces values from outside the kernel; the woken
    // process must still see signal.event() (edge detection depends on it).
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    bool sawRisingEdge = false;
    c.process("edge", [&] { sawRisingEdge = sawRisingEdge || risingEdge(s); }, {&s});
    c.runUntil(kNanosecond);
    s.forceValue(Logic::One);
    c.scheduler().runDeltasNow();
    EXPECT_TRUE(sawRisingEdge);
}

TEST(Scheduler, RunUntilDrainsProcessesWokenByForcedValues)
{
    // Regression: a forceValue from outside the kernel wakes processes but
    // queues no entry; runUntil must still run them (found via a benchmark
    // where an inverter chain silently never propagated).
    Circuit c;
    auto& a = c.logicSignal("a", Logic::Zero);
    auto& b = c.logicSignal("b", Logic::U);
    auto& y = c.logicSignal("y", Logic::U);
    c.add<NotGate>(c, "inv1", a, b, SimTime{0});
    c.add<NotGate>(c, "inv2", b, y, SimTime{0});
    c.runUntil(kNanosecond);
    EXPECT_EQ(y.value(), Logic::Zero);
    a.forceValue(Logic::One);           // no queue entry exists now
    c.runUntil(2 * kNanosecond);        // must still propagate the change
    EXPECT_EQ(y.value(), Logic::One);
}

TEST(Scheduler, NextEventTimePeek)
{
    Circuit c;
    EXPECT_EQ(c.scheduler().nextEventTime(), kTimeMax);
    c.scheduler().scheduleAction(7 * kNanosecond, [] {});
    EXPECT_EQ(c.scheduler().nextEventTime(), 7 * kNanosecond);
}

TEST(Scheduler, LastValueTracksPreviousValue)
{
    Circuit c;
    auto& s = c.logicSignal("s", Logic::Zero);
    c.scheduler().scheduleAction(kNanosecond, [&] { s.scheduleInertial(Logic::One, 0); });
    c.scheduler().scheduleAction(2 * kNanosecond, [&] { s.scheduleInertial(Logic::Zero, 0); });
    c.runUntil(3 * kNanosecond);
    EXPECT_EQ(s.value(), Logic::Zero);
    EXPECT_EQ(s.lastValue(), Logic::One);
}

/// A logic signal that logs every transaction the kernel applies to it,
/// cancelled and no-op ones included.
class LoggingSignal : public LogicSignal {
public:
    LoggingSignal(Scheduler& sched, std::string name, std::string& log)
        : LogicSignal(sched, std::move(name), Logic::Zero), log_(&log)
    {
    }

    void applyTxn(std::uint64_t id) override
    {
        *log_ += "T " + name() + " " + std::to_string(id) + " @" +
                 std::to_string(scheduler().now()) + " w" +
                 std::to_string(scheduler().deltaCycles());
        LogicSignal::applyTxn(id);
        *log_ += " -> " + std::string(1, toChar(value())) + "\n";
    }

private:
    std::string* log_;
};

TEST(Scheduler, SeededScheduleDispatchOrderIsPinned)
{
    // A seeded random schedule over every kind of queue traffic: inertial
    // and transport writes at 0/1/2/5 ns (so cancelled entries stay queued),
    // actions that schedule actions and zero-delay transactions at now(),
    // forceValue + runDeltasNow from outside the kernel, and runUntil to
    // several horizons. The log of every applied transaction, action and
    // process run, plus the kernel counters after each step, is hashed: any
    // change to dispatch order, wave count or queue depth changes the digest.
    constexpr int kSignals = 6;
    constexpr std::array<SimTime, 4> kDelays{0, kNanosecond, 2 * kNanosecond,
                                             5 * kNanosecond};
    Circuit c;
    Scheduler& sched = c.scheduler();
    std::string log;
    Rng rng(20041);
    int budget = 3000; // bounds the self-scheduling cascade
    std::vector<std::unique_ptr<LoggingSignal>> sig;
    for (int i = 0; i < kSignals; ++i) {
        sig.push_back(std::make_unique<LoggingSignal>(sched, "s" + std::to_string(i), log));
    }
    const auto write = [&] {
        LoggingSignal& s = *sig[rng.below(kSignals)];
        const Logic v = rng.chance(0.5) ? Logic::One : Logic::Zero;
        const SimTime d = kDelays[rng.below(kDelays.size())];
        if (rng.chance(0.5)) {
            s.scheduleInertial(v, d);
        } else {
            s.scheduleTransport(v, d);
        }
    };
    int nextAction = 0;
    std::function<void(SimTime)> arm = [&](SimTime t) {
        const int id = nextAction++;
        sched.scheduleAction(t, [&, id] {
            log += "A " + std::to_string(id) + " @" + std::to_string(sched.now()) + " w" +
                   std::to_string(sched.deltaCycles()) + "\n";
            for (int k = static_cast<int>(rng.below(3)); k > 0 && budget > 0; --k, --budget) {
                if (rng.chance(0.3)) {
                    arm(sched.now() + kDelays[rng.below(kDelays.size())]);
                } else {
                    write();
                }
            }
        });
    };
    for (int i = 0; i < kSignals; ++i) {
        c.process("p" + std::to_string(i),
                  [&, i] {
                      log += "P " + std::to_string(i) + " @" + std::to_string(sched.now()) +
                             " w" + std::to_string(sched.deltaCycles()) + "\n";
                      for (int k = static_cast<int>(rng.below(3)); k > 0 && budget > 0;
                           --k, --budget) {
                          write();
                      }
                  },
                  {sig[static_cast<std::size_t>(i)].get(),
                   sig[static_cast<std::size_t>((i + 1) % kSignals)].get()});
    }
    for (int i = 0; i < 120; ++i) {
        arm(static_cast<SimTime>(rng.below(300)) * kNanosecond);
    }
    const auto counters = [&](const char* step) {
        log += std::string(step) + " now=" + std::to_string(sched.now()) +
               " deltas=" + std::to_string(sched.deltaCycles()) +
               " dispatched=" + std::to_string(sched.eventsDispatched()) +
               " pending=" + std::to_string(sched.pendingEvents()) +
               " high=" + std::to_string(sched.queueHighWater()) + "\n";
    };
    for (const SimTime horizon : {SimTime{0}, 7 * kNanosecond, 13 * kNanosecond,
                                  50 * kNanosecond, 51 * kNanosecond, 120 * kNanosecond,
                                  200 * kNanosecond, 400 * kNanosecond, kMicrosecond}) {
        c.runUntil(horizon);
        counters("run");
        LoggingSignal& s = *sig[rng.below(kSignals)];
        s.forceValue(s.value() == Logic::One ? Logic::Zero : Logic::One);
        sched.runDeltasNow();
        counters("force");
    }
    EXPECT_GT(sched.queueHighWater(), 50u);
    EXPECT_EQ(io::sha256Hex(log),
              "4e5ad5c6c5965689b3a653b8f1d88314105af05ce7b3e41438f51cba28d509b8")
        << log.size() << " log bytes";
}

TEST(EventQueue, PopsInTimeSeqOrderLikeAHeap)
{
    // Random pushes (many at repeated times, some earlier than the last pop
    // horizon), interleaved with popDue; every pop, forEach and the restore
    // pattern (clear, re-insert in captured order) must match a reference
    // sorted by (time, seq).
    using Queue = EventQueue<int, std::function<int()>>;
    Queue q;
    std::vector<Queue::Entry> ref;
    Rng rng(7);
    std::uint64_t seq = 0;
    const auto byTimeSeq = [](const Queue::Entry& a, const Queue::Entry& b) {
        return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    };
    const auto same = [](const std::vector<Queue::Entry>& a,
                         const std::vector<Queue::Entry>& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                          [](const Queue::Entry& x, const Queue::Entry& y) {
                              return x.time == y.time && x.seq == y.seq &&
                                     x.payload == y.payload;
                          });
    };
    SimTime horizon = 0;
    std::vector<Queue::Entry> got;
    for (int round = 0; round < 400; ++round) {
        for (int k = static_cast<int>(rng.below(12)); k > 0; --k) {
            const SimTime t = horizon + static_cast<SimTime>(rng.below(8)) - 1;
            const int payload = static_cast<int>(rng.below(1000));
            q.push(t, seq, payload);
            ref.push_back(Queue::Entry{t, seq++, payload});
        }
        ASSERT_EQ(q.size(), ref.size());
        std::stable_sort(ref.begin(), ref.end(), byTimeSeq);
        EXPECT_EQ(q.nextTime(), ref.empty() ? kTimeMax : ref.front().time);
        std::vector<Queue::Entry> visited;
        q.forEach([&](const Queue::Entry& e) { visited.push_back(e); });
        ASSERT_TRUE(same(visited, ref)) << "forEach order, round " << round;

        if (rng.chance(0.1)) {
            // Restore pattern: drop everything, re-insert in captured order.
            q.clear();
            EXPECT_TRUE(q.empty());
            for (const Queue::Entry& e : visited) {
                q.push(e.time, e.seq, e.payload);
            }
        }
        horizon += static_cast<SimTime>(rng.below(4));
        got.clear();
        q.popDue(horizon, got);
        const auto due = std::find_if(ref.begin(), ref.end(),
                                      [&](const Queue::Entry& e) { return e.time > horizon; });
        const std::vector<Queue::Entry> want(ref.begin(), due);
        ref.erase(ref.begin(), due);
        ASSERT_TRUE(same(got, want)) << "popDue order, round " << round;
        EXPECT_EQ(q.size(), ref.size());
    }
}

TEST(EventQueue, FarFutureAndMiddlePushesKeepOrder)
{
    // Stimulus-style arming: a long run of pushes later than every pending
    // time (each one takes a slot of the front gap, which reopens when it
    // runs out), mixed with pushes at random times across the whole pending
    // range and near-time pushes, drained a little at a time.
    using Queue = EventQueue<int, std::function<int()>>;
    Queue q;
    std::vector<Queue::Entry> ref;
    Rng rng(11);
    std::uint64_t seq = 0;
    SimTime latest = 0;
    const auto push = [&](SimTime t) {
        // ref stays sorted by (time, seq): the new seq is the largest.
        const int payload = static_cast<int>(rng.below(1000));
        q.push(t, seq, payload);
        ref.insert(std::upper_bound(ref.begin(), ref.end(), t,
                                    [](SimTime time, const Queue::Entry& e) {
                                        return time < e.time;
                                    }),
                   Queue::Entry{t, seq++, payload});
        latest = std::max(latest, t);
    };
    for (int row = 0; row < 3000; ++row) {
        push(latest + 1 + static_cast<SimTime>(rng.below(3)));
    }
    SimTime horizon = 0;
    std::vector<Queue::Entry> got;
    while (!ref.empty()) {
        for (int k = static_cast<int>(rng.below(6)); k > 0; --k) {
            switch (rng.below(3)) {
            case 0: push(latest + 1 + static_cast<SimTime>(rng.below(3))); break;
            case 1: push(horizon + static_cast<SimTime>(rng.below(static_cast<std::uint64_t>(
                              latest - horizon + 1)))); break;
            default: push(horizon + static_cast<SimTime>(rng.below(3))); break;
            }
        }
        ASSERT_EQ(q.nextTime(), ref.front().time);
        horizon += static_cast<SimTime>(rng.below(5));
        got.clear();
        q.popDue(horizon, got);
        const auto due = std::find_if(ref.begin(), ref.end(),
                                      [&](const Queue::Entry& e) { return e.time > horizon; });
        ASSERT_EQ(got.size(), static_cast<std::size_t>(due - ref.begin()));
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].time, ref[i].time) << i;
            ASSERT_EQ(got[i].seq, ref[i].seq) << i;
            ASSERT_EQ(got[i].payload, ref[i].payload) << i;
        }
        ref.erase(ref.begin(), due);
        ASSERT_EQ(q.size(), ref.size());
        if (horizon > 12000) {
            break; // the queue keeps receiving far pushes; stop draining here
        }
    }
    std::vector<Queue::Entry> rest;
    q.forEach([&](const Queue::Entry& e) { rest.push_back(e); });
    ASSERT_EQ(rest.size(), ref.size());
    for (std::size_t i = 0; i < rest.size(); ++i) {
        EXPECT_EQ(rest[i].seq, ref[i].seq) << i;
    }
}

TEST(EventQueue, ParkedActionsRunOnceAndSlotsAreReused)
{
    EventQueue<int, std::function<int()>> q;
    const std::uint64_t a = q.park([] { return 1; });
    const std::uint64_t b = q.park([] { return 2; });
    EXPECT_NE(a, b);
    EXPECT_EQ(q.take(a)(), 1);
    const std::uint64_t c = q.park([] { return 3; }); // reuses a's slot
    EXPECT_EQ(c, a);
    EXPECT_EQ(q.take(b)(), 2);
    EXPECT_EQ(q.take(c)(), 3);
}

} // namespace
} // namespace gfi::digital
