#pragma once
// Pending-work queue shared by the scalar event kernel (digital::Scheduler)
// and the 64-lane word kernel (batch::WordSim).
//
// Structure: one FIFO of entries per pending time (a *time bucket*). The
// buckets sit in one vector sorted by descending time, so the earliest bucket
// is at the back: popping a time point is a pop_back. Unused slots before the
// latest bucket form a gap at the front. A push finds its bucket by binary
// search and inserts a new one by shifting the buckets on the nearer side
// only: a push at or near the current time (zero-delay writes, gate delays)
// moves the few earlier buckets toward the back, and a push later than every
// pending time (stimulus rows armed up front in increasing time) takes a slot
// of the gap, so both stay O(1). An empty gap is reopened at the size of the
// live bucket range, which keeps a run of far-future pushes amortized O(1).
// Entries are POD nodes in one pool, chained per bucket through an index and
// recycled through an intrusive free list. Storage is therefore bounded by
// the queue's high-water mark (pool) and twice the largest number of
// distinct pending times plus 8 (bucket vector). An action's closure is parked in a
// slot table and its entry carries only the slot index, so no closure moves
// through the queue.
//
// Ordering invariant — FIFO order *is* (time, seq) order:
//   * every kernel pushes entries with strictly increasing seq (one counter
//     per kernel), so each bucket's FIFO is sorted by seq;
//   * a snapshot restore clears the queue and re-inserts the captured
//     entries in their captured (time, seq) order, with their original seq,
//     before any fresh entry (whose seq comes from the restored, larger
//     counter) is pushed.
// popDue() and forEach() therefore visit entries in exactly the order a
// (time, seq)-keyed binary heap pops them. Dispatch order, wave counts and
// size() (queue depth and high-water probes) do not depend on the queue's
// structure; cancelled or no-op entries stay queued like any other.

#include "sim/time.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace gfi {

/// Time-bucketed FIFO event queue. @p Payload is the kernel's POD entry body
/// (transaction target and id, or an action slot); @p Action is the closure
/// type parked for action entries.
template <typename Payload, typename Action>
class EventQueue {
public:
    struct Entry {
        SimTime time;
        std::uint64_t seq;
        Payload payload;
    };

    /// Number of pending entries (cancelled transactions included).
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    /// Earliest pending time, or kTimeMax when the queue is empty.
    [[nodiscard]] SimTime nextTime() const noexcept
    {
        return buckets_.size() == front_ ? kTimeMax : buckets_.back().time;
    }

    /// Appends an entry to the FIFO of time @p t. @p seq must exceed the seq
    /// of every entry already queued at @p t (see the ordering invariant).
    void push(SimTime t, std::uint64_t seq, const Payload& payload)
    {
        const std::uint32_t n = allocNode();
        nodes_[n].entry = Entry{t, seq, payload};
        nodes_[n].next = kNil;
        ++size_;
        // The first bucket whose time is <= t; end() when t is earlier than
        // every pending time (a zero-delay push after its time point popped).
        auto it = buckets_.end();
        if (buckets_.size() != front_ && buckets_.back().time <= t) {
            it = std::lower_bound(buckets_.begin() + static_cast<std::ptrdiff_t>(front_),
                                  buckets_.end(), t,
                                  [](const Bucket& b, SimTime time) { return b.time > time; });
        }
        if (it != buckets_.end() && it->time == t) {
            nodes_[it->tail].next = n;
            it->tail = n;
        } else {
            insertBucket(static_cast<std::size_t>(it - buckets_.begin()), Bucket{t, n, n});
        }
    }

    /// Moves every entry due at or before @p t into @p out (appended), in
    /// (time, seq) order. Entries pushed afterwards, even at a due time,
    /// wait for the next call.
    void popDue(SimTime t, std::vector<Entry>& out)
    {
        while (buckets_.size() != front_ && buckets_.back().time <= t) {
            std::uint32_t n = buckets_.back().head;
            buckets_.pop_back();
            while (n != kNil) {
                Node& node = nodes_[n];
                out.push_back(node.entry);
                const std::uint32_t next = node.next;
                node.next = freeHead_;
                freeHead_ = n;
                --size_;
                n = next;
            }
        }
    }

    /// Calls @p fn(entry) for every pending entry in (time, seq) order.
    template <typename Fn>
    void forEach(Fn&& fn) const
    {
        for (auto b = buckets_.rbegin(); b != buckets_.rend() - static_cast<std::ptrdiff_t>(front_);
             ++b) {
            for (std::uint32_t n = b->head; n != kNil; n = nodes_[n].next) {
                fn(nodes_[n].entry);
            }
        }
    }

    /// Parks @p action in the slot table; the returned slot goes into the
    /// action's entry payload.
    [[nodiscard]] std::uint64_t park(Action action)
    {
        if (freeSlots_.empty()) {
            actions_.push_back(std::move(action));
            return actions_.size() - 1;
        }
        const std::uint64_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        actions_[slot] = std::move(action);
        return slot;
    }

    /// Moves the action parked in @p slot out and frees the slot. The caller
    /// runs the returned closure, which may park new actions.
    [[nodiscard]] Action take(std::uint64_t slot)
    {
        Action action = std::move(actions_[slot]);
        actions_[slot] = nullptr;
        freeSlots_.push_back(slot);
        return action;
    }

    /// Drops every entry and parked action. Storage is kept for reuse.
    void clear() noexcept
    {
        nodes_.clear();
        buckets_.clear();
        front_ = 0;
        actions_.clear();
        freeSlots_.clear();
        freeHead_ = kNil;
        size_ = 0;
    }

private:
    static constexpr std::uint32_t kNil = UINT32_MAX;

    struct Node {
        Entry entry;
        std::uint32_t next;
    };
    struct Bucket {
        SimTime time;
        std::uint32_t head; ///< oldest entry (lowest seq)
        std::uint32_t tail; ///< newest entry
    };

    /// Inserts @p b at index @p pos of the live range [front_, size), moving
    /// the buckets on the shorter side: earlier times toward the back, or
    /// later times into the front gap (reopened when it is empty).
    void insertBucket(std::size_t pos, const Bucket& b)
    {
        if (pos - front_ > buckets_.size() - pos) {
            buckets_.insert(buckets_.begin() + static_cast<std::ptrdiff_t>(pos), b);
            return;
        }
        if (front_ == 0) {
            const std::size_t gap = std::max<std::size_t>(buckets_.size(), 8);
            buckets_.insert(buckets_.begin(), gap, Bucket{});
            front_ = gap;
            pos += gap;
        }
        std::move(buckets_.begin() + static_cast<std::ptrdiff_t>(front_),
                  buckets_.begin() + static_cast<std::ptrdiff_t>(pos),
                  buckets_.begin() + static_cast<std::ptrdiff_t>(front_ - 1));
        --front_;
        buckets_[pos - 1] = b;
    }

    std::uint32_t allocNode()
    {
        if (freeHead_ != kNil) {
            const std::uint32_t n = freeHead_;
            freeHead_ = nodes_[n].next;
            return n;
        }
        nodes_.emplace_back();
        return static_cast<std::uint32_t>(nodes_.size() - 1);
    }

    std::vector<Node> nodes_;     ///< entry pool; free nodes chain from freeHead_
    std::vector<Bucket> buckets_; ///< [front_, size): pending times, descending
    std::size_t front_ = 0;       ///< first live bucket; slots before it are the gap
    std::vector<Action> actions_; ///< parked closures, indexed by slot
    std::vector<std::uint64_t> freeSlots_;
    std::uint32_t freeHead_ = kNil;
    std::size_t size_ = 0;
};

} // namespace gfi
