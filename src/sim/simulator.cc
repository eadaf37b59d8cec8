#include "simulator.hh"

#include <algorithm>
#include <bit>

namespace lynx::sim {

Simulator::~Simulator()
{
    // Drop pending events without firing them, then destroy any task
    // coroutines that are still suspended (e.g. server loops parked on
    // a channel). Destruction order matters: no coroutine may be
    // resumed past this point, only destroyed.
    tearingDown_ = true;
    exec_.clear();
    ready_.clear();
    for (auto &level : wheel_)
        for (auto &bucket : level)
            bucket.clear();
    overflow_.clear();
    // Destroying one coroutine can unregister others (a coroutine's
    // locals may own Tasks), so iterate defensively.
    while (!liveCoroutines_.empty()) {
        auto h = liveCoroutines_.back().h;
        liveCoroutines_.pop_back();
        h.destroy();
    }
}

void
Simulator::pushOverflow(PendingEvent ev)
{
    auto later = [](const PendingEvent &a, const PendingEvent &b) {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    };
    overflow_.push_back(std::move(ev));
    std::push_heap(overflow_.begin(), overflow_.end(), later);
}

/**
 * Move the calendar forward to the next pending timestamp <= deadline
 * and load that timestamp's events into exec_ (sorted by scheduling
 * seq). @return false when no such event exists; the clock may still
 * have moved forward (to a bucket block start), but never past the
 * earliest pending event or the deadline.
 */
bool
Simulator::advance(Tick deadline)
{
    LYNX_DEBUG_ASSERT(ready_.empty() && execPos_ >= exec_.size(),
                      "advance() with undrained events");
    for (;;) {
        // Express lane for sparse calendars (a lone timer, an idle
        // link): with exactly one event in the wheel, jump straight
        // to it instead of cascading it down level by level. All
        // overflow events are later than any wheel event (they are
        // outside now()'s top-level block), so this is order-exact.
        const std::size_t inWheel = pendingCount_ - overflow_.size();
        if (inWheel == 1) {
            for (int level = 0; level < kLevels; ++level) {
                if (!occupied_[level])
                    continue;
                const std::size_t idx = static_cast<std::size_t>(
                    std::countr_zero(occupied_[level]));
                Bucket &b = wheel_[level][idx];
                if (b.front().when > deadline)
                    return false;
                now_ = b.front().when;
                exec_.push_back(std::move(b.front()));
                b.clear();
                execPos_ = 0;
                occupied_[level] = 0;
                return true;
            }
        }
        // Level 0: an event within the current 64-tick block. Each L0
        // bucket holds exactly one timestamp.
        const std::size_t cur0 = now_ & (kBuckets - 1);
        const std::uint64_t m0 =
            occupied_[0] & (~std::uint64_t(0) << cur0);
        if (m0) {
            const std::size_t idx =
                static_cast<std::size_t>(std::countr_zero(m0));
            const Tick t = (now_ & ~Tick(kBuckets - 1)) | idx;
            if (t > deadline)
                return false;
            now_ = t;
            collectBucket(idx);
            return true;
        }
        // Higher levels: cascade the next occupied bucket down. The
        // scan is inclusive of the current index — a bucket at the
        // current index can be non-empty right after a parent cascade,
        // and then holds events >= now() with now() at the block base.
        // runUntil()'s park repair (below) keeps that the *only* way:
        // without it a mid-block park after the express lane would
        // leave a stale current-index bucket whose raw base is behind
        // now_ and whose events an occupied lower level could shadow
        // past a deadline.
        bool cascaded = false;
        for (int level = 1; level < kLevels; ++level) {
            const int shift = kLevelBits * level;
            const std::size_t cur = (now_ >> shift) & (kBuckets - 1);
            const std::uint64_t m =
                occupied_[level] & (~std::uint64_t(0) << cur);
            if (!m)
                continue;
            const std::size_t idx =
                static_cast<std::size_t>(std::countr_zero(m));
            const Tick blockMask =
                (Tick(1) << (shift + kLevelBits)) - 1;
            const Tick rawBase =
                (now_ & ~blockMask) | (Tick(idx) << shift);
            LYNX_DEBUG_ASSERT(rawBase >= now_,
                              "stale wheel bucket escaped the park repair");
            const Tick base = std::max(now_, rawBase);
            if (base > deadline)
                return false;
            now_ = base;
            cascade(level, idx);
            cascaded = true;
            break;
        }
        if (cascaded)
            continue;
        // Overflow: jump to the start of the earliest far-future
        // event's top-level block and cascade that block in.
        if (!overflow_.empty()) {
            const Tick w = overflow_.front().when;
            if (w > deadline)
                return false;
            const Tick blockMask = (Tick(1) << kTopBits) - 1;
            now_ = std::max(now_, w & ~blockMask);
            drainOverflow();
            continue;
        }
        return false; // calendar is empty
    }
}

void
Simulator::collectBucket(std::size_t idx)
{
    Bucket &b = wheel_[0][idx];
    exec_.swap(b);
    execPos_ = 0;
    occupied_[0] &= ~(std::uint64_t(1) << idx);
    // Direct placement appends in seq order; a cascade arriving later
    // can interleave, so restore FIFO order when (rarely) needed.
    const auto seqLess = [](const PendingEvent &a, const PendingEvent &b) {
        return a.seq < b.seq;
    };
    if (!std::is_sorted(exec_.begin(), exec_.end(), seqLess))
        std::sort(exec_.begin(), exec_.end(), seqLess);
#if LYNX_DEBUG_ASSERTS_ENABLED
    for (const PendingEvent &e : exec_)
        LYNX_ASSERT(e.when == now_, "L0 bucket holds a foreign timestamp");
#endif
}

void
Simulator::cascade(int level, std::size_t idx)
{
    cascadeBuf_.swap(wheel_[level][idx]);
    occupied_[level] &= ~(std::uint64_t(1) << idx);
    for (PendingEvent &ev : cascadeBuf_)
        place(std::move(ev));
    cascadeBuf_.clear();
}

void
Simulator::drainOverflow()
{
    const auto later = [](const PendingEvent &a, const PendingEvent &b) {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    };
    while (!overflow_.empty() &&
           (overflow_.front().when >> kTopBits) == (now_ >> kTopBits)) {
        std::pop_heap(overflow_.begin(), overflow_.end(), later);
        PendingEvent ev = std::move(overflow_.back());
        overflow_.pop_back();
        place(std::move(ev));
    }
}

void
Simulator::runLoop(Tick deadline)
{
    while (!stopped_) {
        if (execPos_ < exec_.size()) {
            fire(exec_[execPos_++]);
            continue;
        }
        if (!exec_.empty()) {
            exec_.clear(); // keeps capacity for the next bucket swap
            execPos_ = 0;
        }
        if (!ready_.empty()) {
            PendingEvent e = ready_.pop_front();
            fire(e);
            continue;
        }
        if (!advance(deadline))
            return;
    }
}

Tick
Simulator::run()
{
    runLoop(maxTick);
    return now_;
}

Tick
Simulator::runUntil(Tick deadline)
{
    runLoop(deadline);
    if (!stopped_ && now_ < deadline) {
        now_ = deadline;
        // The jump can land inside a block whose wheel bucket still
        // holds events filed relative to the old clock — advance()'s
        // express lane leaves a lone beyond-deadline event at a high
        // level, and the park then enters its block. Re-file those
        // current-index buckets against the new clock: every pending
        // event is > deadline (advance() just said so), so this only
        // rearranges the calendar — no event fires or moves in time.
        // Without the repair, advance()'s level scan could read a
        // block base behind now_ or shadow the stale bucket's events
        // behind an occupied lower level until a later deadline.
        for (int level = kLevels - 1; level >= 1; --level) {
            const std::size_t cur =
                (now_ >> (kLevelBits * level)) & (kBuckets - 1);
            if (occupied_[level] & (std::uint64_t(1) << cur))
                cascade(level, cur);
        }
    }
    return now_;
}

} // namespace lynx::sim
