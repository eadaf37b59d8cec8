#include "simulator.hh"

namespace lynx::sim {

Simulator::~Simulator()
{
    // Drop pending events without firing them, then destroy any task
    // coroutines that are still suspended (e.g. server loops parked on
    // a channel). Destruction order matters: no coroutine may be
    // resumed past this point, only destroyed.
    tearingDown_ = true;
    for (const Key &k : heap_)
        dropClosure(k.fn);
    while (!ready_.empty())
        dropClosure(ready_.pop_front());
    heap_.clear();
    // Destroying one coroutine can unregister others (a coroutine's
    // locals may own Tasks), so iterate defensively.
    while (!liveCoroutines_.empty()) {
        auto h = liveCoroutines_.back().h;
        liveCoroutines_.pop_back();
        h.destroy();
    }
}

void
Simulator::dropClosure(std::uintptr_t fn)
{
    if (fn & 1) {
        EventFn *closure = closureAt(fn);
        closure->~EventFn();
        Pool::instance().deallocate(closure);
    }
}

std::uintptr_t
Simulator::popMin()
{
    const std::uintptr_t fn = heap_.front().fn;
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return fn;
    // Sift the last key down from the root's hole.
    std::size_t i = 0;
    for (;;) {
        const std::size_t c = 4 * i + 1;
        if (c >= n)
            break;
        const std::size_t end = c + 4 < n ? c + 4 : n;
        std::size_t best = c;
        for (std::size_t j = c + 1; j < end; ++j)
            if (before(heap_[j], heap_[best]))
                best = j;
        if (!before(heap_[best], last))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = last;
    return fn;
}

inline void
Simulator::fire(std::uintptr_t fn)
{
    ++eventsExecuted_;
    if (fn & 1) {
        EventFn *closure = closureAt(fn);
        closure->invokeAndReset(); // leaves nothing to destroy
        Pool::instance().deallocate(closure);
    } else {
        std::coroutine_handle<>::from_address(reinterpret_cast<void *>(fn))
            .resume();
    }
}

void
Simulator::runLoop(Tick deadline)
{
    // A heap entry due at now() was scheduled while the clock was
    // still behind now(), so it precedes every ready-ring entry (each
    // made at now()) in (when, seq) order and fires first.
    while (!stopped_) {
        if (!heap_.empty() && heap_.front().when <= deadline &&
            (heap_.front().when <= now_ || ready_.empty())) {
            now_ = heap_.front().when;
            fire(popMin());
        } else if (!ready_.empty()) {
            fire(ready_.pop_front());
        } else {
            return;
        }
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
    if (!stopped_ && now_ < deadline)
        now_ = deadline; // every pending event is > deadline
    return now_;
}

} // namespace lynx::sim
