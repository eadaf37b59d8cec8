#include "simulator.hh"

namespace lynx::sim {

namespace {

/** Heap capacity reserved up front, so a steady state whose near heap
 *  never held this many entries never grows it mid-run. */
constexpr std::size_t kReservedKeys = 64;

} // namespace

Simulator::Simulator()
{
    // Construct the Pool first, so it is destroyed after every
    // simulator, namespace-scope ones included (see Pool::instance).
    Pool::instance();
    near_.reserve(kReservedKeys);
    far_.reserve(kReservedKeys);
    metrics_.add("sim.engine", engine_);
}

Simulator::~Simulator()
{
    // Drop pending events without firing them, then destroy any task
    // coroutines that are still suspended (e.g. server loops parked on
    // a channel). Destruction order matters: no coroutine may be
    // resumed past this point, only destroyed.
    tearingDown_ = true;
    for (const std::vector<Key> *heap : {&near_, &far_})
        for (const Key &k : *heap)
            dropClosure(k.fn);
    while (!ready_.empty())
        dropClosure(ready_.pop_front());
    near_.clear();
    far_.clear();
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
Simulator::popMin(std::vector<Key> &heap)
{
    const std::uintptr_t fn = heap.front().fn;
    const Key last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
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
            if (before(heap[j], heap[best]))
                best = j;
        if (!before(heap[best], last))
            break;
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = last;
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
    // The calendar's minimum is the smaller of the two heap tops by
    // (when, seq). A heap entry due at now() was scheduled while the
    // clock was still behind now(), so it precedes every ready-ring
    // entry (each made at now()) in (when, seq) order and fires first.
    while (!stopped_) {
        std::vector<Key> &heap =
            !far_.empty() && (near_.empty() ||
                              before(far_.front(), near_.front()))
                ? far_
                : near_;
        if (!heap.empty() && heap.front().when <= deadline &&
            (heap.front().when <= now_ || ready_.empty())) {
            now_ = heap.front().when;
            fire(popMin(heap));
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
