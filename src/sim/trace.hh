/**
 * @file
 * Category-gated debug tracing (gem5's DPRINTF, in spirit).
 *
 * Models call LYNX_TRACE(sim, "mqueue", "pushed seq ", seq); nothing
 * is formatted or printed unless the category was enabled, and while
 * no category is enabled a call costs one load and one branch (no
 * string, no lookup). Categories are enabled either
 * programmatically (sim::TraceControl::enable) or via the
 * LYNX_TRACE environment variable:
 *
 *     LYNX_TRACE=mqueue,rdma ./build/examples/quickstart
 *     LYNX_TRACE=all         ctest ...
 *
 * Lines carry the simulated timestamp:  [  123456ns] mqueue: ...
 */

#ifndef LYNX_SIM_TRACE_HH
#define LYNX_SIM_TRACE_HH

#include <string>
#include <vector>

#include "logging.hh"
#include "simulator.hh"

namespace lynx::sim {

/** Global trace-category switchboard. */
class TraceControl
{
  public:
    /** @return whether @p category is enabled. */
    static bool enabled(const std::string &category);

    /** Enable/disable @p category at runtime (tests). */
    static void enable(const std::string &category);
    static void disable(const std::string &category);

    /** Drop every programmatic enable (environment settings stay). */
    static void reset();

    /**
     * Parse a comma-separated category list as the LYNX_TRACE
     * environment variable does: whitespace around tokens is ignored
     * ("mqueue, rdma" enables both) and empty tokens are dropped.
     * Exposed so the env-parsing path is unit-testable.
     */
    static std::vector<std::string> parseCategories(const std::string &list);

    /** Emit one trace line (used by the macro; category pre-checked). */
    static void emit(Tick now, const std::string &category,
                     const std::string &message);

    /** @return false when no category is enabled: the inline guard
     *  LYNX_TRACE checks before anything else. */
    static bool anyEnabled() { return anyEnabled_ != 0; }

  private:
    /** Recompute anyEnabled_ from the switchboard. */
    static void syncAnyEnabled();

    /** 0 = no category enabled, 1 = some, -1 = the environment has not
     *  been read yet (the first enabled() call reads it). Constant-
     *  initialized, so it holds before any static constructor runs. */
    static inline signed char anyEnabled_ = -1;
};

/** Trace @p ... under @p category with @p simulator's timestamp. */
#define LYNX_TRACE(simulator, category, ...)                                 \
    do {                                                                     \
        if (::lynx::sim::TraceControl::anyEnabled() &&                       \
            ::lynx::sim::TraceControl::enabled(category)) {                  \
            ::lynx::sim::TraceControl::emit(                                 \
                (simulator).now(), category,                                 \
                ::lynx::sim::detail::concat(__VA_ARGS__));                   \
        }                                                                    \
    } while (0)

} // namespace lynx::sim

#endif // LYNX_SIM_TRACE_HH
