#include "trace.hh"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

namespace lynx::sim {

namespace {

struct State
{
    std::set<std::string> categories;
    bool all = false;

    State()
    {
        const char *env = std::getenv("LYNX_TRACE");
        if (!env)
            return;
        for (const std::string &item : TraceControl::parseCategories(env)) {
            if (item == "all")
                all = true;
            else
                categories.insert(item);
        }
    }
};

State &
state()
{
    static State s;
    return s;
}

State
envOnly()
{
    return State();
}

} // namespace

std::vector<std::string>
TraceControl::parseCategories(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        // "mqueue, rdma" must enable both: strip surrounding blanks
        // before matching (an untrimmed " rdma" never matches "rdma").
        const auto from = item.find_first_not_of(" \t");
        if (from == std::string::npos)
            continue;
        const auto to = item.find_last_not_of(" \t");
        out.push_back(item.substr(from, to - from + 1));
    }
    return out;
}

void
TraceControl::syncAnyEnabled()
{
    const State &s = state();
    anyEnabled_ = s.all || !s.categories.empty() ? 1 : 0;
}

bool
TraceControl::enabled(const std::string &category)
{
    if (anyEnabled_ < 0)
        syncAnyEnabled();
    const State &s = state();
    return s.all || s.categories.contains(category);
}

void
TraceControl::enable(const std::string &category)
{
    if (category == "all")
        state().all = true;
    else
        state().categories.insert(category);
    syncAnyEnabled();
}

void
TraceControl::disable(const std::string &category)
{
    if (category == "all")
        state().all = false;
    else
        state().categories.erase(category);
    syncAnyEnabled();
}

void
TraceControl::reset()
{
    state() = envOnly();
    syncAnyEnabled();
}

void
TraceControl::emit(Tick now, const std::string &category,
                   const std::string &message)
{
    std::fprintf(stderr, "[%10lluns] %s: %s\n",
                 static_cast<unsigned long long>(now), category.c_str(),
                 message.c_str());
}

} // namespace lynx::sim
