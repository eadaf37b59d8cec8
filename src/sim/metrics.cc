#include "metrics.hh"

#include <algorithm>
#include <ostream>

namespace lynx::sim {

std::string
MetricsRegistry::add(const std::string &path, const StatSet &stats)
{
    std::string unique = path;
    int suffix = 2;
    auto taken = [&](const std::string &p) {
        return std::any_of(entries_.begin(), entries_.end(),
                           [&](const Entry &e) { return e.path == p; });
    };
    while (taken(unique))
        unique = path + "#" + std::to_string(suffix++);
    entries_.push_back(Entry{unique, &stats});
    return unique;
}

void
MetricsRegistry::remove(const StatSet &stats)
{
    std::erase_if(entries_,
                  [&](const Entry &e) { return e.stats == &stats; });
}

std::vector<std::pair<std::string, const StatSet *>>
MetricsRegistry::entries() const
{
    std::vector<std::pair<std::string, const StatSet *>> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.emplace_back(e.path, e.stats);
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

std::uint64_t
MetricsRegistry::aggregateCounter(const std::string &prefix,
                                  const std::string &name) const
{
    std::uint64_t total = 0;
    for (const Entry &e : entries_)
        if (e.path.starts_with(prefix))
            total += e.stats->counterValue(name);
    return total;
}

void
MetricsRegistry::dump(std::ostream &os) const
{
    for (const auto &[path, stats] : entries())
        stats->dump(os, path + ".");
}

namespace {

/** Escape a string for inclusion in a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Emit one "path":{counters, histograms} JSON object member. */
void
jsonStatSet(std::ostream &os, const std::string &path, const StatSet &stats)
{
    os << "\"" << jsonEscape(path) << "\":{\"counters\":{";
    bool first = true;
    for (const auto &[name, counter] : stats.counters()) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":" << counter.value();
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, hist] : stats.histograms()) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":{\"count\":" << hist.count()
           << ",\"min\":" << hist.min() << ",\"max\":" << hist.max()
           << ",\"mean\":" << hist.mean()
           << ",\"p50\":" << hist.percentile(50)
           << ",\"p99\":" << hist.percentile(99) << "}";
    }
    os << "}}";
}

} // namespace

void
MetricsRegistry::json(std::ostream &os) const
{
    os << "{";
    bool firstSet = true;
    for (const auto &[path, stats] : entries()) {
        if (!firstSet)
            os << ",";
        firstSet = false;
        jsonStatSet(os, path, *stats);
    }
    os << "}\n";
}

} // namespace lynx::sim
