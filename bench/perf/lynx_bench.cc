/**
 * @file
 * lynx_bench: the repository's performance benchmark. It measures two
 * clocks on five paper-grounded workloads: how fast the simulator runs
 * (host seconds per simulated request, set-up time, memory) and what
 * the simulated Lynx deployment delivers (throughput, p50/p99/p99.9).
 * See README.md for the metrics, workloads and bounds.
 *
 *     lynx_bench [--workload NAME] [--seed N] [--seconds S]
 *                [--trace DIR] [--out FILE]
 *
 * Each workload runs in its own child process, serially, on the
 * serial engine and one host thread. Every metric is printed as
 * `workload metric value unit` and all of them are written to FILE
 * (default lynx_bench.json) with the host's description. With
 * --trace, each workload also runs once traced and writes
 * DIR/<workload>.{layers,metrics,trace}.json. The exit code is
 * non-zero if any self-check fails.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hh"

using namespace lynxperf;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr double kDefaultSeconds = 12;

struct Options
{
    std::vector<const Workload *> selected;
    std::uint64_t seed = kDefaultSeed;
    double seconds = kDefaultSeconds;
    std::string traceDir;
    std::string out = "lynx_bench.json";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "lynx_bench: %s\nusage: lynx_bench [--workload NAME] "
                 "[--seed N] [--seconds S] [--trace DIR] [--out FILE]\n"
                 "workloads:",
                 msg);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.selected.clear();
            for (const Workload &w : workloads())
                if (std::strcmp(w.name, val) == 0)
                    o.selected.push_back(&w);
            if (o.selected.empty())
                usage(("unknown workload " + std::string(val)).c_str());
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val, &end, 10);
            if (*val == '\0' || *end != '\0')
                usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val, &end);
            if (*val == '\0' || *end != '\0' || !(o.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            o.traceDir = val;
        } else if (arg == "--out") {
            o.out = val;
        } else {
            usage(("unknown flag " + arg).c_str());
        }
    }
    if (o.selected.empty())
        for (const Workload &w : workloads())
            o.selected.push_back(&w);
    return o;
}

std::string
compiler()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** @return the checkout's commit, or "unknown" outside a git clone.
 *  The git directory is named explicitly so git never searches above
 *  the checkout. */
std::string
gitSha()
{
    std::string cmd = "git --git-dir='" LYNX_PERF_ROOT
                      "/.git' rev-parse --short=12 HEAD 2>/dev/null";
    std::FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return "unknown";
    char buf[64] = {};
    bool got = std::fgets(buf, sizeof buf, p) != nullptr;
    int status = pclose(p);
    std::string sha = buf;
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return got && status == 0 && !sha.empty() ? sha : "unknown";
}

void
printReport(const Report &r)
{
    for (const auto *set : {&r.endToEnd, &r.layers})
        for (const Metric &m : *set)
            std::printf("%s %s %.10g %s\n", r.workload.c_str(),
                        m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s reps %d sim_window_s %g attempted %llu failed %llu "
                "correct %s\n",
                r.workload.c_str(), r.reps, r.windowS,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.correct ? "yes" : "NO");
    for (const std::string &v : r.violations)
        std::printf("%s VIOLATION: %s\n", r.workload.c_str(), v.c_str());
    std::fflush(stdout);
}

/**
 * Run @p w in a child process. @return its report as JSON; a child
 * that dies without reporting yields a failed report.
 */
std::string
runChild(const Workload &w, const Options &o, bool &ok)
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(1);
    }
    std::fflush(stdout);
    pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0) {
        close(fds[0]);
        Report r = measure(w, o.seed, o.seconds, o.traceDir);
        printReport(r);
        std::string json = toJson(r);
        std::size_t off = 0;
        while (off < json.size()) {
            ssize_t n = write(fds[1], json.data() + off, json.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                _exit(1);
            off += static_cast<std::size_t>(n);
        }
        close(fds[1]);
        _exit(r.correct ? 0 : 1);
    }
    close(fds[1]);
    std::string json;
    char buf[4096];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        json.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    bool exited = WIFEXITED(status);
    ok = exited && WEXITSTATUS(status) == 0;
    if (json.empty()) {
        std::string why =
            exited ? "exit code " + std::to_string(WEXITSTATUS(status))
                   : "signal " + std::to_string(WTERMSIG(status));
        std::printf("%s VIOLATION: workload process died (%s)\n", w.name,
                    why.c_str());
        Report dead;
        dead.workload = w.name;
        dead.correct = false;
        dead.violations.push_back("workload process died (" + why + ")");
        json = toJson(dead);
        ok = false;
    }
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    if (!o.traceDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(o.traceDir, ec);
        if (ec)
            usage(("cannot create " + o.traceDir).c_str());
    }

    std::string json = "{\"host\":{\"nproc\":" +
                       std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                       ",\"compiler\":\"" + compiler() +
                       "\",\"build_type\":\"" LYNX_PERF_BUILD_TYPE
                       "\",\"git_sha\":\"" + gitSha() + "\"}" +
                       ",\"seed\":" + std::to_string(o.seed) +
                       ",\"seconds\":" + std::to_string(o.seconds) +
                       ",\"traced\":" + (o.traceDir.empty() ? "false"
                                                            : "true") +
                       ",\"workloads\":{";
    bool allOk = true;
    for (std::size_t i = 0; i < o.selected.size(); ++i) {
        bool ok = false;
        std::string report = runChild(*o.selected[i], o, ok);
        allOk = allOk && ok;
        json += (i ? ",\"" : "\"") + std::string(o.selected[i]->name) +
                "\":" + report;
    }
    json += "}}\n";

    std::ofstream out(o.out);
    out << json;
    if (!out.good()) {
        std::fprintf(stderr, "lynx_bench: cannot write %s\n", o.out.c_str());
        return 1;
    }
    return allOk ? 0 : 1;
}
