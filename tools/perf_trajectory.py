#!/usr/bin/env python3
"""Record one point of the perf trajectory and gate it against the last ones.

    python3 tools/perf_trajectory.py [--note TEXT]

Runs `python3 bench/perf/run.py` on every workload of BENCHMARK.json at
seeds 1 and 97, three times each, for BENCHMARK.json's run_seconds, so
that every line of the trajectory is sampled alike. It appends one JSON
line per workload and seed to bench/trajectory/lynx_bench.jsonl. A line
holds:

  - the median, min and max of every host metric (host rate, set-up
    time, memory), which spread from run to run;
  - the exact simulated (`sim_*`) metrics, which must repeat bit for
    bit across the repetitions;
  - the host: cores, compiler, build type, and the git SHA (with
    "-dirty" when tracked files differ from it).

Each end-to-end metric is compared with the earlier lines for the same
workload and seed: a host metric with the median of the last three
(one lucky or unlucky point then neither blocks nor excuses a change),
a simulated metric with the last line (it is exact, so any change is
real). The script prints each change and exits non-zero when a run
fails a self-check, a simulated metric does not repeat, or an
end-to-end metric is worse than its baseline by more than its
BENCHMARK.json bound. Such a point is not appended, so the file holds
only points that passed and a regression keeps failing until it is
fixed. The CMake target `perf` runs the script.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "perf", "run.py")
# run.py's lynx_bench writes its full report here; the host block
# (compiler, build type) is read from it.
REPORT = os.path.join(ROOT, "build", "perf", "lynx_bench.json")
TRAJECTORY = os.path.join(ROOT, "bench", "trajectory", "lynx_bench.jsonl")
SEEDS = (1, 97)
REPS = 3
# A host metric is gated against the median of this many earlier lines.
BASELINE_LINES = 3


def is_host_metric(name):
    """Host metrics spread between runs; the rest are simulated and
    deterministic for a seed."""
    return not name.startswith("sim_") or "host" in name


def git_sha():
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True).stdout.strip()
    sha = git("rev-parse", "--short=12", "HEAD") or "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no", "--",
                ".", ":!bench/trajectory")
    return sha + ("-dirty" if dirty else "")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perf_trajectory: run.py printed nothing for {workload} "
                 f"seed {seed} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["ok"] = proc.returncode == 0 and result["correct"]
    with open(REPORT) as f:
        result["host"] = json.load(f)["host"]
    return result


def record(workload, seed, seconds, note):
    runs = [run_once(workload, seed, seconds) for _ in range(REPS)]
    names = list(runs[0]["metrics"])
    host_metrics, sim_metrics, problems = {}, {}, []
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        if is_host_metric(name):
            host_metrics[name] = {"median": statistics.median(values),
                                  "min": min(values), "max": max(values)}
        else:
            sim_metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between runs: {values}")
    if not all(r["ok"] for r in runs):
        problems.append("a run failed its self-checks")
    host = runs[0]["host"]
    line = {
        "workload": workload,
        "seed": seed,
        "reps": REPS,
        "seconds": seconds,
        "recorded": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": git_sha(),
        "host": {"cores": os.cpu_count(), "compiler": host["compiler"],
                 "build_type": host["build_type"]},
        "attempted": runs[0]["attempted"],
        "failed": max(r["failed"] for r in runs),
        "host_metrics": host_metrics,
        "sim_metrics": sim_metrics,
    }
    if note:
        line["note"] = note
    if line["failed"]:
        problems.append(f"{line['failed']} operations failed")
    return line, problems


def value_of(line, name):
    if name in line["host_metrics"]:
        return line["host_metrics"][name]["median"]
    return line["sim_metrics"].get(name)


def baseline(prior, name):
    """@return what @p name is gated against, given the earlier lines
    for the same workload and seed (oldest first), or None."""
    if is_host_metric(name):
        values = [v for v in (value_of(h, name)
                              for h in prior[-BASELINE_LINES:])
                  if v is not None]
        return statistics.median(values) if values else None
    return value_of(prior[-1], name) if prior else None


def compare(prior, line, bounds):
    """Print the change per metric against its baseline; @return the
    metrics past a bound."""
    past = []
    for name, (better, bound) in bounds.items():
        new = value_of(line, name)
        old = baseline(prior, name)
        if new is None:
            continue
        if old is None:
            print(f"    {name:<20} {new:>14.6g}")
            continue
        rel = (new - old) / old if old else 0.0
        worse = -rel if better == "higher" else rel
        flag = ""
        if worse > bound:
            flag = f"  PAST BOUND {bound:.0%}"
            past.append(name)
        print(f"    {name:<20} {old:>14.6g} -> {new:>14.6g}  {rel:+8.2%}{flag}")
    return past


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--note", default="",
                   help="free text stored with each line")
    args = p.parse_args()

    bounds = {m["name"]: (m["better"], m["bound"])
              for m in bench["end_to_end"]}
    history = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as f:
            history = [json.loads(l) for l in f if l.strip()]

    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            line, problems = record(workload, seed, bench["run_seconds"],
                                    args.note)
            prior = [h for h in history
                     if h["workload"] == workload and h["seed"] == seed]
            print(f"{workload} seed {seed} ({line['git_sha']}"
                  + (" vs " + ", ".join(h["git_sha"]
                                        for h in prior[-BASELINE_LINES:])
                     if prior else ", first line")
                  + ")")
            problems += [f"{m} past its bound"
                         for m in compare(prior, line, bounds)]
            failures += [f"{workload} seed {seed}: {m}" for m in problems]
            if problems:
                print("    not recorded")
                continue
            history.append(line)
            os.makedirs(os.path.dirname(TRAJECTORY), exist_ok=True)
            with open(TRAJECTORY, "a") as f:
                f.write(json.dumps(line, sort_keys=True) + "\n")
    for f in failures:
        print("FAIL:", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
