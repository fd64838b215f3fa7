"""relkit benchmark: one closed-loop client per workload, one query at a time.

    python3 perfbench/run.py --workload check --seed 1 --seconds 36 --trace 0

Workloads (perfbench/workloads.py): ``check`` (quantified identity checks
through the CLI), ``free`` (the free principle through the library) and
``terms`` (term searches and clone dumps through the CLI).

Every pass runs the whole seeded query list once in a fresh process, with no
warm-up, because CLI users pay cold costs on every call.  Passes repeat while
another one fits in --seconds (at least one runs).  Each query's output is
checked outside its timed call.

--trace 0 prints the end-to-end metrics: wall_ref (time to answer the list
once, each query's time counted in runs of hostspeed.py's reference kernel
at the speed sampled during the query) and peak_rss_mb, each the median
over passes, and setup_s (process start until the query list is ready:
interpreter, ``import relkit``, fixtures, seeded inputs, in seconds at the
reference speed of hostspeed.py), the median over the passes and nine
setup-only processes, half of which run before the passes and half after.
It also prints, outside the result line, wall_s (the same time in
seconds), query_p50_s and query_tail_s (per-query time at the median and at
the highest percentile with at least 10 queries above it) and the error
rate, which is failed / attempted.

--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of perfbench/layers.py, with trace.overhead_frac = traced wall_ref /
untraced wall_ref - 1.  Both passes must give identical outputs.  The spans go
to .perfbench_out/spans-<workload>-<seed>.jsonl, and every run leaves its
per-query times in .perfbench_out/queries-<workload>-<seed>-trace<0|1>.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``failed`` counts queries that raised, printed a traceback or gave
a wrong answer (a verdict, count, exit code or witness).  ``correct`` is
false when any query failed, except the known defects that
workloads.KNOWN_DEFECTS pins, each failing exactly as pinned, or when the
traced outputs differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 9  # setup-only processes per run, besides the passes
DEADLINE_S = 170.0  # a run must end within 180 s
WORKLOADS = ("check", "free", "terms")
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed, but not in BENCHMARK.json.  wall_s follows the host's speed, which
# drifts by up to 1.5x for seconds to minutes at a time; wall_ref divides
# that out.
# The other two each rest on one or a few queries of a few milliseconds,
# whose times jump up to 2x between runs on a noisy host.
PRINTED_ONLY = {"wall_s": "s", "query_p50_s": "s", "query_tail_s": "s"}
TAIL_ABOVE = 10  # queries that must lie above the tail percentile


class BenchError(Exception):
    pass


class Runner:
    """Starts pass processes and keeps the run inside its deadline."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("RELKIT_CAPS", None)
        self.count = 0

    def spawn(self, *extra):
        """Run passrun.py; returns (setup seconds at the reference speed,
        lifetime seconds, result)."""
        self.count += 1
        tag = f"pass{self.count}"
        qdir = os.path.join(self.workdir, tag)
        os.makedirs(qdir)
        out = os.path.join(self.workdir, tag + ".json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "passrun.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--workdir", qdir,
            "--out", out,
            *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a pass could start")
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"a pass of {self.workload} did not end within the run deadline")
        lifetime = time.monotonic() - start
        lines = stdout.split()
        if proc.returncode != 0 or len(lines) < 3 or lines[0] != "ready":
            raise BenchError(f"pass process failed with exit code {proc.returncode}")
        # the set-up time scaled to the reference speed by the host's speed
        # the process saw right after set-up
        setup = (float(lines[1]) - start) * float(lines[2]) * hostspeed.REF_KERNEL_S
        result = None
        if "--setup-only" not in extra:
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
        shutil.rmtree(qdir)
        return setup, lifetime, result


def _quantile_above(times, above):
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - 1 - above)]


def pass_metrics(result) -> dict:
    times = [q["seconds"] for q in result["queries"]]
    return {
        "wall_s": sum(times),
        "wall_ref": sum(q["ref_runs"] for q in result["queries"]),
        "query_p50_s": statistics.median(times),
        "query_tail_s": _quantile_above(times, TAIL_ABOVE),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def tally(passes):
    """(queries attempted, [(id, status, reason) of each failed query])."""
    queries = [q for p in passes for q in p["queries"]]
    return len(queries), [(q["id"], q["status"], q["reason"]) for q in queries if q["status"] != "ok"]


def untraced_run(runner, seconds):
    # the setup-only processes run half before and half after the passes, so
    # their median spans the run rather than one burst at its start
    before = [runner.spawn("--setup-only") for _ in range(SETUP_RUNS // 2)]
    setups = [setup for setup, _, _ in before]
    reserve = 2 * (SETUP_RUNS - len(before)) * max(lifetime for _, lifetime, _ in before)
    passes = []
    start = time.monotonic()
    while True:
        setup, lifetime, result = runner.spawn()
        setups.append(setup)
        passes.append(result)
        elapsed = time.monotonic() - start
        left = runner.deadline - time.monotonic() - reserve
        if elapsed + lifetime > seconds or left < 2 * lifetime:
            break
    setups += [runner.spawn("--setup-only")[0] for _ in range(SETUP_RUNS - len(before))]
    per_pass = [pass_metrics(p) for p in passes]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    values["setup_s"] = statistics.median(setups)
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    printed = {name: (values[name], unit) for name, unit in PRINTED_ONLY.items()}
    return passes, metrics, printed, [], len(passes[0]["queries"])


def traced_run(runner):
    import layers

    _, _, plain = runner.spawn()
    spans = os.path.join(OUT_DIR, f"spans-{runner.workload}-{runner.seed}.jsonl")
    _, _, traced = runner.spawn("--trace", "--spans", spans)
    mismatched = [
        a["id"] for a, b in zip(plain["queries"], traced["queries"]) if a["digest"] != b["digest"]
    ]
    if [q["id"] for q in plain["queries"]] != [q["id"] for q in traced["queries"]]:
        mismatched.append("query list")
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = (
        pass_metrics(traced)["wall_ref"] / pass_metrics(plain)["wall_ref"] - 1
    )
    metrics = {name: (values[name], unit) for name, unit in layers.METRICS.items()}
    return [plain, traced], metrics, {}, mismatched, len(plain["queries"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "relkit", "__init__.py")):
        print(f"run.py: no relkit sources under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    runner = Runner(args.workload, args.seed, workdir)
    try:
        if args.trace:
            passes, metrics, printed, mismatched, per_pass = traced_run(runner)
        else:
            passes, metrics, printed, mismatched, per_pass = untraced_run(runner, args.seconds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # per-query times and outcomes of every pass, for a reader who wants to
    # see where the time went
    with open(os.path.join(OUT_DIR, f"queries-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump([p["queries"] for p in passes], fh, indent=1)
    attempted, failures = tally(passes)
    unexpected = [f for f in failures if f[1] != "known_defect"]
    for qid, status, reason in failures:
        print(f"run.py: {status}: {qid}: {reason}", file=sys.stderr)
    for qid in mismatched:
        print(f"run.py: traced and untraced outputs differ: {qid}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  queries per pass {per_pass}")
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"  {name:<55} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<55} {len(failures) / attempted:>14.6g} ratio "
          f"({len(failures)} of {attempted} queries failed)")
    result = {
        "correct": not unexpected and not mismatched,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
