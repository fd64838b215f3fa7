"""One pass of a workload in a fresh process (started by run.py).

Once relkit is imported and the query list is built, prints ``ready``, the
monotonic clock, which is system-wide, so the parent can compute the set-up
time, and the host's speed right after set-up (hostspeed.spot_rate), with
which the parent corrects it.  Then runs every query once, one at a time,
checks each output outside the timed call, samples the host's speed with
hostspeed.py throughout, and writes the per-query results to the file named
by --out.  With --trace the relkit layers are wrapped first and the
per-layer metrics are written too.  With --setup-only it exits right after
``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def classify(q, outcome):
    """(status, reason).  The status is ok, wrong (an answer is wrong),
    crash (the call raised or printed a traceback) or known_defect (it
    failed exactly as workloads.KNOWN_DEFECTS pins)."""
    import workloads

    if outcome.crashed():
        text = outcome.failure()
        last = text.splitlines()[-1]
        pinned = workloads.KNOWN_DEFECTS.get(q.qid)
        if pinned and pinned[0] in text and last == pinned[1]:
            return "known_defect", last
        return "crash", last
    try:
        reason = q.check(outcome)
    except Exception as exc:  # a malformed output is a wrong answer
        reason = f"check raised {type(exc).__name__}: {exc}"
    return ("ok" if reason is None else "wrong"), reason


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import relkit

    if os.path.dirname(os.path.abspath(relkit.__file__)) != os.path.join(SRC, "relkit"):
        print(f"passrun: relkit imported from {relkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostspeed
    import workloads

    queries = workloads.build(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    print("ready", repr(ready), repr(hostspeed.spot_rate()), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    results = []
    report_bytes = 0
    clock = time.perf_counter
    sampler = hostspeed.Sampler()
    sampler.start()
    spans = []  # (start, end) of each query on the clock the sampler uses
    for q in queries:
        if tracer:
            tracer.begin_query(q.qid)
        t0 = clock()
        outcome = q.call()
        t1 = clock()
        seconds = t1 - t0
        spans.append((t0, t1))
        if tracer:
            tracer.end_query()
        with tracer.pause() if tracer else contextlib.nullcontext():
            report_bytes += len(outcome.out.encode())
            status, reason = classify(q, outcome)
            results.append(
                {
                    "id": q.qid,
                    "seconds": seconds,
                    "status": status,
                    "reason": reason,
                    "digest": workloads.digest(outcome),
                }
            )
    sampler.stop()
    for result, (t0, t1) in zip(results, spans):
        # the query's time counted in runs of the reference kernel
        result["ref_runs"] = (t1 - t0) * sampler.rate(t0, t1)

    out = {
        "queries": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        out["layers"] = layers.metrics(tracer, report_bytes)
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
