"""Tests of how the benchmark classifies query outcomes and samples the
host's speed.

    python3 -m pytest perfbench/test_checks.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import passrun  # noqa: E402
import workloads  # noqa: E402

PINNED = "verify:free_algebra_lattice2"
DEFECT_TRACEBACK = (
    "Traceback (most recent call last):\n"
    '  File "cli.py", line 440, in _verify_free_algebra\n'
    '    stored = [int(t, 16) for t in el["table"]]\n'
    "TypeError: int() can't convert non-string with explicit base\n"
)


def query(qid):
    return workloads.Query(qid, call=None, check=lambda outcome: None)


def test_only_the_pinned_failure_is_a_known_defect():
    crash = workloads.Outcome(error=DEFECT_TRACEBACK)
    assert passrun.classify(query(PINNED), crash)[0] == "known_defect"
    # the same crash elsewhere, or another crash where it is pinned, is not
    assert passrun.classify(query("free_algebra_lattice2"), crash)[0] == "crash"
    other = workloads.Outcome(error="Traceback ...\nKeyError: 'table'\n")
    assert passrun.classify(query(PINNED), other)[0] == "crash"
    printed = workloads.Outcome(value=1, err=DEFECT_TRACEBACK.replace("int(t, 16)", "int(t)"))
    assert passrun.classify(query(PINNED), printed)[0] == "crash"


def test_a_pinned_query_that_passes_is_ok_and_one_that_fails_otherwise_is_wrong():
    ok = workloads.Query(PINNED, call=None, check=lambda outcome: None)
    assert passrun.classify(ok, workloads.Outcome(value=0)) == ("ok", None)
    wrong = workloads.Query(PINNED, call=None, check=lambda outcome: "exit code 1, expected 0")
    assert passrun.classify(wrong, workloads.Outcome(value=1))[0] == "wrong"


def test_sampled_rate_uses_the_samples_in_the_window_or_its_neighbours():
    sampler = hostspeed.Sampler()
    sampler.times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    sampler.seconds = [0.5, 0.5, 0.25, 0.25, 0.25, 0.5]
    assert sampler.rate(1.5, 4.5) == 4.0  # three samples at 4 runs/s
    # a short query with no sample of its own widens to its neighbours
    assert sampler.rate(1.2, 1.3) == (2 + 2 + 4 + 4) / 4
    assert sampler.rate(-1.0, -0.5) == (2 + 2 + 4) / 3
