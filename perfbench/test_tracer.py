"""Tests of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracer.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import relkit  # noqa: E402
import relkit.cli  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def work(seconds):
        clock.now += seconds

    leaf = tr.wrap("leaf", lambda: work(2))
    hot = tr.wrap("hot", lambda: work(1), hot=True)

    def mid_body():
        work(1)
        leaf()
        hot()
        work(3)

    mid = tr.wrap("mid", mid_body)

    def top_body():
        work(5)
        mid()
        leaf()

    top = tr.wrap("top", top_body)
    tr.begin_query("q1")
    top()
    tr.end_query()

    assert dict(tr.calls) == {"leaf": 2, "hot": 1, "mid": 1, "top": 1}
    assert tr.total_s["mid"] == 7 and tr.total_s["top"] == 14
    # self time: span duration minus the durations of the spans directly inside
    assert tr.self_s["leaf"] == 4
    assert tr.self_s["hot"] == 1
    assert tr.self_s["mid"] == 7 - 2 - 1
    assert tr.self_s["top"] == 14 - 7 - 2
    assert sum(tr.self_s.values()) == 14  # self times partition the root span

    # hot calls leave no span record; the others name their parent and query
    spans = {(name, start): (end, parent, query) for _, name, start, end, parent, query in tr.spans}
    ids = {name: sid for sid, name, *_ in tr.spans}
    assert len(tr.spans) == 4
    assert spans[("top", 0)] == (14, None, "q1")
    assert spans[("mid", 5)] == (12, ids["top"], "q1")
    assert spans[("leaf", 6)] == (8, ids["mid"], "q1")
    assert spans[("leaf", 12)] == (14, ids["top"], "q1")


def test_paused_calls_are_not_recorded():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    f = tr.wrap("f", lambda: 7)
    with tr.pause():
        assert f() == 7
    assert tr.calls["f"] == 0 and not tr.spans


def test_repeat_fraction_counts_within_a_query():
    tr = Tracer()
    tr.begin_query("a")
    assert tr.note_key("enum", ("alg", "congruence")) is False
    assert tr.note_key("enum", ("alg", "congruence")) is True
    assert tr.note_key("enum", ("alg", "tolerance")) is False
    tr.begin_query("b")  # keys seen in an earlier query do not repeat
    assert tr.note_key("enum", ("alg", "congruence")) is False
    assert tr.repeat_frac("enum") == 1 / 4
    assert tr.repeat_frac("never") == 0.0


def test_layer_repeat_fractions_on_relkit_calls():
    tr = Tracer()
    layers.install(tr)
    try:
        lat = relkit.resolve("lattice2")
        tr.begin_query("twice")
        relkit.enumerate_relations(lat, "congruence")
        relkit.enumerate_relations(relkit.resolve("lattice2"), "congruence")  # same fingerprint
        relkit.enumerate_relations(lat, "congruence", method="generated")
        relkit.admissible_closure(lat, [(0, 1)])
        relkit.admissible_closure(lat, relkit.BinRel.from_pairs(2, [(0, 1)]))  # same seed mask
        tr.begin_query("once")
        relkit.enumerate_relations(lat, "congruence")
        tr.end_query()
    finally:
        tr.uninstall()
    assert tr.calls[layers.ENUM] == 4
    assert tr.repeat_frac(layers.ENUM) == 1 / 4
    closures = tr.counters["relations.closure.calls"]
    assert closures >= 2 and tr.counters["relations.closure.repeats"] >= 1
    assert not hasattr(relkit.relations.enumerate_relations, "__wrapped__")


CLI_QUERIES = [
    ["check", "lattice2", "cdist2", "--h", "2", "--json"],
    ["check", "z2cube", "cdist3", "--k", "2", "--json"],
    ["check", "lattice_2x2", "uadm:s ; s == s", "--json"],
    ["check", "baker4", "maj3", "--json"],
    ["congruences", "z2cube", "--json"],
    ["find-terms", "lattice2", "jonsson", "--json"],
    ["find-terms", "lattice2", "vr", "--h", "2", "--json"],
    ["free-algebra", "lattice2", "--json"],
]


def _library_results():
    z2, lat = relkit.resolve("z2"), relkit.resolve("lattice2")
    free_z2 = relkit.clone_as_algebra(relkit.generate_clone(z2, 3))
    cdist2 = relkit.builtin("cdist2", h=2)
    return [
        relkit.check_for_all(relkit.resolve("z2cube"), relkit.builtin("cor1")),
        relkit.check_for_all(free_z2, cdist2, strategy="principal"),
        relkit.free_seed_verdict(free_z2, cdist2),
        relkit.enumerate_relations(lat, "reflexive_admissible"),
        relkit.generate_clone(lat, 3),
    ]


def _outputs():
    cli = [workloads.run_cli(relkit.cli, argv) for argv in CLI_QUERIES]
    lib = [workloads.Outcome(value=v) for v in _library_results()]
    return [(o.value, o.out, o.err, o.error) for o in cli], [workloads.digest(o) for o in lib]


def test_traced_outputs_match_untraced():
    plain_cli, plain_lib = _outputs()
    tr = Tracer()
    layers.install(tr)
    try:
        traced_cli, traced_lib = _outputs()
    finally:
        tr.uninstall()
    assert all(o[3] is None for o in plain_cli)
    assert traced_cli == plain_cli  # exit codes and --json reports, byte for byte
    assert traced_lib == plain_lib  # library verdicts and results
    assert tr.calls["cli.main"] == len(CLI_QUERIES)
    assert tr.calls["identities.check_for_all"] >= 2
    assert tr.calls["relations.compose"] > 0 and tr.calls["uadmissible.UAdmRel"] > 0
    metrics = layers.metrics(tr, report_bytes=1)
    assert set(metrics) | {"trace.overhead_frac"} == set(layers.METRICS)
    # uninstall restored every binding
    assert not hasattr(relkit.cli.main, "__wrapped__")
    assert not hasattr(relkit.identities.compose, "__wrapped__")
    assert not hasattr(relkit.relations.BinRel.pairs, "__wrapped__")
