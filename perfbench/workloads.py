"""The three workloads: seeded query lists, each query with its output check.

A query is one ``relkit.cli.main(argv)`` call or one library call.  Its check
runs after the timed call and returns None, or the reason the output is
wrong.  Expected verdicts, exit codes and counts are pinned from the seed
commit; counts that have an independent oracle are recomputed by it.

Functions are looked up on their modules at call time, so the traced run
sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import oracles


@dataclass
class Outcome:
    value: Any = None  # library result, or the exit code of a CLI call
    out: str = ""
    err: str = ""
    error: str | None = None  # traceback of an exception the call raised

    def crashed(self) -> bool:
        return self.error is not None or "Traceback" in self.err

    def failure(self) -> str:
        """The traceback of a crashed call."""
        return (self.error or self.err).strip()


@dataclass
class Query:
    qid: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]
    report: str | None = None  # CLI report file the query writes


def run_cli(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    result = Outcome()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result.value = cli.main(argv)
        except SystemExit as exc:
            result.value = exc.code
        except Exception:
            result.error = traceback.format_exc()
    result.out, result.err = out.getvalue(), err.getvalue()
    return result


def run_lib(fn) -> Outcome:
    try:
        return Outcome(value=fn())
    except Exception:
        return Outcome(error=traceback.format_exc())


def digest(outcome: Outcome) -> str:
    """Fingerprint of a query's output, compared between traced and untraced
    runs.  Only the last traceback line counts: wrapper frames differ."""
    value = outcome.value
    if hasattr(value, "report_form"):
        value = value.report_form()
    elif hasattr(value, "elements") and hasattr(value, "matrix"):  # Clone
        value = [len(value), value.complete, hashlib.sha256(value.matrix().tobytes()).hexdigest()]
    elif hasattr(value, "fingerprint"):  # FiniteAlgebra
        value = value.fingerprint()
    elif hasattr(value, "mask"):  # BinRel
        value = value.mask
    elif hasattr(value, "relations"):  # EnumResult
        value = [value.kind, value.exhaustive, [r.mask for r in value.relations]]
    error = outcome.error.strip().splitlines()[-1] if outcome.error else None
    text = json.dumps([value, outcome.out, outcome.err, error], sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# shared checks


def _tables(alg):
    return alg.size, tuple((op.arity, op.table) for op in alg.ops)


def _member(alg, cls: str, value) -> bool:
    """Class membership from the definitions, without relkit's predicates."""
    size, ops = _tables(alg)
    ops = list(ops)

    def rel_ok(pairs, congruence=False, symmetric=False):
        s = set(pairs)
        if any((a, a) not in s for a in range(size)):
            return False
        if (symmetric or congruence) and any((b, a) not in s for a, b in s):
            return False
        if congruence and any((a, d) not in s for a, b in s for c, d in s if b == c):
            return False
        return oracles.is_compatible(size, ops, s)

    if cls in ("Congruence", "Tolerance", "ReflexiveAdmissible"):
        if not hasattr(value, "mask"):
            return False
        return rel_ok(value.pairs(), cls == "Congruence", cls == "Tolerance")
    comps = [c.pairs() for c in value.components]
    if cls in ("U2Admissible", "UnionOfTwoCongruences") and len(comps) > 2:
        return False
    return all(rel_ok(c, congruence=cls == "UnionOfTwoCongruences") for c in comps)


def _replay(rk, alg, spec, classes: dict, cex: dict) -> str | None:
    """A refutation replays: every value is in its class and the recorded
    pair separates the two sides."""
    for var, val in cex["assignment"].items():
        if not _member(alg, classes[var], val):
            return f"counterexample value for {var} is not a {classes[var]}"
    lhs, rhs, sat = rk.identities.evaluate(alg, spec, cex["assignment"])
    a, b = cex["pair"]
    if sat:
        return "counterexample satisfies the identity"
    if lhs.contains(a, b) and not rhs.contains(a, b):
        return None
    if spec.mode == "equality" and rhs.contains(a, b) and not lhs.contains(a, b):
        return None
    return f"pair {(a, b)} does not separate the two sides"


def _load_value(rk, n, form):
    if form["kind"] == "family":
        return rk.uadmissible.UAdmRel(
            [rk.relations.BinRel.from_pairs(n, [tuple(p) for p in c]) for c in form["components"]]
        )
    return rk.relations.BinRel.from_pairs(n, [tuple(p) for p in form["pairs"]])


def _json(outcome):
    try:
        return json.loads(outcome.out)
    except ValueError:
        return None


def _expect_code(outcome, code):
    if outcome.value != code:
        return f"exit code {outcome.value!r}, expected {code}"
    return None


def _check_report(rk, alg, holds, code):
    """Check a `relkit check --json` report: exit code, verdict, coverage,
    and a replay of its counterexample."""

    def check(outcome):
        bad = _expect_code(outcome, code)
        if bad:
            return bad
        report = _json(outcome)
        if report is None:
            return "no JSON report on stdout"
        result = report["result"]
        if (result["holds"], result["coverage"]) != (holds, "exhaustive"):
            return f"verdict {result['holds']}/{result['coverage']}, expected {holds}/exhaustive"
        if holds:
            return None
        block = report["spec"]
        if block["kind"] == "builtin":
            params = {k: tuple(v) if isinstance(v, list) else v for k, v in block["params"].items()}
            spec = rk.identities.builtin(block["name"], **params)
        else:
            spec = rk.parser.parse_spec(block["source"])
        cex = result["counterexample"]
        assignment = {v: _load_value(rk, alg.size, f) for v, f in cex["assignment"].items()}
        return _replay(rk, alg, spec, block["classes"], {"assignment": assignment, "pair": cex["pair"]})

    return check


def _check_verify(outcome):
    bad = _expect_code(outcome, 0)
    if bad:
        return bad
    return None if outcome.out.strip() == "verify: ok" else f"verify printed {outcome.out!r}"


def _with_verifies(queries, cli):
    """The queries, each report-writing one followed by a verify of its
    report.  Keeping the many short verify calls spread over the pass keeps
    the per-query statistics from resting on one few-second window."""
    out = []
    for q in queries:
        out.append(q)
        if q.report:
            argv = ["verify", q.report]
            out.append(Query(f"verify:{q.qid}", lambda a=argv: run_cli(cli, a), _check_verify))
    return out


def _interleave(long, short):
    """long[0], short[0], long[1], short[1], ...; the rest of either at the end."""
    out = []
    for i in range(max(len(long), len(short))):
        out += long[i : i + 1] + short[i : i + 1]
    return out


def _cli_adder(queries, cli, workdir):
    """add(qid, argv, check, report): append a CLI query run with --json;
    with report=True it also writes its report to a file, which a verify
    query replays later."""

    def add(qid, argv, check, report=True):
        path = os.path.join(workdir, qid + ".json") if report else None
        argv = argv + ["--json"] + (["--out", path] if report else [])
        queries.append(Query(qid, lambda: run_cli(cli, argv), check, report=path))

    return add


def _masks(pairs_sets, n):
    return {sum(1 << (a * n + b) for a, b in s) for s in pairs_sets}


# ---------------------------------------------------------------------------
# check: quantified identity checks through the CLI

QUICK_CHECKS = (  # every one holds
    ("lattice2_cdist2", "lattice2", ["cdist2", "--h", "2"]),
    ("lattice2_maj3", "lattice2", ["maj3"]),
    ("lattice2_modular2", "lattice2", ["modular2", "--k", "2"]),
    ("lattice2_malIncl", "lattice2", ["malIncl", "--h", "2"]),
    ("lattice2_cor1", "lattice2", ["cor1"]),
    ("z2_cdist2", "z2", ["cdist2", "--h", "2"]),
    ("z2_maj3", "z2", ["maj3"]),
)


def _check_workload(rk, seed, workdir, fixtures):
    cli = rk.cli
    queries, quick = [], []
    add = _cli_adder(queries, cli, workdir)
    # quick checks print their reports only (as in the README); spread
    # between the others, they make the CLI's fixed cost per call visible in
    # query_p50_s
    add_quick = _cli_adder(quick, cli, workdir)

    def add_check(qid, alg_name, argv, holds, adder=add):
        check = _check_report(rk, fixtures[alg_name], holds, 0 if holds else 1)
        adder(qid, ["check", alg_name] + argv, check, adder is add)

    add_check("n5_cdist2_wide", "lattice_n5", ["cdist2", "--h", "2", "--no-narrow"], True)
    add_check(
        "baker4_u2", "baker4", ["baker4", "--classes", "sigma=u2,tau=u2,upsilon=u2"], True
    )
    for k in range(1, 7):
        add_check(f"z2cube_cdist3_k{k}", "z2cube", ["cdist3", "--k", str(k)], False)
    add_check("z2cube_cor1", "z2cube", ["cor1"], False)
    add_check("lattice_2x2_literal", "lattice_2x2", ["uadm:s ; s == s"], False)
    add_check("z2sq_cdist2", "z2^2", ["cdist2"], False)
    for qid, alg_name, argv in QUICK_CHECKS:
        add_check(qid, alg_name, argv, True, adder=add_quick)

    z2cube = fixtures["z2cube"]

    def check_congruences(outcome):
        bad = _expect_code(outcome, 0)
        if bad:
            return bad
        result = _json(outcome)["result"]
        got = _masks([[tuple(p) for p in c["pairs"]] for c in result["congruences"]], 8)
        oracle = _masks(oracles.compatible_partitions(*_tables(z2cube)), 8)
        if len(oracle) != 16 or got != oracle or result["count"] != 16 or not result["exhaustive"]:
            return f"{result['count']} congruences, oracle scan finds {len(oracle)}"
        return None

    add("congruences_z2cube", ["congruences", "z2cube"], check_congruences)

    def check_expansions(outcome):
        bad = _expect_code(outcome, 0)
        count = _json(outcome)["result"]["count"] if not bad else None
        return bad or (None if count == 4 else f"{count} expansions, expected 4")

    add_quick("expansions_malIncl", ["expansions", "malIncl", "--h", "2"], check_expansions, False)

    mainp_argv = ["search-mainp", "--seed", str(seed), "--count", "6", "--max-size", "4"]
    add("search_mainp", mainp_argv, _check_mainp(rk, seed, fixtures))

    n5 = fixtures["lattice_n5"]

    def check_n5_enum(outcome):
        res = outcome.value
        oracle = _masks(oracles.reflexive_subuniverses(*_tables(n5)), 5)
        got = {r.mask for r in res.relations}
        if len(oracle) != 25 or got != oracle or not res.exhaustive:
            return f"{len(got)} reflexive admissible relations, oracle finds {len(oracle)}"
        return None

    queries.append(
        Query(
            "n5_reflexive_filter",
            lambda: run_lib(lambda: rk.relations.enumerate_relations(n5, "reflexive_admissible")),
            check_n5_enum,
        )
    )
    return _interleave(_with_verifies(queries, cli), quick)


def _random_algebras(rk, seed, count, max_size):
    """The random algebras `search-mainp` draws, rebuilt from the seed."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        size = rng.randrange(2, max_size + 1)
        table = tuple(rng.randrange(size) for _ in range(size * size))
        out.append(rk.algebra.FiniteAlgebra(size, [("f", 2, table)], name=f"rnd{i}"))
    return out


def _check_mainp(rk, seed, fixtures):
    names = ("lattice2", "z2", "baker4", "lattice_2x2")

    def check(outcome):
        bad = _expect_code(outcome, 0)
        if bad:
            return bad
        rows = _json(outcome)["result"]["observations"]
        algs = [fixtures[n] for n in names] + _random_algebras(rk, seed, 6, 4)
        if [r["fingerprint"] for r in rows[::5]] != [a.fingerprint() for a in algs]:
            return "observed algebras are not the seeded ones"
        if len(rows) != 50 or any(r["coverage"] != "exhaustive" for r in rows):
            return "expected 50 exhaustive observations"
        by = {(r["algebra"], r["variant"]): r["holds"] for r in rows}
        for name in names:  # every builtin here holds on the fixtures
            if not all(h for (a, _), h in by.items() if a == name):
                return f"a fixture observation on {name} is not holds"
        for alg in algs:  # wider classes for theta can only refute more
            a = alg.name
            for narrow, wide in (
                ("cdist2(2)", "cdist2(2)[theta=adm]"),
                ("cdist2(2)[theta=adm]", "cdist2(2)[theta=uadm]"),
                ("modular2(2)", "modular2(2)[theta=adm]"),
            ):
                if by[(a, wide)] and not by[(a, narrow)]:
                    return f"{a}: {wide} holds but {narrow} does not"
        return None

    return check


# ---------------------------------------------------------------------------
# free: the free principle through the library API


FREE_VERDICTS = {  # (free-algebra size, cdist2 verdict, maj3 verdict)
    "lattice2": (18, True, True),
    "z2": (8, False, False),
    "baker4": (10, False, False),
    "lattice_2x2": (18, True, True),
}
N5_FREE_SIZE = 99
# Seeded probes: (function, random seed pairs).  Seeds this large make each
# probe's time steadier from seed to seed than one- or two-pair seeds do.
CLOSURE_PROBES = (
    ("admissible_closure", 16),
    ("admissible_closure", 16),
    ("tolerance_gen", 4),
    ("congruence_gen", 4),
)
# A fixed probe whose last closure rounds reach ~2000 pairs, where
# _image_mask builds its largest index arrays (one chunk of m^2 cells, about
# 110 MB here).  It sets the free workload's peak RSS, so peak_rss_mb does
# not hinge on whether some seeded probe happens to reach that size.
MEMORY_PROBE = ("admissible_closure", ((75, 4), (61, 31), (95, 51), (53, 85)))
PROBE_PREDICATES = {
    "admissible_closure": "is_reflexive_admissible",
    "tolerance_gen": "is_tolerance",
    "congruence_gen": "is_congruence",
}


def _free_workload(rk, seed, workdir, fixtures):
    queries = []
    state = {}
    specs = {"cdist2": rk.identities.builtin("cdist2", h=2), "maj3": rk.identities.builtin("maj3")}

    def lib(qid, fn, check, key=None):
        def call():
            outcome = run_lib(fn)
            if key is not None:
                state[key] = outcome.value
            return outcome

        queries.append(Query(qid, call, check))

    def check_clone(name, size, oracle):
        def check(outcome):
            clone = outcome.value
            if not clone.complete or len(clone) != size:
                return f"clone of {name} has {len(clone)} elements, expected {size}"
            if oracle is not None and {tuple(int(v) for v in e.table) for e in clone.elements} != oracle:
                return f"clone of {name} differs from its oracle"
            return None

        return check

    def check_algebra(name):
        def check(outcome):
            size = len(state[name + ".clone"])
            return None if outcome.value.size == size else f"F({name},3) has the wrong size"

        return check

    def check_seed(expected):
        def check(outcome):
            return None if outcome.value is expected else f"seed verdict {outcome.value}, expected {expected}"

        return check

    def check_principal(name, spec_name, expected):
        def check(outcome):
            v = outcome.value
            if (v.holds, v.coverage) != (expected, "exhaustive"):
                return f"principal verdict {v.holds}/{v.coverage}, expected {expected}/exhaustive"
            if state[f"{name}.{spec_name}.seed"] is not v.holds:
                return "principal and seed verdicts disagree"
            if v.holds:
                return None
            alg = state[name + ".free"]
            spec = specs[spec_name]
            classes = {k: c.value for k, c in spec.classes().items()}
            return _replay(rk, alg, spec, classes, v.counterexample)

        return check

    oracle_tables = {"lattice2": oracles.monotone_01_tables(3), "z2": oracles.gf2_span_tables(3)}
    for name, (size, *_) in FREE_VERDICTS.items():
        alg = fixtures[name]
        lib(f"{name}.generate_clone", lambda a=alg: rk.freeclone.generate_clone(a, 3),
            check_clone(name, size, oracle_tables.get(name)), key=name + ".clone")
        lib(f"{name}.clone_as_algebra", lambda n=name: rk.freeclone.clone_as_algebra(state[n + ".clone"]),
            check_algebra(name), key=name + ".free")
    # spec by spec, so the short queries on z2 and baker4 fall between the
    # long principal checks rather than in one stretch of the pass
    for i, (spec_name, spec) in enumerate(specs.items()):
        for name, (_, *verdicts) in FREE_VERDICTS.items():
            lib(f"{name}.{spec_name}.seed",
                lambda n=name, s=spec: rk.identities.free_seed_verdict(state[n + ".free"], s),
                check_seed(verdicts[i]), key=f"{name}.{spec_name}.seed")
            lib(f"{name}.{spec_name}.principal",
                lambda n=name, s=spec: rk.identities.check_for_all(state[n + ".free"], s, strategy="principal"),
                check_principal(name, spec_name, verdicts[i]))

    n5 = fixtures["lattice_n5"]
    lib("lattice_n5.generate_clone", lambda: rk.freeclone.generate_clone(n5, 3),
        check_clone("lattice_n5", N5_FREE_SIZE, None), key="lattice_n5.clone")
    lib("lattice_n5.clone_as_algebra",
        lambda: rk.freeclone.clone_as_algebra(state["lattice_n5.clone"]),
        check_algebra("lattice_n5"), key="lattice_n5.free")
    for spec_name, spec in specs.items():
        lib(f"lattice_n5.{spec_name}.seed",
            lambda s=spec: rk.identities.free_seed_verdict(state["lattice_n5.free"], s),
            check_seed(True))

    rng = random.Random(seed)
    probes = [
        (f"probe{i}", fname, [(rng.randrange(N5_FREE_SIZE), rng.randrange(N5_FREE_SIZE)) for _ in range(k)])
        for i, (fname, k) in enumerate(CLOSURE_PROBES)
    ]
    probes.append(("memory_probe", MEMORY_PROBE[0], list(MEMORY_PROBE[1])))
    for tag, fname, pairs in probes:

        def check_probe(outcome, fname=fname, pairs=pairs):
            rel = outcome.value
            pred = getattr(rk.relations, PROBE_PREDICATES[fname])
            if not pred(state["lattice_n5.free"], rel):
                return f"{fname} result fails {PROBE_PREDICATES[fname]}"
            if not all(rel.contains(a, b) for a, b in pairs):
                return f"{fname} result misses a seed pair"
            return None

        lib(f"lattice_n5.{tag}.{fname}",
            lambda f=fname, p=pairs: getattr(rk.relations, f)(state["lattice_n5.free"], p),
            check_probe)
    return queries


# ---------------------------------------------------------------------------
# terms: term searches and free-algebra dumps through the CLI


LADDER_FIXTURES = ("lattice2", "z2", "baker4", "lattice_2x2", "z2cube", "lattice_n5")
LADDERS = ("jonsson", "directed-jonsson", "majority", "pixley")
CHAINS = (  # (algebra, schema, h): vr and mal need the 4-ary clone
    ("lattice2", "vr", 2),
    ("lattice2", "mal", 2),
    ("z2", "vr", 2),
    ("z2", "mal", 2),
    ("baker4", "vr", 2),
    ("baker4", "mal", 2),
    ("lattice_2x2", "vr", 2),
    ("lattice_2x2", "mal", 2),
    ("lattice2", "vr", 3),
    ("baker4", "vr", 4),
)
FIND_TERMS = {  # (algebra, schema[, h]) -> (exit code, found, shortest); else (1, False, None)
    ("lattice2", "jonsson"): (0, True, 2),
    ("lattice2", "directed-jonsson"): (0, True, 2),
    ("lattice2", "majority"): (0, True, None),
    ("baker4", "jonsson"): (0, True, 4),
    ("baker4", "directed-jonsson"): (0, True, 3),
    ("lattice_2x2", "jonsson"): (0, True, 2),
    ("lattice_2x2", "directed-jonsson"): (0, True, 2),
    ("lattice_2x2", "majority"): (0, True, None),
    ("lattice_n5", "jonsson"): (0, True, 2),
    ("lattice_n5", "directed-jonsson"): (0, True, 2),
    ("lattice_n5", "majority"): (0, True, None),
    ("lattice2", "vr", 2): (0, True, 2),
    ("lattice2", "mal", 2): (0, True, None),
    ("lattice_2x2", "vr", 2): (0, True, 2),
    ("lattice_2x2", "mal", 2): (0, True, None),
    ("lattice2", "vr", 3): (0, True, 3),
    ("baker4", "vr", 4): (0, True, 4),
}
# (arity, element count).  The lattices generate the distributive lattices,
# whose free algebras are the non-constant monotone Boolean functions.
FREE_ALGEBRAS = {
    "lattice2": (3, 18),
    "lattice_n5": (3, 99),
    "baker4": (4, 53),
    "lattice_2x2": (4, 166),
}


def _check_terms(rk, alg, code, found, shortest, conclusive=True):
    def check(outcome):
        bad = _expect_code(outcome, code)
        if bad:
            return bad
        result = _json(outcome)["result"]
        got = (result["found"], result["shortest"], result["conclusive"])
        if got != (found, shortest, conclusive):
            return f"found/shortest/conclusive {got}, expected {(found, shortest, conclusive)}"
        if not found:
            return None
        if not result["certificate_ok"]:
            return "certificate flagged as failing"
        parse, holds = rk.algebra.parse_term, rk.freeclone.identity_holds
        for eq in result["system"]["equations"]:
            if not holds(alg, parse(eq["lhs"]), parse(eq["rhs"]), eq["pattern"]):
                return f"certificate equation {eq['lhs']} = {eq['rhs']} fails"
        return None

    return check


def _check_free_algebra(rk, alg, arity, count):
    def check(outcome):
        bad = _expect_code(outcome, 0)
        if bad:
            return bad
        result = _json(outcome)["result"]
        if result["count"] != count or not result["complete"] or len(result["elements"]) != count:
            return f"{result['count']} elements, expected {count}"
        tables = {tuple(e["table"]) for e in result["elements"]}
        if alg.name == "lattice2" and tables != oracles.monotone_01_tables(arity):
            return "tables differ from the monotone-function oracle"
        if alg.name == "lattice_2x2" and count != len(oracles.monotone_01_tables(arity)):
            return "count differs from the monotone-function oracle"
        for e in result["elements"]:
            table = rk.freeclone.table_of_term(alg, rk.algebra.parse_term(e["witness"]), arity)
            if [int(v) for v in table] != e["table"]:
                return f"element #{e['id']} witness does not give its table"
        return None

    return check


# Known defects of the seed commit (ROADMAP item 5): `verify` of a
# free-algebra report parses each stored table entry with int(t, 16), but
# the report stores integers.  Each such replay must fail in exactly this
# way; any other crash, or a failure of another kind here, is a wrong answer.
KNOWN_DEFECTS = {
    f"verify:free_algebra_{name}": (
        "int(t, 16)",
        "TypeError: int() can't convert non-string with explicit base",
    )
    for name in FREE_ALGEBRAS
}


def _terms_workload(rk, seed, workdir, fixtures):
    cli = rk.cli
    queries = []
    add = _cli_adder(queries, cli, workdir)
    # the ladder searches print their reports only; the slower searches and
    # the dumps write theirs to files, which are replayed by verify
    for name in LADDER_FIXTURES:
        for schema in LADDERS:
            code, found, shortest = FIND_TERMS.get((name, schema), (1, False, None))
            add(f"find_{schema}_{name}", ["find-terms", name, schema],
                _check_terms(rk, fixtures[name], code, found, shortest), False)
    for name, schema, h in CHAINS:
        code, found, shortest = FIND_TERMS.get((name, schema, h), (1, False, None))
        add(f"find_{schema}{h}_{name}", ["find-terms", name, schema, "--h", str(h)],
            _check_terms(rk, fixtures[name], code, found, shortest))
    for schema in ("vr", "mal"):  # the 4-ary clone hits the cap: exit 2
        add(f"find_{schema}2_lattice_n5_capped",
            ["find-terms", "lattice_n5", schema, "--h", "2", "--caps", '{"clone_cap_4": 20000}'],
            _check_terms(rk, fixtures["lattice_n5"], 2, False, None, conclusive=False))
    for name, (arity, count) in FREE_ALGEBRAS.items():
        add(f"free_algebra_{name}", ["free-algebra", name, "--arity", str(arity)],
            _check_free_algebra(rk, fixtures[name], arity, count))
    random.Random(seed).shuffle(queries)
    return _with_verifies(queries, cli)


BUILDERS = {"check": _check_workload, "free": _free_workload, "terms": _terms_workload}
FIXTURE_NAMES = ("lattice2", "z2", "baker4", "lattice_2x2", "z2cube", "lattice_n5", "z2^2")


def build(name: str, seed: int, workdir: str):
    """Import relkit, resolve the fixtures and build the seeded query list."""
    import relkit
    import relkit.cli
    import relkit.parser

    fixtures = {n: relkit.resolve(n) for n in FIXTURE_NAMES}
    return BUILDERS[name](relkit, seed, workdir, fixtures)
