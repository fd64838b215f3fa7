"""Command-line front end.

Every subcommand but ``verify`` computes its report and hands it to one run
path, which adds the algebra, writes ``--out`` and prints ``--json`` or the
human lines.  The machine-readable report is deterministic for a fixed
command and seed; wall time appears only in the human-readable text.

Exit codes, the same for every subcommand: 0 holds, found or ok; 1 refuted,
conclusively absent, or a replay that fails; 2 truncated with no
counterexample, which ``--allow-truncated`` turns into 0, and a construction
too large for its cap, which exits 2 whatever ``--allow-truncated`` says;
3 usage, parse and input errors, an unwritable ``--out`` and an expression
that nests too deeply to evaluate.

``main`` may be called any number of times in one process.  It builds its
argument parser on the first call and reuses it after; the parser is the
only object kept between calls, so no algebra, caps, result or report
carries over from one call to the next.  ``build_parser`` returns a fresh
parser each time, and importing the module builds none.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time

from .algebra import CapExceeded, FiniteAlgebra, parse_term
from .caps import Caps, caps_from_env
from .fixtures import FIXTURES, resolve
from .freeclone import (
    clone_as_algebra,
    dump_clone,
    generate_clone,
    identity_holds,
    table_of_term,
)
from .identities import (
    IdentitySpec,
    RelClass,
    UnsupportedError,
    builtin,
    builtin_names,
    check_for_all,
    class_member,
    evaluate,
    free_seed_verdict,
)
from .maltsev import (
    TermSystem,
    enumerate_expansions,
    find_directed_jonsson,
    find_jonsson,
    find_majority,
    find_mal_f,
    find_pixley,
    find_vr,
    schema_equations,
)
from .relations import BinRel, enumerate_relations, is_congruence
from .uadmissible import UAdmRel

from . import parser as relparser

REPORT_FORMAT = "relkit-report/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _at_least(low: int):
    """An argparse type: an integer of at least low."""

    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def _caps(args) -> Caps:
    caps = caps_from_env()
    if args.caps:
        caps = caps_from_env(caps, env=args.caps)
    return caps


def _run(args) -> int:
    """Run a reporting subcommand.  Its ``compute`` takes the caps, and the
    algebra when the subcommand has one, and returns its command fields, its
    report blocks, its human lines and its exit code (2 for truncated)."""
    started = time.time()
    inputs = {"caps": _caps(args)}
    command, report, lines = {"subcommand": args.subcommand}, {}, []
    if "algebra" in args:
        alg = inputs["alg"] = resolve(args.algebra, inputs["caps"])
        fingerprint = alg.fingerprint()
        command["algebra"] = args.algebra
        report["algebra"] = {"name": alg.name, "fingerprint": fingerprint, "data": alg.to_json()}
        lines.append(f"algebra: {alg.name} [{fingerprint}]")
    fields, blocks, body, code = args.compute(args, **inputs)
    report.update(blocks, format=REPORT_FORMAT, command={**command, **fields})
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        for line in lines + body:
            print(line)
        print(f"wall-time: {time.time() - started:.2f}s")
    return 0 if code == 2 and args.allow_truncated else code


def _parse_classes(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UnsupportedError(f"bad --classes entry {part!r}; want var=class")
        var, cls = part.split("=", 1)
        if cls not in relparser.CLASS_PREFIXES:
            raise UnsupportedError(
                f"unknown class {cls!r}; one of {', '.join(sorted(relparser.CLASS_PREFIXES))}"
            )
        out[var.strip()] = relparser.CLASS_PREFIXES[cls]
    return out


def _collect_params(args) -> dict:
    params = {key: getattr(args, key) for key in ("h", "k", "m", "n") if getattr(args, key) is not None}
    if args.f is not None:
        try:
            params["f"] = tuple(int(t) for t in args.f.split(","))
        except ValueError:
            raise UnsupportedError(f"bad --f value {args.f!r}; want e.g. 1,2") from None
    return params


def _resolve_spec(text: str, args) -> tuple[IdentitySpec, dict]:
    """Builtin name with parameter flags, or an inline literal."""
    if "<=" in text or "==" in text:
        spec = relparser.parse_spec(text)
        return spec, {"kind": "literal", "source": text}
    params = _collect_params(args)
    try:
        spec = builtin(text, **params)
    except TypeError as exc:
        raise UnsupportedError(f"builtin {text!r} does not take {params}: {exc}") from None
    desc = {"kind": "builtin", "name": text, "params": {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()}}
    return spec, desc


def _spec_block(spec: IdentitySpec, desc: dict, classes: dict) -> dict:
    return {
        **desc,
        "mode": spec.mode,
        "identity": spec.describe(),
        "classes": {v: c.name for v, c in classes.items()},
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args, alg, caps):
    spec, desc = _resolve_spec(args.spec, args)
    override = _parse_classes(args.classes) if args.classes else None
    verdict = check_for_all(
        alg,
        spec,
        strategy=args.strategy,
        caps=caps,
        narrow=not args.no_narrow,
        classes_override=override,
        samples=args.samples,
        seed=args.seed,
    )
    classes = spec.classes(not args.no_narrow, override)
    lines = [
        f"identity: {spec.name}: {spec.describe()}",
        "classes: " + ", ".join(f"{v}:{c.name}" for v, c in classes.items()),
    ]
    if verdict.holds is True:
        lines.append(f"verdict: holds ({verdict.coverage})")
    elif verdict.holds is False:
        lines.append("verdict: refuted")
        cex = verdict.counterexample
        for v, val in cex["assignment"].items():
            if isinstance(val, UAdmRel):
                comps = " , ".join(str(sorted(c.pairs())) for c in val.components)
                lines.append(f"  {v} = union of [{comps}]")
            else:
                lines.append(f"  {v} = {sorted(val.pairs())}")
        lines.append(f"  violating pair: {tuple(cex['pair'])}")
    else:
        lines.append(f"verdict: no counterexample found, coverage {verdict.coverage}")
    if verdict.note:
        lines.append(f"note: {verdict.note}")
    command = {"spec": args.spec, "strategy": args.strategy, "seed": args.seed}
    blocks = {"spec": _spec_block(spec, desc, classes), "result": verdict.report_form()}
    return command, blocks, lines, {True: 0, False: 1}.get(verdict.holds, 2)


# schema -> search(alg, bound, caps); "directed" is short for "directed-jonsson"
_SEARCHES = {
    "jonsson": find_jonsson,
    "directed-jonsson": find_directed_jonsson,
    "majority": lambda alg, bound, caps: find_majority(alg, caps),
    "pixley": lambda alg, bound, caps: find_pixley(alg, caps),
    "vr": find_vr,
    "mal": find_mal_f,
}
# schema -> (the schema of the systems its search finds, the flag that sets
# its bound or None, whether a found report's bound and shortest are those
# the search gives a system of params p).  A chain schema (--h) has a system
# of h steps exactly when its inclusion schema + "Incl" holds in V(A).
_SCHEMAS = {
    "jonsson": ("Jonsson", "max", lambda p, bound, shortest: shortest == p["k"] <= bound),
    "directed-jonsson": ("DirectedJonsson", "max", lambda p, bound, shortest: shortest == p["n"] <= bound),
    "majority": ("Majority", None, lambda p, bound, shortest: bound == 0 and shortest is None),
    "pixley": ("Pixley", None, lambda p, bound, shortest: bound == 0 and shortest is None),
    "vr": ("VR", "h", lambda p, bound, shortest: bound == shortest == p["h"]),
    "mal": ("MalF", "h", lambda p, bound, shortest: bound == p["h"] and shortest is None),
}


def _search(args, alg, caps):
    """Run the search the find-terms arguments name: (schema, result).  A
    bound flag the schema does not read is a usage error."""
    schema = {"directed": "directed-jonsson"}.get(args.schema, args.schema)
    if schema not in _SEARCHES:
        raise UnsupportedError(f"unknown schema {args.schema!r}; one of {', '.join(_SEARCHES)}")
    flag = _SCHEMAS[schema][1]
    given = {f: getattr(args, f) for f in ("h", "max") if getattr(args, f) is not None}
    if given.keys() - {flag}:
        raise UnsupportedError(f"{schema} reads no --{min(given.keys() - {flag})}")
    if flag == "h" and not given:
        raise UnsupportedError(f"{schema} needs --h")
    return schema, _SEARCHES[schema](alg, given.get(flag, 8), caps)


def _cmd_find_terms(args, alg, caps):
    schema, res = _search(args, alg, caps)
    result = res.report_form()
    lines = [f"schema: {schema}"]
    if res.found:
        result["certificate_ok"] = res.system.check(alg)
        lines.append("found: yes" + (f" (params {res.system.params})" if res.system.params else ""))
        for name in sorted(res.system.terms):
            lines.append(f"  {name} = {res.system.terms[name]}")
        lines.append(f"certificate: {'replays' if result['certificate_ok'] else 'FAILS'}")
        code = 0 if result["certificate_ok"] else 1
    else:
        kind = "conclusive" if res.conclusive else "inconclusive (cap hit)"
        lines.append(f"found: no ({kind})")
        if res.shortest is not None:
            lines.append(f"shortest system beyond bound: {res.shortest}")
        code = 1 if res.conclusive else 2
    return {"schema": schema}, {"result": result}, lines, code


def _cmd_free_algebra(args, alg, caps):
    # a listing of more than max_table_cells cells is refused, so the clone
    # need not grow past the first table count that exceeds it
    refused = caps.max_table_cells // alg.size**args.arity + 1
    cap = caps.clone_cap(args.arity) if args.cap is None else args.cap
    cap = min(cap, max(args.arity, refused))
    clone = generate_clone(alg, args.arity, cap=cap, caps=caps)
    cells = len(clone) * alg.size**args.arity
    if cells > caps.max_table_cells:  # before the full tables are built
        raise CapExceeded(
            f"listing at least {len(clone)} tables of {alg.size}^{args.arity} cells ({cells}) "
            "exceeds cell cap"
        )
    dump = dump_clone(clone)
    lines = [
        f"free algebra on {args.arity} generators: {dump['count']} elements"
        + ("" if dump["complete"] else " (cap hit, incomplete)"),
    ]
    for el in dump["elements"][: args.show]:
        lines.append(f"  #{el['id']} depth {el['depth']}: {el['witness']}")
    if dump["count"] > args.show:
        lines.append(f"  ... {dump['count'] - args.show} more")
    return {"arity": args.arity}, {"result": dump}, lines, 0 if dump["complete"] else 2


def _blocks(rel: BinRel) -> list:
    """The blocks of an equivalence relation, each keyed by its least element."""
    out = {}
    for a in range(rel.n):
        out.setdefault(next(b for b in range(rel.n) if rel.contains(a, b)), []).append(a)
    return list(out.values())


def _hasse(rels: list) -> list:
    """The covers (i, j): rels[i] below rels[j] with no rels[k] strictly between."""
    below = [[i != j and (r.mask | s.mask) == s.mask for j, s in enumerate(rels)] for i, r in enumerate(rels)]
    n = len(rels)
    return [(i, j) for i in range(n) for j in range(n)
            if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))]


def _cmd_congruences(args, alg, caps):
    enum = enumerate_relations(alg, "congruence", caps)
    rels = enum.relations
    edges = _hasse(rels)
    result = {
        "count": len(rels),
        "exhaustive": enum.exhaustive,
        "congruences": [
            {"id": i, "blocks": _blocks(r), "pairs": r.pairs()} for i, r in enumerate(rels)
        ],
        "hasse_covers": [[i, j] for i, j in edges],
    }
    lines = [
        f"congruences: {len(rels)}" + ("" if enum.exhaustive else " (truncated)"),
        "ordering by inclusion (each line lists the congruences it covers):",
    ]
    for i, r in enumerate(rels):
        blocks = " | ".join(" ".join(map(str, b)) for b in _blocks(r))
        cov = ", ".join(f"c{k}" for k, j in edges if j == i) or "-"
        lines.append(f"  c{i}: {blocks}   covers: {cov}")
    return {}, {"result": result}, lines, 0 if enum.exhaustive else 2


def _cmd_expansions(args, caps):
    spec, desc = _resolve_spec(args.spec, args)
    forms = [e.report_form() for e in enumerate_expansions(spec, caps)]
    blocks = {
        "spec": _spec_block(spec, desc, spec.classes(narrow=False)),
        "result": {"count": len(forms), "expansions": forms},
    }
    lines = [f"source: {spec.describe()}", f"expansions: {len(forms)}"]
    for form in forms:
        choice = ", ".join(f"{v}->{c}" for v, c in form["rhs_choice"].items())
        lines.append(f"  [{choice or 'unique'}] {form['identity']}")
    return {"spec": args.spec}, blocks, lines, 0


# ---------------------------------------------------------------------------
# verify: replay counterexamples and certificates from a machine report, and
# re-derive what it claims complete


class _ReplayError(Exception):
    pass


def _load_value(alg, form: dict):
    if form["kind"] == "family":
        comps = [BinRel.from_pairs(alg.size, [tuple(p) for p in c]) for c in form["components"]]
        return UAdmRel(comps)
    return BinRel.from_pairs(alg.size, [tuple(p) for p in form["pairs"]])


def _same(stored, derived) -> bool:
    """Whether a report's block equals a re-derived one as JSON stores it (a
    tuple as a list); the costly round trip runs only when they differ."""
    return stored == derived or stored == json.loads(json.dumps(derived))


def _rerun_args(report: dict) -> argparse.Namespace:
    """The arguments of the report's command, parsed again: the command
    block's algebra, spec, schema and arity, a builtin spec's parameter flags
    from the spec block, and a search's bound flag from the result."""
    command = report["command"]
    argv = [command["subcommand"]] + [str(command[k]) for k in ("algebra", "spec", "schema") if k in command]
    if "arity" in command:
        argv += ["--arity", str(command["arity"])]
    flag = _SCHEMAS.get(command.get("schema"), (None, None))[1]
    if flag:
        argv += [f"--{flag}", str(report["result"]["bound"])]
    for key, value in report.get("spec", {}).get("params", {}).items():
        argv += [f"--{key}", ",".join(map(str, value)) if key == "f" else str(value)]
    with contextlib.redirect_stderr(io.StringIO()) as usage:
        try:
            return _PARSER.parse_args(argv)
        except SystemExit:
            raise _ReplayError(f"the report's command does not parse: {usage.getvalue().strip()}") from None


# subcommand -> the list its result block holds, and what the list is of
_LISTINGS = {"congruences": ("congruences", "algebra"), "free-algebra": ("elements", "clone"),
             "expansions": ("expansions", "spec")}


def _rederive(report: dict, alg, caps) -> None:
    """Run the report's subcommand again on the algebra the report carries,
    within verify's caps: every block the run returns must equal the
    report's block as its JSON file stores it."""
    args = _rerun_args(report)
    key, owner = _LISTINGS[args.subcommand]
    inputs = {"alg": alg, "caps": caps} if "algebra" in args else {"caps": caps}
    try:
        _, blocks, _, code = args.compute(args, **inputs)
    except CapExceeded:
        code = 2
    if code == 2:
        raise _ReplayError(f"cannot re-derive the {key} within the caps")
    for name, block in blocks.items():
        if not _same(report.get(name), block):
            counts = (f": report lists {len(report['result'][key])} {key} (count {report['result']['count']}), "
                      f"the {owner} has {block['count']}") if name == "result" else ""
            raise _ReplayError(f"the {name} block is not the one {args.subcommand} gives{counts}")


def _replay_check(report: dict, alg, caps) -> None:
    args = _rerun_args(report)
    spec, desc = _resolve_spec(args.spec, args)
    classes = {v: RelClass[c] for v, c in report["spec"]["classes"].items()}
    if not _same(report["spec"], _spec_block(spec, desc, classes)):
        raise _ReplayError("the spec block is not the one its command gives")
    result = report["result"]
    if result["holds"] is not False:
        return  # a "holds" or truncated verdict is not re-decided
    cex = result["counterexample"]
    assignment = {v: _load_value(alg, form) for v, form in cex["assignment"].items()}
    for v, val in assignment.items():
        if not class_member(alg, classes[v], val):
            raise _ReplayError(f"assignment for {v} is not a {classes[v].name}")
    lhs, rhs, satisfied = evaluate(alg, spec, assignment)
    if satisfied:
        raise _ReplayError("recorded counterexample satisfies the identity")
    a, b = cex["pair"]
    if spec.mode == "inclusion":
        witnessed = lhs.contains(a, b) and not rhs.contains(a, b)
    else:
        witnessed = lhs.contains(a, b) != rhs.contains(a, b)
    if not witnessed:
        raise _ReplayError("recorded violating pair does not witness the failure")


def _replay_find_terms(report: dict, alg, caps) -> None:
    result, schema = report["result"], report["command"]["schema"]
    if not result["found"]:
        if result["conclusive"] is True:
            _replay_absence(report, alg, caps)
        return  # an inconclusive absence claims nothing
    system, (found, _, agrees) = result["system"], _SCHEMAS[schema]
    params = system["params"]
    terms = {role: parse_term(text) for role, text in system["terms"].items()}
    rebuilt = TermSystem(found, params, terms, schema_equations(found, params, terms))
    if not _same(system, rebuilt.report_form()):
        raise _ReplayError(f"the system block is not the {found} system of its terms")
    if not agrees(params, result["bound"], result["shortest"]):
        raise _ReplayError(f"bound {result['bound']} and shortest {result['shortest']} "
                           f"do not fit a found {found} system {system['params']}")
    for lhs, rhs, pattern in rebuilt.equations:
        if not identity_holds(alg, lhs, rhs, pattern):
            raise _ReplayError(f"equation {lhs} = {rhs} [{pattern}] fails")
    if result["certificate_ok"] is not True:
        raise _ReplayError("the report says the certificate fails, but its equations hold")


def _replay_absence(report: dict, alg, caps) -> None:
    """Search again at the report's bound; the result block must come back
    whole.  A chain absence also needs the seed verdict of its inclusion on
    F(A,3), read off the search's 3-ary clone, to say the inclusion fails."""
    result = report["result"]
    try:
        schema, res = _search(_rerun_args(report), alg, caps)
        if res.found:
            raise _ReplayError(f"the search finds a {schema} system the report says is absent")
        if not res.conclusive:
            raise CapExceeded
        if not _same(result, res.report_form()):
            raise _ReplayError(f"report gives {result}, the search {res.report_form()}")
        if _SCHEMAS[schema][1] == "h":
            spec = builtin(schema + "Incl", h=res.bound)
            clone3 = res.clone3 if res.clone3 is not None else generate_clone(alg, 3, caps=caps)
            if free_seed_verdict(clone_as_algebra(clone3, caps), spec):
                raise _ReplayError(f"{spec.name} holds on F(A,3), so a {schema} system exists")
    except CapExceeded:
        raise _ReplayError("cannot re-derive the absence within the caps") from None


def _replay_congruences(report: dict, alg, caps) -> None:
    for c in report["result"]["congruences"]:
        rel = BinRel.from_pairs(alg.size, [tuple(p) for p in c["pairs"]])
        if not is_congruence(alg, rel):
            raise _ReplayError(f"entry c{c['id']} is not a congruence")
    if report["result"]["exhaustive"] is True:  # a truncated listing claims soundness only
        _rederive(report, alg, caps)


def _replay_free_algebra(report: dict, alg, caps) -> None:
    result = report["result"]
    for el in result["elements"]:
        table = table_of_term(alg, parse_term(el["witness"]), result["arity"])
        if table.tolist() != el["table"]:
            raise _ReplayError(f"element #{el['id']} table does not match its witness")
    if result["complete"] is True:  # a truncated listing claims soundness only
        _rederive(report, alg, caps)


# subcommand -> replay of its report, or None when it has nothing to replay
_REPLAYS = {
    "check": _replay_check,
    "find-terms": _replay_find_terms,
    "congruences": _replay_congruences,
    "free-algebra": _replay_free_algebra,
    "expansions": _rederive,
    "search-mainp": None,
}


def _cmd_verify(args) -> int:
    with open(args.report) as fh:
        report = json.load(fh)
    caps = _caps(args)
    if not isinstance(report, dict):
        print(f"verify: a report is a JSON object, not {type(report).__name__}", file=sys.stderr)
        return 3
    if report.get("format") != REPORT_FORMAT:
        print(f"verify: unknown report format {report.get('format')!r}", file=sys.stderr)
        return 3
    try:
        alg = None
        if "algebra" in report:
            alg = FiniteAlgebra.from_json(report["algebra"]["data"], name=report["algebra"]["name"])
            if alg.fingerprint() != report["algebra"]["fingerprint"]:
                raise _ReplayError("stale algebra fingerprint")
        sub = report["command"]["subcommand"]
        if sub not in _REPLAYS:
            raise _ReplayError(f"unknown subcommand {sub!r} in report")
        if _REPLAYS[sub]:
            _REPLAYS[sub](report, alg, caps)
    except (_ReplayError, KeyError, ValueError, TypeError, AttributeError, IndexError) as exc:
        # a malformed report (a field of the wrong type or shape) fails the
        # replay like a wrong one does
        print(f"verify: FAIL: {exc}", file=sys.stderr)
        return 1
    print("verify: ok")
    return 0


# ---------------------------------------------------------------------------
# search-mainp: experiment preset (observations only)


def _random_algebra(size: int, rng: random.Random, tag: str) -> FiniteAlgebra:
    table = tuple(rng.randrange(size) for _ in range(size * size))
    return FiniteAlgebra(size, [("f", 2, table)], name=tag)


def _cmd_search_mainp(args, caps):
    fixtures = ("lattice2", "z2", "baker4", "lattice_2x2")
    algebras = [resolve(n, caps) for n in fixtures]
    rng = random.Random(args.seed)
    for i in range(args.count):
        size = rng.randrange(2, args.max_size + 1)
        algebras.append(_random_algebra(size, rng, f"rnd{i}"))
    variants = [
        ("cdist2(2)", builtin("cdist2", h=2), None),
        ("cdist2(2)[theta=adm]", builtin("cdist2", h=2), {"theta": RelClass.ReflexiveAdmissible}),
        ("cdist2(2)[theta=uadm]", builtin("cdist2", h=2), {"theta": RelClass.UAdmissible}),
        ("modular2(2)", builtin("modular2", k=2), None),
        ("modular2(2)[theta=adm]", builtin("modular2", k=2), {"theta": RelClass.ReflexiveAdmissible}),
    ]
    rows = []
    for alg in algebras:
        for label, spec, override in variants:
            v = check_for_all(alg, spec, caps=caps, classes_override=override)
            rows.append(
                {
                    "algebra": alg.name,
                    "fingerprint": alg.fingerprint(),
                    "variant": label,
                    "holds": v.holds,
                    "coverage": v.coverage,
                }
            )
    result = {"observations": rows, "note": "observations only; absence of a counterexample proves nothing"}
    lines = ["observations (replacing the tolerance with wider classes):"]
    for r in rows:
        h = {True: "holds", False: "refuted", None: "open"}[r["holds"]]
        lines.append(f"  {r['algebra']:<14} {r['variant']:<24} {h} ({r['coverage']})")
    return {"seed": args.seed, "count": args.count}, {"result": result}, lines, 0


# ---------------------------------------------------------------------------


def _add_common(p, compute):
    """The report options, and ``compute`` as what the run path runs."""
    p.add_argument("--json", action="store_true", help="print the machine-readable report")
    p.add_argument("--out", help="also write the machine-readable report to a file")
    p.add_argument("--allow-truncated", action="store_true", help="exit 0 even when coverage is truncated")
    p.add_argument("--caps", help="JSON object overriding caps (same shape as RELKIT_CAPS)")
    p.set_defaults(func=_run, compute=compute)


def _add_params(p):
    """The builtin parameter flags."""
    for key in ("h", "k", "m", "n"):
        p.add_argument(f"--{key}", type=int)
    p.add_argument("--f", help="comma-separated values in {1,2} for malA")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="relkit", description=__doc__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="quantified identity check on one algebra")
    p.add_argument("algebra", help=f"bundled name ({', '.join(sorted(FIXTURES))}), NAME^k, or a file")
    p.add_argument("spec", help=f"builtin ({', '.join(builtin_names())}) or literal like 'uadm:s ; uadm:s == uadm:s'")
    _add_params(p)
    p.add_argument("--classes", help="override classes, e.g. theta=adm,sigma=u2")
    p.add_argument(
        "--strategy",
        default="exhaustive",
        choices=("exhaustive", "sampled", "principal"),
        help="exhaustive (default); sampled never reports holds; principal"
        " reduces to point-principal relations",
    )
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-narrow", action="store_true", help="quantify the wide classes, ignoring marked narrowings")
    _add_common(p, _cmd_check)

    p = sub.add_parser("find-terms", help="search the clone for a term system")
    p.add_argument("algebra")
    p.add_argument("schema", help=" | ".join(_SEARCHES))
    p.add_argument("--max", type=int, help="ladder length bound (default 8)")
    p.add_argument("--h", type=int, help="chain length for vr/mal")
    _add_common(p, _cmd_find_terms)

    p = sub.add_parser("free-algebra", help="dump the k-generated free algebra")
    p.add_argument("algebra")
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--show", type=_at_least(0), default=10, help="elements to print in the human output")
    _add_common(p, _cmd_free_algebra)

    p = sub.add_parser("congruences", help="list congruences with the inclusion ordering")
    p.add_argument("algebra")
    _add_common(p, _cmd_congruences)

    p = sub.add_parser("expansions", help="list the expansions of an inclusion over union-variables")
    p.add_argument("spec")
    _add_params(p)
    _add_common(p, _cmd_expansions)

    p = sub.add_parser("verify", help="replay counterexamples/certificates from a report file")
    p.add_argument("report")
    p.add_argument("--caps")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search-mainp", help="experiment preset: tolerance replaced by wider classes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=4, help="random algebras to draw")
    p.add_argument("--max-size", type=_at_least(2), default=3)
    _add_common(p, _cmd_search_mainp)
    return top


# the parser main() parses with, built on its first call; it holds only the
# static grammar (subcommands, flags, help and the func/compute defaults)
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"relkit: cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedError, relparser.SpecParseError, KeyError, ValueError, OSError) as exc:
        print(f"relkit: error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("relkit: error: the expression nests too deeply to evaluate", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
