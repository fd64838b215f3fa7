"""Command-line front end.

Exit codes: 0 holds/found/ok, 1 refuted/absent, 2 truncated with no
counterexample (or cap-hit), 3 usage or parse errors.  The machine-readable
report (``--json`` / ``--out``) is deterministic for a fixed command and
seed; wall time appears only in the human-readable text.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .algebra import CapExceeded, FiniteAlgebra, parse_term
from .caps import Caps, caps_from_env
from .fixtures import FIXTURES, resolve
from .freeclone import (
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
    expr_str,
)
from .maltsev import (
    enumerate_expansions,
    find_directed_jonsson,
    find_jonsson,
    find_majority,
    find_mal_f,
    find_pixley,
    find_vr,
)
from .relations import BinRel, enumerate_relations, is_congruence
from .uadmissible import UAdmRel, from_components

from . import parser as relparser

REPORT_FORMAT = "relkit-report/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _machine(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emit(report: dict, human_lines: list, args, started: float) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_machine(report))
    if getattr(args, "json", False):
        sys.stdout.write(_machine(report))
    else:
        for line in human_lines:
            print(line)
        print(f"wall-time: {time.time() - started:.2f}s")


def _algebra_block(alg: FiniteAlgebra) -> dict:
    return {"name": alg.name, "fingerprint": alg.fingerprint(), "data": alg.to_json()}


def _caps(args) -> Caps:
    caps = caps_from_env()
    if getattr(args, "caps", None):
        caps = caps_from_env(caps, env=args.caps)
    return caps


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
    params = {}
    for key in ("h", "k", "m", "n"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    f = getattr(args, "f", None)
    if f is not None:
        try:
            params["f"] = tuple(int(t) for t in f.split(","))
        except ValueError:
            raise UnsupportedError(f"bad --f value {f!r}; want e.g. 1,2") from None
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


def _cmd_check(args) -> int:
    started = time.time()
    caps = _caps(args)
    alg = resolve(args.algebra, caps)
    spec, desc = _resolve_spec(args.spec, args)
    override = _parse_classes(args.classes) if args.classes else None
    verdict = check_for_all(
        alg,
        spec,
        strategy=args.strategy,
        caps=caps,
        narrow=not args.no_narrow,
        classes_override=override,
        jobs=args.jobs,
        samples=args.samples,
        seed=args.seed,
    )
    classes = spec.classes(not args.no_narrow, override)
    report = {
        "format": REPORT_FORMAT,
        "command": {
            "subcommand": "check",
            "algebra": args.algebra,
            "spec": args.spec,
            "strategy": args.strategy,
            "seed": args.seed,
        },
        "algebra": _algebra_block(alg),
        "spec": _spec_block(spec, desc, classes),
        "result": verdict.report_form(),
    }
    lines = [
        f"algebra: {alg.name} [{alg.fingerprint()}]",
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
    _emit(report, lines, args, started)
    if verdict.holds is True:
        return 0
    if verdict.holds is False:
        return 1
    return 0 if args.allow_truncated else 2


_SCHEMAS = ("jonsson", "directed-jonsson", "majority", "pixley", "vr", "mal")


def _cmd_find_terms(args) -> int:
    started = time.time()
    caps = _caps(args)
    alg = resolve(args.algebra, caps)
    schema = {"directed": "directed-jonsson"}.get(args.schema, args.schema)
    if schema not in _SCHEMAS:
        raise UnsupportedError(f"unknown schema {args.schema!r}; one of {', '.join(_SCHEMAS)}")
    if schema == "jonsson":
        res = find_jonsson(alg, max_k=args.max, caps=caps)
    elif schema == "directed-jonsson":
        res = find_directed_jonsson(alg, max_n=args.max, caps=caps)
    elif schema == "majority":
        res = find_majority(alg, caps=caps)
    elif schema == "pixley":
        res = find_pixley(alg, caps=caps)
    elif schema == "vr":
        if args.h is None:
            raise UnsupportedError("vr needs --h")
        res = find_vr(alg, args.h, caps=caps)
    else:
        if args.h is None:
            raise UnsupportedError("mal needs --h")
        res = find_mal_f(alg, args.h, caps=caps)
    result = res.report_form()
    if res.found:
        result["certificate_ok"] = res.system.check(alg)
    report = {
        "format": REPORT_FORMAT,
        "command": {"subcommand": "find-terms", "algebra": args.algebra, "schema": schema},
        "algebra": _algebra_block(alg),
        "result": result,
    }
    lines = [f"algebra: {alg.name} [{alg.fingerprint()}]", f"schema: {schema}"]
    if res.found:
        lines.append("found: yes" + (f" (params {res.system.params})" if res.system.params else ""))
        for name in sorted(res.system.terms):
            lines.append(f"  {name} = {res.system.terms[name]}")
        lines.append(f"certificate: {'replays' if result['certificate_ok'] else 'FAILS'}")
    else:
        kind = "conclusive" if res.conclusive else "inconclusive (cap hit)"
        lines.append(f"found: no ({kind})")
        if res.shortest is not None:
            lines.append(f"shortest system beyond bound: {res.shortest}")
    _emit(report, lines, args, started)
    if res.found:
        return 0 if result["certificate_ok"] else 1
    if res.conclusive:
        return 1
    return 0 if args.allow_truncated else 2


def _cmd_free_algebra(args) -> int:
    started = time.time()
    caps = _caps(args)
    alg = resolve(args.algebra, caps)
    clone = generate_clone(alg, args.arity, cap=args.cap, caps=caps)
    dump = dump_clone(clone)
    report = {
        "format": REPORT_FORMAT,
        "command": {"subcommand": "free-algebra", "algebra": args.algebra, "arity": args.arity},
        "algebra": _algebra_block(alg),
        "result": dump,
    }
    lines = [
        f"algebra: {alg.name} [{alg.fingerprint()}]",
        f"free algebra on {args.arity} generators: {dump['count']} elements"
        + ("" if dump["complete"] else " (cap hit, incomplete)"),
    ]
    for el in dump["elements"][: args.show]:
        lines.append(f"  #{el['id']} depth {el['depth']}: {el['witness']}")
    if dump["count"] > args.show:
        lines.append(f"  ... {dump['count'] - args.show} more")
    _emit(report, lines, args, started)
    if not dump["complete"]:
        return 0 if args.allow_truncated else 2
    return 0


def _blocks(rel: BinRel) -> list:
    seen, out = set(), []
    for a in range(rel.n):
        if a in seen:
            continue
        block = [b for b in range(rel.n) if rel.contains(a, b)]
        seen.update(block)
        out.append(block)
    return out


def _hasse(rels: list) -> list:
    edges = []
    for i, r in enumerate(rels):
        for j, s in enumerate(rels):
            if i == j or (r.mask | s.mask) != s.mask:
                continue
            # cover: nothing strictly between r and s
            if not any(
                k != i and k != j
                and (r.mask | rels[k].mask) == rels[k].mask
                and (rels[k].mask | s.mask) == s.mask
                for k in range(len(rels))
            ):
                edges.append((i, j))
    return edges


def _cmd_congruences(args) -> int:
    started = time.time()
    caps = _caps(args)
    alg = resolve(args.algebra, caps)
    enum = enumerate_relations(alg, "congruence", caps)
    rels = enum.relations
    edges = _hasse(rels)
    covers = {j: [] for j in range(len(rels))}
    for i, j in edges:
        covers[j].append(i)
    result = {
        "count": len(rels),
        "exhaustive": enum.exhaustive,
        "congruences": [
            {"id": i, "blocks": _blocks(r), "pairs": r.pairs()} for i, r in enumerate(rels)
        ],
        "hasse_covers": [[i, j] for i, j in edges],
    }
    report = {
        "format": REPORT_FORMAT,
        "command": {"subcommand": "congruences", "algebra": args.algebra},
        "algebra": _algebra_block(alg),
        "result": result,
    }
    lines = [
        f"algebra: {alg.name} [{alg.fingerprint()}]",
        f"congruences: {len(rels)}" + ("" if enum.exhaustive else " (truncated)"),
        "ordering by inclusion (each line lists the congruences it covers):",
    ]
    for i, r in enumerate(rels):
        blocks = " | ".join(" ".join(map(str, b)) for b in _blocks(r))
        cov = ", ".join(f"c{k}" for k in covers[i]) or "-"
        lines.append(f"  c{i}: {blocks}   covers: {cov}")
    _emit(report, lines, args, started)
    return 0 if enum.exhaustive else (0 if args.allow_truncated else 2)


def _cmd_expansions(args) -> int:
    started = time.time()
    spec, desc = _resolve_spec(args.spec, args)
    expansions = enumerate_expansions(spec)
    result = {
        "count": len(expansions),
        "expansions": [e.report_form() for e in expansions],
    }
    report = {
        "format": REPORT_FORMAT,
        "command": {"subcommand": "expansions", "spec": args.spec},
        "spec": _spec_block(spec, desc, spec.classes(narrow=False)),
        "result": result,
    }
    lines = [f"source: {spec.describe()}", f"expansions: {len(expansions)}"]
    for e in expansions:
        choice = ", ".join(f"{v}->{list(c)}" for v, c in e.rhs_choice.items())
        lines.append(f"  [{choice or 'unique'}] {e.spec.describe()}")
    _emit(report, lines, args, started)
    return 0


# ---------------------------------------------------------------------------
# verify: replay counterexamples and certificates from a machine report


class _ReplayError(Exception):
    pass


def _load_value(alg, form: dict, caps):
    if form["kind"] == "family":
        comps = [BinRel.from_pairs(alg.size, [tuple(p) for p in c]) for c in form["components"]]
        return from_components(alg, comps, validate=False)
    return BinRel.from_pairs(alg.size, [tuple(p) for p in form["pairs"]])


def _rebuild_spec(block: dict) -> IdentitySpec:
    if block["kind"] == "builtin":
        params = {
            k: tuple(v) if isinstance(v, list) else v for k, v in block["params"].items()
        }
        return builtin(block["name"], **params)
    return relparser.parse_spec(block["source"])


def _replay_check(report: dict, alg, caps) -> None:
    result = report["result"]
    if result["holds"] is not False:
        return  # nothing to replay
    spec = _rebuild_spec(report["spec"])
    classes = {v: RelClass[c] for v, c in report["spec"]["classes"].items()}
    cex = result["counterexample"]
    assignment = {v: _load_value(alg, form, caps) for v, form in cex["assignment"].items()}
    for v, val in assignment.items():
        if not class_member(alg, classes[v], val, caps):
            raise _ReplayError(f"assignment for {v} is not a {classes[v].name}")
    lhs, rhs, satisfied = evaluate(alg, spec, assignment, caps)
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
    result = report["result"]
    if not result["found"]:
        return
    for eq in result["system"]["equations"]:
        lhs, rhs = parse_term(eq["lhs"]), parse_term(eq["rhs"])
        if not identity_holds(alg, lhs, rhs, eq["pattern"]):
            raise _ReplayError(f"equation {eq['lhs']} = {eq['rhs']} [{eq['pattern']}] fails")


def _replay_congruences(report: dict, alg, caps) -> None:
    result = report["result"]
    listed = set()
    for c in result["congruences"]:
        rel = BinRel.from_pairs(alg.size, [tuple(p) for p in c["pairs"]])
        if not is_congruence(alg, rel):
            raise _ReplayError(f"entry c{c['id']} is not a congruence")
        listed.add(rel.mask)
    if result["exhaustive"] is not True:
        return  # a truncated listing claims soundness only
    enum = enumerate_relations(alg, "congruence", caps)
    if not enum.exhaustive:
        raise _ReplayError("cannot re-derive the complete listing within the caps")
    if listed != {r.mask for r in enum.relations} or result["count"] != len(enum.relations):
        raise _ReplayError(
            f"report lists {len(listed)} congruences (count {result['count']}), "
            f"the algebra has {len(enum.relations)}"
        )


def _replay_free_algebra(report: dict, alg, caps) -> None:
    arity = report["result"]["arity"]
    for el in report["result"]["elements"]:
        table = table_of_term(alg, parse_term(el["witness"]), arity)
        if table.tolist() != el["table"]:
            raise _ReplayError(f"element #{el['id']} table does not match its witness")


def _cmd_verify(args) -> int:
    with open(args.report) as fh:
        report = json.load(fh)
    caps = _caps(args)
    if report.get("format") != REPORT_FORMAT:
        print(f"verify: unknown report format {report.get('format')!r}", file=sys.stderr)
        return 3
    try:
        alg = None
        if "algebra" in report:
            alg = FiniteAlgebra.from_json(
                report["algebra"]["data"], name=report["algebra"]["name"]
            )
            if alg.fingerprint() != report["algebra"]["fingerprint"]:
                raise _ReplayError("stale algebra fingerprint")
        sub = report["command"]["subcommand"]
        if sub == "check":
            _replay_check(report, alg, caps)
        elif sub == "find-terms":
            _replay_find_terms(report, alg, caps)
        elif sub == "congruences":
            _replay_congruences(report, alg, caps)
        elif sub == "free-algebra":
            _replay_free_algebra(report, alg, caps)
        elif sub in ("expansions", "search-mainp"):
            pass  # nothing replayable beyond structure
        else:
            raise _ReplayError(f"unknown subcommand {sub!r} in report")
    except (_ReplayError, KeyError, ValueError) as exc:
        print(f"verify: FAIL: {exc}", file=sys.stderr)
        return 1
    print("verify: ok")
    return 0


# ---------------------------------------------------------------------------
# search-mainp: experiment preset (observations only)


def _random_algebra(size: int, rng: random.Random, tag: str) -> FiniteAlgebra:
    table = tuple(rng.randrange(size) for _ in range(size * size))
    return FiniteAlgebra(size, [("f", 2, table)], name=tag)


def _cmd_search_mainp(args) -> int:
    started = time.time()
    caps = _caps(args)
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
    report = {
        "format": REPORT_FORMAT,
        "command": {"subcommand": "search-mainp", "seed": args.seed, "count": args.count},
        "result": {"observations": rows, "note": "observations only; absence of a counterexample proves nothing"},
    }
    lines = ["observations (replacing the tolerance with wider classes):"]
    for r in rows:
        h = {True: "holds", False: "refuted", None: "open"}[r["holds"]]
        lines.append(f"  {r['algebra']:<14} {r['variant']:<24} {h} ({r['coverage']})")
    _emit(report, lines, args, started)
    return 0


# ---------------------------------------------------------------------------


def _add_common(p, caps=True):
    p.add_argument("--json", action="store_true", help="print the machine-readable report")
    p.add_argument("--out", help="also write the machine-readable report to a file")
    p.add_argument("--allow-truncated", action="store_true", help="exit 0 even when coverage is truncated")
    if caps:
        p.add_argument("--caps", help="JSON object overriding caps (same shape as RELKIT_CAPS)")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="relkit", description=__doc__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", parents=[], help="quantified identity check on one algebra")
    p.add_argument("algebra", help=f"bundled name ({', '.join(sorted(FIXTURES))}), NAME^k, or a file")
    p.add_argument("spec", help=f"builtin ({', '.join(builtin_names())}) or literal like 'uadm:s ; uadm:s == uadm:s'")
    p.add_argument("--h", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--f", help="comma-separated values in {1,2} for malA")
    p.add_argument("--classes", help="override classes, e.g. theta=adm,sigma=u2")
    p.add_argument(
        "--strategy",
        default="exhaustive",
        choices=("exhaustive", "generated", "sampled", "principal"),
        help="exhaustive (default); generated is an alias of exhaustive, kept for"
        " compatibility; sampled never reports holds; principal reduces to"
        " point-principal relations",
    )
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-narrow", action="store_true", help="quantify the wide classes, ignoring marked narrowings")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("find-terms", help="search the clone for a term system")
    p.add_argument("algebra")
    p.add_argument("schema", help="jonsson | directed-jonsson | majority | pixley | vr | mal")
    p.add_argument("--max", type=int, default=8, help="ladder length bound")
    p.add_argument("--h", type=int, help="chain length for vr/mal")
    _add_common(p)
    p.set_defaults(func=_cmd_find_terms)

    p = sub.add_parser("free-algebra", help="dump the k-generated free algebra")
    p.add_argument("algebra")
    p.add_argument("--arity", type=int, default=3)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--show", type=int, default=10, help="elements to print in the human output")
    _add_common(p)
    p.set_defaults(func=_cmd_free_algebra)

    p = sub.add_parser("congruences", help="list congruences with the inclusion ordering")
    p.add_argument("algebra")
    _add_common(p)
    p.set_defaults(func=_cmd_congruences)

    p = sub.add_parser("expansions", help="list the expansions of an inclusion over union-variables")
    p.add_argument("spec")
    p.add_argument("--h", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--f")
    _add_common(p, caps=False)
    p.set_defaults(func=_cmd_expansions)

    p = sub.add_parser("verify", help="replay counterexamples/certificates from a report file")
    p.add_argument("report")
    p.add_argument("--caps")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search-mainp", help="experiment preset: tolerance replaced by wider classes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=4, help="random algebras to draw")
    p.add_argument("--max-size", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=_cmd_search_mainp)
    return top


def main(argv=None) -> int:
    top = build_parser()
    args = top.parse_args(argv)
    try:
        code = args.func(args)
    except CapExceeded as exc:
        print(f"relkit: cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedError, relparser.SpecParseError, KeyError, ValueError, OSError) as exc:
        print(f"relkit: error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
