"""Golden guard for the builtin library, the checker's verdicts, the CLI
reports and plain-text output of the README examples and the term-search and
free-algebra reports.

The expected values in ``tests/golden/`` were recorded from the code and
must not move when the implementation is restructured.  Re-record them only
for an intended change of output, naming the files to rewrite (all of them
when none is named):

    PYTHONPATH=src python tests/test_golden.py [terms.json ...]
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from relkit.cli import main
from relkit.fixtures import resolve
from relkit.identities import UnsupportedError, builtin, builtin_names, check_for_all

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# one non-default parameter set per parametrised builtin
NON_DEFAULT = {
    "cdist2": {"h": 3},
    "cdist3": {"k": 3},
    "modular2": {"k": 3},
    "p12b1": {"m": 3, "n": 2},
    "p12b2": {"m": 4, "n": 2},
    "p12c2": {"m": 3, "k": 3},
    "vrIncl": {"h": 3},
    "malIncl": {"h": 3},
    "malA": {"f": (2, 1, 2)},
}

VERDICT_ALGEBRAS = ("lattice2", "z2", "z2^2")

README_COMMANDS = (
    ("check", "lattice2", "cdist2", "--h", "2"),
    ("check", "z2cube", "cdist3", "--k", "4"),
    ("check", "lattice_2x2", "uadm:s ; s == s"),
    ("check", "z2^2", "cdist2"),
    ("find-terms", "lattice2", "jonsson", "--max", "4"),
    ("find-terms", "lattice2", "mal", "--h", "2"),
    ("find-terms", "z2", "majority"),
    ("congruences", "z2cube"),
    ("free-algebra", "lattice2"),
    ("expansions", "malIncl", "--h", "2"),
    ("search-mainp", "--seed", "5", "--count", "2"),
)

TERM_FIXTURES = ("lattice2", "z2", "baker4", "lattice_2x2", "z2cube", "lattice_n5")
LADDER_SCHEMAS = ("jonsson", "directed-jonsson", "majority", "pixley")
CHAINS = (
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
TERMS_COMMANDS = (
    tuple(("find-terms", name, schema) for name in TERM_FIXTURES for schema in LADDER_SCHEMAS)
    + tuple(("find-terms", name, schema, "--h", str(h)) for name, schema, h in CHAINS)
    + tuple(
        ("find-terms", "lattice_n5", schema, "--h", "2", "--caps", '{"clone_cap_4": 20000}')
        for schema in ("vr", "mal")
    )
)
# the dumps are large: their reports are pinned by a digest
FREE_ALGEBRA_COMMANDS = (
    ("free-algebra", "lattice2", "--arity", "3"),
    ("free-algebra", "lattice2", "--arity", "4"),
    ("free-algebra", "baker4", "--arity", "4"),
    ("free-algebra", "lattice_2x2", "--arity", "4"),
    ("free-algebra", "lattice_n5", "--arity", "3"),
)


def spec_snapshot(spec) -> dict:
    return {
        "name": spec.name,
        "describe": spec.describe(),
        "mode": spec.mode,
        "variables": [[v, c.name] for v, c in spec.variables],
        "narrow": {v: c.name for v, c in spec.classes(narrow=True).items()},
        "wide": {v: c.name for v, c in spec.classes(narrow=False).items()},
        "free_seeds": None
        if spec.free_seeds is None
        else {v: [list(p) for p in pairs] for v, pairs in spec.free_seeds.items()},
    }


def builtin_snapshots() -> dict:
    out = {}
    for name in builtin_names():
        out[f"{name}()"] = spec_snapshot(builtin(name))
        if name in NON_DEFAULT:
            params = NON_DEFAULT[name]
            out[f"{name}{params}"] = spec_snapshot(builtin(name, **params))
    return out


def verdict_snapshots() -> dict:
    out = {}
    for alg_name in VERDICT_ALGEBRAS:
        alg = resolve(alg_name)
        for name in builtin_names():
            spec = builtin(name)
            for narrow in (True, False):
                for strategy in ("exhaustive", "principal"):
                    key = f"{alg_name}/{name}/{'narrow' if narrow else 'wide'}/{strategy}"
                    try:
                        v = check_for_all(alg, spec, strategy=strategy, narrow=narrow)
                        out[key] = v.report_form()
                    except UnsupportedError as exc:
                        out[key] = {"unsupported": str(exc)}
    # JSON turns the pair tuples into lists; compare in that form
    return json.loads(json.dumps(out))


def cli_json(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv) + ["--json"])
    return {"exit": code, "stdout": buf.getvalue()}


def cli_snapshots() -> dict:
    return {" ".join(argv): cli_json(argv) for argv in README_COMMANDS}


def cli_text(argv) -> dict:
    """The human output, exit code and stderr, without the wall-time line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = [line for line in out.getvalue().splitlines(True) if not line.startswith("wall-time:")]
    return {"exit": code, "stdout": "".join(lines), "stderr": err.getvalue()}


def text_snapshots() -> dict:
    return {" ".join(argv): cli_text(argv) for argv in README_COMMANDS}


def cli_digest(argv) -> dict:
    out = cli_json(argv)
    return {"exit": out["exit"], "sha256": hashlib.sha256(out["stdout"].encode()).hexdigest()}


def terms_snapshots() -> dict:
    out = {" ".join(argv): cli_json(argv) for argv in TERMS_COMMANDS}
    out.update({" ".join(argv): cli_digest(argv) for argv in FREE_ALGEBRA_COMMANDS})
    return out


def _load(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def test_builtin_specs_golden():
    want = _load("builtins.json")
    got = builtin_snapshots()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_builtin_verdicts_golden():
    want = _load("verdicts.json")
    got = verdict_snapshots()
    assert len(want) == 3 * 23 * 2 * 2
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_readme_cli_reports_golden():
    want = _load("cli.json")
    for argv in README_COMMANDS:
        key = " ".join(argv)
        assert cli_json(argv) == want[key], key


def test_readme_cli_text_golden():
    want = _load("text.json")
    assert sorted(want) == sorted(" ".join(argv) for argv in README_COMMANDS)
    for argv in README_COMMANDS:
        key = " ".join(argv)
        assert cli_text(argv) == want[key], key


def test_term_search_reports_golden():
    want = _load("terms.json")
    assert len(want) == len(TERMS_COMMANDS) + len(FREE_ALGEBRA_COMMANDS) == 41
    for argv in TERMS_COMMANDS:
        key = " ".join(argv)
        assert cli_json(argv) == want[key], key
    for argv in FREE_ALGEBRA_COMMANDS:
        key = " ".join(argv)
        assert cli_digest(argv) == want[key], key


def write_golden(name: str, data: dict) -> None:
    """One entry per line, so a changed value shows as one changed line."""
    lines = [f"{json.dumps(k)}: {json.dumps(data[k], sort_keys=True)}" for k in sorted(data)]
    with open(os.path.join(GOLDEN, name), "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


SNAPSHOTS = {
    "builtins.json": builtin_snapshots,
    "verdicts.json": verdict_snapshots,
    "cli.json": cli_snapshots,
    "text.json": text_snapshots,
    "terms.json": terms_snapshots,
}

if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in sys.argv[1:] or SNAPSHOTS:
        write_golden(name, SNAPSHOTS[name]())
