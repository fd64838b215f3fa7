"""Golden guard for the builtin library, the checker's verdicts and the CLI
reports of the README examples.

The expected values in ``tests/golden/`` were recorded from the code and
must not move when the implementation is restructured.  Re-record them only
for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

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


def write_golden(name: str, data: dict) -> None:
    """One entry per line, so a changed value shows as one changed line."""
    lines = [f"{json.dumps(k)}: {json.dumps(data[k], sort_keys=True)}" for k in sorted(data)]
    with open(os.path.join(GOLDEN, name), "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    write_golden("builtins.json", builtin_snapshots())
    write_golden("verdicts.json", verdict_snapshots())
    write_golden("cli.json", cli_snapshots())
