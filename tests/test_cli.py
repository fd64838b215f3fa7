import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import relkit
from relkit import cli
from relkit.cli import _REPLAYS, build_parser, main
from relkit.fixtures import resolve
from relkit.identities import builtin_names
from relkit.maltsev import SearchResult, find_jonsson
from test_golden import README_COMMANDS


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_check_holds_exit0(capsys):
    code, out, _ = run(capsys, "check", "lattice2", "cdist2", "--h", "2")
    assert code == 0
    assert "holds" in out and "exhaustive" in out


def test_check_refuted_exit1_with_counterexample(capsys):
    code, out, _ = run(capsys, "check", "z2cube", "cdist3", "--k", "4")
    assert code == 1
    assert "refuted" in out and "alpha" in out and "sigma" in out


def test_check_literal_spec(capsys):
    code, out, _ = run(capsys, "check", "lattice_2x2", "uadm:s ; s == s")
    assert code == 1  # the two projection kernels compose out of their union


def test_check_algebra_power_grammar(capsys):
    code, _, _ = run(capsys, "check", "z2^2", "cdist2", "--h", "2")
    assert code == 1  # three-atom congruence lattice defeats the chain


def test_check_json_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "check", "z2cube", "cdist3", "--k", "2", "--json")
        assert code == 1
        outs.append(out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["format"] == "relkit-report/1"
    assert report["result"]["holds"] is False
    assert report["result"]["counterexample"]["pair"]
    assert report["algebra"]["fingerprint"].startswith("8:")


def test_check_classes_override_flag(capsys):
    code, _, _ = run(
        capsys, "check", "lattice2", "modular2", "--k", "2", "--classes", "theta=adm"
    )
    assert code in (0, 1)  # accepted and evaluated; wide quantification is legal


def test_find_terms(capsys):
    code, out, _ = run(capsys, "check", "lattice2", "malA", "--f", "1,2")
    assert code == 0
    code, out, _ = run(capsys, "find-terms", "lattice2", "jonsson", "--max", "4")
    assert code == 0 and "'k': 2" in out and "replays" in out
    code, out, _ = run(capsys, "find-terms", "z2", "majority")
    assert code == 1 and "no" in out
    code, out, _ = run(capsys, "find-terms", "lattice2", "mal", "--h", "2")
    assert code == 0
    code, out, _ = run(capsys, "find-terms", "lattice2", "directed")
    assert code == 0


def test_find_terms_mal_linear_in_h(capsys):
    """One f per step is chosen from backward reachable sets, not each of
    the 2^h maps f tried in turn: h = 60 answers within 2 s."""
    started = time.perf_counter()
    code, out, _ = run(capsys, "find-terms", "z2", "mal", "--h", "60")
    assert time.perf_counter() - started < 2
    assert code == 1 and "found: no (conclusive)" in out


def test_find_terms_cap_hit_inconclusive(capsys):
    code, out, _ = run(
        capsys, "find-terms", "baker4", "jonsson", "--caps", '{"clone_cap_3": 5}'
    )
    assert code == 2 and "inconclusive" in out
    code, _, _ = run(
        capsys,
        "find-terms",
        "baker4",
        "jonsson",
        "--caps",
        '{"clone_cap_3": 5}',
        "--allow-truncated",
    )
    assert code == 0


@pytest.mark.parametrize(
    "schema, caps",
    [
        # the 3-ary clone stops at its cap; its 2^4 cells exceed the cell cap
        ("vr", '{"clone_cap_3": 5, "max_table_cells": 10}'),
        ("mal", '{"clone_cap_3": 5, "max_table_cells": 10}'),
        # the 4-ary clone stops at its cap; F(lattice2,3)'s 18^2 cells exceed it
        ("vr", '{"clone_cap_4": 20, "max_table_cells": 100}'),
    ],
)
def test_find_terms_capped_clone_skips_later_caps(capsys, schema, caps):
    """A capped clone answers inconclusive before any later construction
    could exceed a cap, so the report is printed rather than the cap message."""
    code, out, err = run(capsys, "find-terms", "lattice2", schema, "--h", "2", "--caps", caps)
    assert code == 2 and "found: no (inconclusive (cap hit))" in out
    assert "cap exceeded" not in err


def test_usage_errors_exit3(capsys):
    assert run(capsys, "check", "lattice2", "cong:a & <= b")[0] == 3
    assert run(capsys, "check", "nope", "cdist2")[0] == 3
    assert run(capsys, "check", "lattice2", "nope2")[0] == 3
    assert run(capsys, "check", "lattice2", "cdist2", "--caps", "{bad json")[0] == 3
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, low",
    [
        (("free-algebra", "lattice2", "--show", "-1"), 0),
        (("check", "lattice2", "cdist2", "--strategy", "sampled", "--samples", "-1"), 1),
        (("check", "lattice2", "cdist2", "--strategy", "sampled", "--samples", "0"), 1),
        (("search-mainp", "--max-size", "1"), 2),
        (("search-mainp", "--count", "-1"), 0),
    ],
    ids=["show", "samples-negative", "samples-zero", "max-size", "count"],
)
def test_count_flags_below_their_minimum_exit3(capsys, argv, low):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    assert err.startswith("usage:") and f"must be at least {low}" in err
    assert "Traceback" not in err


def test_parse_error_reports_column(capsys):
    code, out, err = run(capsys, "check", "lattice2", "cong:a ; <= a")
    assert code == 3 and "col" in (out + err)


def test_free_algebra(capsys):
    code, out, _ = run(capsys, "free-algebra", "lattice2", "--json")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 18
    code, out, _ = run(capsys, "free-algebra", "lattice2", "--cap", "5", "--json")
    assert code == 2
    assert json.loads(out)["result"]["count"] == 5
    code, _, _ = run(capsys, "free-algebra", "lattice2", "--cap", "5", "--allow-truncated")
    assert code == 0
    # a cap below the projection count cannot even start
    assert run(capsys, "free-algebra", "lattice2", "--cap", "2")[0] == 3


def test_free_algebra_listing_over_cell_cap_exit2(capsys):
    """The 166 tables of 2^4 cells (2,656) exceed a cell cap of 1,000: the
    clone stops at 63 tables, the first count over the cap, and the listing
    is refused with one line before any table is listed, as the arity-9
    listing is at the default cap.  A cap below the projection count is
    still a usage error, and a listing of exactly the cell cap is printed
    as without it."""
    argv = ("free-algebra", "lattice2", "--arity", "4", "--json")
    code, out, err = run(capsys, *argv, "--caps", '{"max_table_cells": 1000}')
    assert (code, out) == (2, "")
    assert err == "relkit: cap exceeded: listing at least 63 tables of 2^4 cells (1008) exceeds cell cap\n"
    assert run(capsys, *argv, "--cap", "2", "--caps", '{"max_table_cells": 1000}')[0] == 3
    code, out, err = run(capsys, *argv, "--caps", '{"max_table_cells": 2656}')
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv)[1] and json.loads(out)["result"]["count"] == 166


def test_congruences_listing(capsys):
    code, out, _ = run(capsys, "congruences", "z2cube", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["count"] == 16
    code, out, _ = run(capsys, "congruences", "z2cube")
    assert code == 0 and "covers" in out


def test_expansions_listing(capsys):
    code, out, _ = run(capsys, "expansions", "malIncl", "--h", "2", "--json")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 4
    code, out, _ = run(capsys, "expansions", "cong:a & (uadm:s ; s) <= s ; s")
    assert code == 0 and out.count("<=") >= 4


def test_verify_replays_expansions(tmp_path, capsys):
    """An expansions report replays only with exactly the listed expansions
    and count of its spec, enumerated within verify's caps."""
    rpt = tmp_path / "expansions.json"
    assert run(capsys, "expansions", "malIncl", "--h", "2", "--out", str(rpt))[0] == 0
    assert run(capsys, "verify", str(rpt)) == (0, "verify: ok\n", "")
    forged = tmp_path / "forged.json"

    def verify_forged(tamper):
        data = json.loads(rpt.read_text())
        tamper(data["result"])
        forged.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(forged))
        assert code == 1 and out == "", err
        return err

    def drop_last(result):  # the forgery that printed "verify: ok"
        result["expansions"].pop()
        result["count"] = 3

    assert "lists 3 expansions (count 3), the spec has 4" in verify_forged(drop_last)
    verify_forged(lambda result: result.update(count=5))
    verify_forged(lambda result: result["expansions"].reverse())
    verify_forged(lambda result: result["expansions"][0].update(identity="s <= s"))
    code, _, err = run(capsys, "verify", str(rpt), "--caps", '{"max_relations": 3}')
    assert code == 1 and "cannot re-derive the expansions" in err


def test_verify_roundtrip(tmp_path, capsys):
    rpt = tmp_path / "refutation.json"
    code, _, _ = run(capsys, "check", "z2cube", "cdist3", "--k", "2", "--out", str(rpt))
    assert code == 1
    assert run(capsys, "verify", str(rpt))[0] == 0

    # tampered assignment: no longer a congruence
    data = json.loads(rpt.read_text())
    var = sorted(data["result"]["counterexample"]["assignment"])[0]
    value = data["result"]["counterexample"]["assignment"][var]
    target = value if value["kind"] == "relation" else {"pairs": value["components"][0]}
    target["pairs"] = [p for p in target["pairs"] if p[0] == p[1]][:2]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1

    # stale fingerprint
    data = json.loads(rpt.read_text())
    data["algebra"]["fingerprint"] = "8:" + "0" * 16
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(stale))
    assert code == 1 and "fingerprint" in (out + err)


def test_verify_certificate_report(tmp_path, capsys):
    rpt = tmp_path / "terms.json"
    assert run(capsys, "find-terms", "lattice2", "vr", "--h", "2", "--out", str(rpt))[0] == 0
    assert run(capsys, "verify", str(rpt))[0] == 0
    data = json.loads(rpt.read_text())
    data["result"]["system"]["equations"][0]["rhs"] = "x2"
    bad = tmp_path / "bad_terms.json"
    bad.write_text(json.dumps(data))
    assert run(capsys, "verify", str(bad))[0] == 1


def test_out_matches_json_output(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out, _ = run(
        capsys, "check", "lattice2", "cdist2", "--h", "2", "--json", "--out", str(path)
    )
    assert code == 0
    assert path.read_text() == out


def test_search_mainp_deterministic(capsys):
    a = run(capsys, "search-mainp", "--seed", "5", "--count", "2", "--max-size", "3", "--json")
    b = run(capsys, "search-mainp", "--seed", "5", "--count", "2", "--max-size", "3", "--json")
    assert a[0] == 0 and a == b
    rows = json.loads(a[1])["result"]["observations"]
    assert rows and all(r["coverage"] == "exhaustive" for r in rows)


def test_caps_type_checked_exit3(capsys, monkeypatch):
    for bad in (
        '{"max_relations": 0}',
        '{"max_relations": 2.5}',
        '{"clone_cap_3": true}',
        '{"max_universe": null}',
    ):
        code, _, err = run(capsys, "check", "lattice2", "cdist2", "--caps", bad)
        assert code == 3 and "must be an integer" in err, bad
    for removed in (
        '{"exhaustive_threshold": 5}',
        '{"seed_pairs": 2}',
        '{"max_components": 3}',
        '{"max_components": null}',
    ):
        code, _, err = run(capsys, "check", "lattice2", "cdist2", "--caps", removed)
        assert code == 3 and "unknown keys" in err
    monkeypatch.setenv("RELKIT_CAPS", '{"max_components": "x"}')
    assert run(capsys, "check", "lattice2", "cdist2")[0] == 3


def test_removed_generated_strategy_exit3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "lattice2", "cdist2", "--strategy", "generated"])
    assert exc.value.code == 3
    assert "invalid choice" in capsys.readouterr().err


def test_uadm_check_exhaustive_on_z2cube(capsys):
    # every union of reflexive-admissible relations is in the pool, so the
    # verdict is exhaustive rather than truncated
    code, out, _ = run(capsys, "check", "z2cube", "uadm:s & uadm:t <= s")
    assert code == 0 and "holds (exhaustive)" in out


def test_cap_exceeded_exit2_without_traceback(capsys):
    code, _, err = run(capsys, "check", "z2^30", "cdist2", "--h", "2")
    assert code == 2
    assert "cap exceeded" in err and "Traceback" not in err


def test_verify_congruences_rederives_completeness(tmp_path, capsys):
    rpt = tmp_path / "congruences.json"
    assert run(capsys, "congruences", "z2cube", "--out", str(rpt))[0] == 0
    assert run(capsys, "verify", str(rpt))[0] == 0
    data = json.loads(rpt.read_text())
    del data["result"]["congruences"][5]
    data["result"]["count"] -= 1
    short = tmp_path / "short.json"
    short.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(short))
    assert code == 1 and "16" in err


def test_verify_free_algebra_report(tmp_path, capsys):
    code, out, _ = run(capsys, "free-algebra", "lattice2", "--json")
    assert code == 0
    fresh = tmp_path / "free3.json"
    fresh.write_text(out)
    assert run(capsys, "verify", str(fresh))[0] == 0

    # every element is replayed, not only the first twenty
    rpt = tmp_path / "free4.json"
    assert run(capsys, "free-algebra", "lattice2", "--arity", "4", "--out", str(rpt))[0] == 0
    assert run(capsys, "verify", str(rpt))[0] == 0
    data = json.loads(rpt.read_text())
    el = data["result"]["elements"][25]
    assert el["id"] == 25
    el["table"][0] = 1 - el["table"][0]
    bad = tmp_path / "free4_bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and "#25" in err


def test_verify_free_algebra_rederives_completeness(tmp_path, capsys):
    rpt = tmp_path / "free3.json"
    assert run(capsys, "free-algebra", "lattice2", "--out", str(rpt))[0] == 0
    data = json.loads(rpt.read_text())
    assert data["result"]["complete"] is True and data["result"]["count"] == 18
    forged = tmp_path / "forged.json"
    for recount in (False, True):  # the last three elements deleted
        data = json.loads(rpt.read_text())
        del data["result"]["elements"][-3:]
        data["result"]["count"] -= 3 * recount
        forged.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(forged))
        assert code == 1 and out == "" and "the clone has 18" in err, recount
    data = json.loads(rpt.read_text())
    data["result"]["elements"][-1] = dict(data["result"]["elements"][-2], id=17)  # a duplicate
    forged.write_text(json.dumps(data))
    assert run(capsys, "verify", str(forged))[0] == 1
    # a complete listing the caps cannot re-derive fails; --caps lifts them
    code, _, err = run(capsys, "verify", str(rpt), "--caps", '{"clone_cap_3": 17}')
    assert code == 1 and "cannot re-derive" in err
    assert run(capsys, "verify", str(rpt), "--caps", '{"clone_cap_3": 18}')[0] == 0
    # a truncated listing claims soundness only
    assert run(capsys, "free-algebra", "lattice2", "--cap", "5", "--out", str(rpt))[0] == 2
    assert run(capsys, "verify", str(rpt))[0] == 0


def test_verify_free_algebra_report_with_constant(tmp_path, capsys):
    # a meet semilattice on {0, 1} with the constant 0: witnesses print c()
    alg = tmp_path / "semilattice0.json"
    alg.write_text(json.dumps({"size": 2, "ops": [
        {"name": "c", "arity": 0, "table": [0]},
        {"name": "meet", "arity": 2, "table": [0, 0, 0, 1]},
    ]}))
    rpt = tmp_path / "free2.json"
    assert run(capsys, "free-algebra", str(alg), "--arity", "2", "--out", str(rpt))[0] == 0
    assert any("c()" in el["witness"] for el in json.loads(rpt.read_text())["result"]["elements"])
    assert run(capsys, "verify", str(rpt))[0] == 0


def test_power_grammar_respects_caps(capsys):
    code, _, err = run(capsys, "congruences", "z2^3", "--caps", '{"max_universe": 4}')
    assert code == 2 and "relkit: cap exceeded" in err


def test_malformed_algebra_file_exit3(tmp_path, capsys):
    for text, field in (('{"size": 2, "ops": 5}', "'ops'"), ('{"size": 2}', "'ops'")):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(capsys, "congruences", str(path))
        assert code == 3 and field in err and "Traceback" not in err, text


def test_verify_equality_refutation_checks_pair(tmp_path, capsys):
    rpt = tmp_path / "eq.json"
    assert run(capsys, "check", "lattice_2x2", "uadm:s ; s == s", "--out", str(rpt))[0] == 1
    assert run(capsys, "verify", str(rpt))[0] == 0
    data = json.loads(rpt.read_text())
    data["result"]["counterexample"]["pair"] = [0, 0]  # s is reflexive: in both sides
    moved = tmp_path / "eq_moved.json"
    moved.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(moved))
    assert code == 1 and "violating pair" in err


def test_verify_principal_refutation_pair(tmp_path, capsys):
    """A principal refutation reports a pair outside the right side, even
    where the first failing assignment also fails at a smaller pair."""
    alg = tmp_path / "a.json"
    alg.write_text(json.dumps(
        {"size": 3, "ops": [{"name": "f", "arity": 2, "table": [0, 1, 2, 0, 1, 1, 0, 1, 2]}]}
    ))
    rpt = tmp_path / "p.json"
    argv = ["check", str(alg), "adm:r ; adm:s <= s ; r", "--strategy", "principal"]
    assert run(capsys, *argv, "--out", str(rpt))[0] == 1
    assert json.loads(rpt.read_text())["result"]["counterexample"]["pair"] != [0, 0]
    code, _, err = run(capsys, "verify", str(rpt))
    assert code == 0, err


def test_verify_non_object_report_exit3(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "JSON object" in err and "Traceback" not in err


def test_verify_malformed_free_algebra_report_fails(tmp_path, capsys):
    code, out, _ = run(capsys, "free-algebra", "lattice2", "--json")
    assert code == 0
    data = json.loads(out)
    data["result"]["elements"][3] = 5
    bad = tmp_path / "free3_malformed.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and err.startswith("verify: FAIL:") and "Traceback" not in err


def _tampered_terms_report(tmp_path, capsys, argv, tamper):
    rpt = tmp_path / "terms.json"
    assert run(capsys, "find-terms", *argv, "--out", str(rpt))[0] == 0
    assert run(capsys, "verify", str(rpt))[0] == 0
    data = json.loads(rpt.read_text())
    tamper(data["result"]["system"])
    bad = tmp_path / "terms_tampered.json"
    bad.write_text(json.dumps(data))
    return run(capsys, "verify", str(bad))


def test_verify_terms_report_without_equations_fails(tmp_path, capsys):
    def empty(system):
        system["equations"] = []

    code, _, err = _tampered_terms_report(tmp_path, capsys, ["lattice2", "jonsson"], empty)
    assert code == 1 and err.startswith("verify: FAIL:")


def test_verify_terms_report_with_replaced_term_fails(tmp_path, capsys):
    def replace(system):
        system["terms"]["j1"] = "x"

    code, _, err = _tampered_terms_report(tmp_path, capsys, ["lattice2", "jonsson"], replace)
    assert code == 1 and err.startswith("verify: FAIL:")


def test_verify_terms_report_with_wrong_bound_fails(tmp_path, capsys):
    for k in (3, 10**12):  # the names j0..jk are never built for a huge k

        def rebound(system):
            system["params"]["k"] = k

        code, _, err = _tampered_terms_report(tmp_path, capsys, ["lattice2", "jonsson"], rebound)
        assert code == 1 and err.startswith("verify: FAIL:")


FOUND_FORGERIES = [
    # a Jonsson ladder passed off as a majority term, which baker4 lacks
    (["baker4", "jonsson", "--max", "4"], lambda d: d["command"].update(schema="majority")),
    (["lattice2", "jonsson", "--max", "4"], lambda d: d["result"].update(bound=1)),
    (["lattice2", "jonsson", "--max", "4"], lambda d: d["result"].update(shortest=7)),
    (["lattice2", "directed", "--max", "4"], lambda d: d["result"].update(shortest=None)),
    (["lattice2", "vr", "--h", "2"], lambda d: d["result"].update(bound=5)),
    (["lattice2", "vr", "--h", "2"], lambda d: d["result"].update(shortest=None)),
    (["lattice2", "mal", "--h", "2"], lambda d: d["result"].update(shortest=2)),
    (["lattice2", "majority"], lambda d: d["result"].update(bound=8)),
    (["lattice2", "majority"], lambda d: d["command"].update(schema="pixley")),
]


@pytest.mark.parametrize("argv, tamper", FOUND_FORGERIES, ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_verify_rejects_a_found_report_with_another_schema_or_bound(tmp_path, capsys, argv, tamper):
    """A found system's schema must be the one the command names, and bound
    and shortest those its search reports; verify checks them without
    running the search again."""
    rpt = tmp_path / "found.json"
    assert run(capsys, "find-terms", *argv, "--out", str(rpt))[0] == 0
    assert run(capsys, "verify", str(rpt))[0] == 0
    data = json.loads(rpt.read_text())
    tamper(data)
    rpt.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(rpt))
    assert code == 1 and "verify: ok" not in out and err.startswith("verify: FAIL:"), err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("lattice2", "majority", "--max", "-5"), "--max"),
        (("lattice2", "jonsson", "--h", "-3"), "--h"),
        (("lattice2", "vr", "--h", "2", "--max", "-7"), "--max"),
    ],
)
def test_a_bound_flag_the_schema_does_not_read_is_a_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, "find-terms", *argv)
    assert code == 3 and out == "" and f"reads no {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize("schema", ["jonsson", "directed"])
def test_ladder_bound_below_one_is_a_usage_error(capsys, schema):
    for bound in ("0", "-1"):
        code, _, err = run(capsys, "find-terms", "lattice2", schema, "--max", bound)
        assert code == 3 and "ladder bound must be >= 1" in err
    with pytest.raises(ValueError):
        find_jonsson(resolve("lattice2"), max_k=-1)


def test_verify_replays_a_conclusive_absence(tmp_path, capsys):
    """An absence claimed conclusive is searched for again at the report's
    bound: a forged absence of a system the search finds fails, as does one
    the search cannot settle within verify's caps or with another shortest."""
    rpt = tmp_path / "found.json"
    assert run(capsys, "find-terms", "lattice2", "majority", "--out", str(rpt))[0] == 0
    data = json.loads(rpt.read_text())
    data["result"].update(found=False, system=None)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(forged))
    assert code == 1 and "verify: ok" not in out and "finds a majority system" in err
    data["result"]["conclusive"] = False  # an inconclusive absence claims nothing
    forged.write_text(json.dumps(data))
    assert run(capsys, "verify", str(forged))[0] == 0

    absent = tmp_path / "absent.json"
    assert run(capsys, "find-terms", "z2", "vr", "--h", "2", "--out", str(absent))[0] == 1
    assert run(capsys, "verify", str(absent))[0] == 0
    code, _, err = run(capsys, "verify", str(absent), "--caps", '{"clone_cap_4": 5}')
    assert code == 1 and "cannot re-derive the absence" in err

    # z2 has no MalF system at any h, and the search is linear in h
    assert run(capsys, "find-terms", "z2", "mal", "--h", "2", "--out", str(absent))[0] == 1
    data = json.loads(absent.read_text())
    data["result"]["bound"] = 40
    absent.write_text(json.dumps(data))
    started = time.perf_counter()
    assert run(capsys, "verify", str(absent))[0] == 0
    assert time.perf_counter() - started < 2

    beyond = tmp_path / "beyond.json"
    assert run(capsys, "find-terms", "baker4", "jonsson", "--max", "3", "--out", str(beyond))[0] == 1
    assert run(capsys, "verify", str(beyond))[0] == 0
    data = json.loads(beyond.read_text())
    assert data["result"]["shortest"] == 4
    data["result"]["shortest"] = None
    beyond.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(beyond))
    assert code == 1 and "shortest" in err


def test_verify_cross_checks_a_chain_absence_with_the_seed_verdict(tmp_path, capsys, monkeypatch):
    """A conclusive vr/mal absence must also be the seed verdict on F(A,3):
    a search that wrongly reports one, in the command and in its replay
    alike, fails verify, and so does an F(A,3) too large for the caps."""
    absent = tmp_path / "absent.json"
    assert run(capsys, "find-terms", "z2", "vr", "--h", "2", "--out", str(absent))[0] == 1
    code, _, err = run(capsys, "verify", str(absent), "--caps", '{"max_table_cells": 32}')
    assert code == 1 and "cannot re-derive the absence within the caps" in err  # 8^2 cells

    monkeypatch.setitem(cli._SEARCHES, "vr", lambda alg, bound, caps: SearchResult(False, None, bound, True))
    assert run(capsys, "find-terms", "lattice2", "vr", "--h", "2", "--out", str(absent))[0] == 1
    code, out, err = run(capsys, "verify", str(absent))
    assert code == 1 and "verify: ok" not in out and "vrIncl(2) holds on F(A,3)" in err


@pytest.mark.parametrize("schema", ["vr", "mal"])
def test_verify_builds_the_free_algebra_once_per_chain_absence(tmp_path, capsys, monkeypatch, schema):
    """The seed-verdict cross-check reads F(A,3) off the 3-ary clone the
    replayed search generated, so verify generates it once."""
    absent = tmp_path / "absent.json"
    assert run(capsys, "find-terms", "z2", schema, "--h", "2", "--out", str(absent))[0] == 1
    arities = []
    for module in (cli, relkit.maltsev):
        real = module.generate_clone
        monkeypatch.setattr(
            module, "generate_clone", lambda alg, k, *a, _real=real, **kw: arities.append(k) or _real(alg, k, *a, **kw)
        )
    code, out, _ = run(capsys, "verify", str(absent))
    assert code == 0 and "verify: ok" in out
    assert sorted(arities) == [3, 4]


def _every(key, value):
    """A tamper that sets key to value in every entry of a listing."""

    def tamper(entries):
        for entry in entries:
            entry[key] = value

    return tamper


# (the command that writes a genuine report, the edit, extra verify flags,
# the exit code verify must give); exit 0 marks a claim verify does not
# re-check, with the reason
REPORT_EDITS = {
    # congruences: the listing is re-derived and compared whole
    "congruences covers": (["congruences", "z2cube"], lambda d: d["result"].update(hasse_covers=[[0, 1]]), [], 1),
    "congruences blocks": (["congruences", "z2cube"], lambda d: d["result"]["congruences"][5].update(blocks=[[0, 1]]), [], 1),
    "congruences count": (["congruences", "z2cube"], lambda d: d["result"].update(count=17), [], 1),
    # free-algebra: likewise, and the command's arity is the one re-run
    "free-algebra depths": (["free-algebra", "lattice2"], lambda d: _every("depth", 7)(d["result"]["elements"]), [], 1),
    "free-algebra id": (["free-algebra", "lattice2"], lambda d: d["result"]["elements"][0].update(id=99), [], 1),
    "free-algebra arity 2": (["free-algebra", "lattice2"], lambda d: d["command"].update(arity=2), [], 1),
    # the 7,579 tables of arity 5 take seconds; within small caps the re-run
    # is truncated, which fails as well
    "free-algebra arity 5": (["free-algebra", "lattice2"], lambda d: d["command"].update(arity=5),
                             ["--caps", '{"clone_cap_4": 50}'], 1),
    "free-algebra count": (["free-algebra", "lattice2"], lambda d: d["result"].update(count=19), [], 1),
    # find-terms, a conclusive absence: the search runs again
    "absence system": (["find-terms", "z2", "majority"],
                       lambda d: d["result"].update(system={"schema": "Majority"}), [], 1),
    "absence verdict": (["find-terms", "z2", "majority"], lambda d: d["result"].update(found=True), [], 1),
    # find-terms, found: the system is rebuilt from its terms, no search runs
    "found certificate_ok": (["find-terms", "lattice2", "jonsson"],
                             lambda d: d["result"].update(certificate_ok=False), [], 1),
    "found verdict": (["find-terms", "lattice2", "jonsson"], lambda d: d["result"].update(found=False), [], 1),
    # check: the spec block is rebuilt, the counterexample re-checked
    "check spec": (["check", "z2cube", "cdist3", "--k", "4"],
                   lambda d: d["spec"].update(identity="alpha <= alpha", mode="equality"), [], 1),
    "check pair": (["check", "z2cube", "cdist3", "--k", "4"],
                   lambda d: d["result"]["counterexample"].update(pair=[0, 0]), [], 1),
    # expansions: the spec block and the listing are re-derived
    "expansions spec": (["expansions", "malIncl", "--h", "2"],
                        lambda d: d["spec"].update(identity="s <= s", classes={"s": "UAdmissible"}), [], 1),
    "expansions count": (["expansions", "malIncl", "--h", "2"], lambda d: d["result"].update(count=5), [], 1),
    # malformed: a missing field, or a null block the verdict needs
    "found system null": (["find-terms", "lattice2", "jonsson"], lambda d: d["result"].update(system=None), [], 1),
    "found no certificate_ok": (["find-terms", "lattice2", "jonsson"],
                                lambda d: d["result"].pop("certificate_ok"), [], 1),
    "found no schema": (["find-terms", "lattice2", "jonsson"], lambda d: d["command"].pop("schema"), [], 1),
    "check no pair": (["check", "z2cube", "cdist3", "--k", "4"],
                      lambda d: d["result"]["counterexample"].pop("pair"), [], 1),
    "check counterexample null": (["check", "z2cube", "cdist3", "--k", "4"],
                                  lambda d: d["result"].update(counterexample=None), [], 1),
    # not re-checked: a holds or truncated verdict is not re-decided (ROADMAP item 4)
    "check holds": (["check", "z2cube", "cdist3", "--k", "4"],
                    lambda d: d["result"].update(holds=True, counterexample=None), [], 0),
    "check truncated": (["check", "z2cube", "cdist3", "--k", "4"],
                        lambda d: d["result"].update(holds=None, counterexample=None), [], 0),
    # not re-checked: a found report's conclusive flag; the certificate is what it claims
    "found conclusive": (["find-terms", "lattice2", "jonsson"], lambda d: d["result"].update(conclusive=False), [], 0),
    # not re-checked: an inconclusive absence claims nothing
    "inconclusive absence": (["find-terms", "z2", "majority"], lambda d: d["result"].update(conclusive=False), [], 0),
    # not re-checked: search-mainp reports observations and replays nothing
    "search-mainp": (["search-mainp", "--seed", "5", "--count", "2"],
                     lambda d: _every("holds", False)(d["result"]["observations"]), [], 0),
}


# edit -> what verify's message must say: the field a malformed report
# lacks, or the null block its verdict needs
NAMED_FIELDS = {
    "absence verdict": "a found report needs a 'system' block, not null",
    "found system null": "a found report needs a 'system' block, not null",
    "found no certificate_ok": "the report has no 'certificate_ok' field",
    "found no schema": "the report has no 'schema' field",
    "check no pair": "the report has no 'pair' field",
    "check counterexample null": "a refutation needs a 'counterexample' block, not null",
}


@pytest.mark.parametrize("edit", REPORT_EDITS)
def test_one_forged_report_per_type(tmp_path, capsys, edit):
    """A genuine report of each type verifies; each edit of a block verify
    re-derives or re-checks fails it, and the claims verify leaves alone
    still print verify: ok.  A malformed report's message names the field
    it lacks or the null block its verdict needs."""
    argv, tamper, flags, expected = REPORT_EDITS[edit]
    rpt = tmp_path / "report.json"
    run(capsys, *argv, "--out", str(rpt))
    assert run(capsys, "verify", str(rpt)) == (0, "verify: ok\n", "")
    data = json.loads(rpt.read_text())
    tamper(data)
    rpt.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(rpt), *flags)
    if expected == 0:
        assert (code, out, err) == (0, "verify: ok\n", "")
    else:
        assert code == 1 and out == "" and err.startswith("verify: FAIL:") and "Traceback" not in err, err
        assert NAMED_FIELDS.get(edit, "") in err, err


ONE_ELEMENT = {
    "binary": {"size": 1, "ops": [{"name": "f", "arity": 2, "table": [0]}]},
    "no_ops": {"size": 1, "ops": []},
}


@pytest.mark.parametrize("name", ONE_ELEMENT)
def test_find_terms_on_one_element_algebras(tmp_path, capsys, name):
    """On one element x = y = z is clone id 0 and every system exists, with
    one-step ladders: each search exits 0 with a certificate that verify
    replays."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(ONE_ELEMENT[name]))
    rpt = tmp_path / "report.json"
    expected = {"majority": {}, "pixley": {}, "jonsson": {"k": 1}, "directed": {"n": 1},
                "vr": {"h": 2}, "mal": {"h": 2, "f": [1, 1]}}
    flags = {"jonsson": ["--max", "2"], "directed": ["--max", "2"], "vr": ["--h", "2"], "mal": ["--h", "2"]}
    for schema, params in expected.items():
        argv = ["find-terms", str(path), schema, *flags.get(schema, []), "--out", str(rpt)]
        code, _, err = run(capsys, *argv)
        assert code == 0 and "Traceback" not in err, schema
        result = json.loads(rpt.read_text())["result"]
        assert result["certificate_ok"] is True and result["system"]["params"] == params, schema
        assert run(capsys, "verify", str(rpt))[:2] == (0, "verify: ok\n"), schema
    code, _, err = run(capsys, "find-terms", str(path), "mal")
    assert code == 3 and "mal needs --h" in err


def test_verify_rejects_operation_arity_mismatch(tmp_path, capsys):
    # join(t) read as a unary lookup of the binary join table is t itself on
    # lattice2, so only the arity check stops this certificate
    def wrap(system):
        m = system["terms"]["m"]
        system["terms"]["m"] = f"join({m})"
        for eq in system["equations"]:
            assert eq["lhs"] == m
            eq["lhs"] = f"join({m})"

    code, _, err = _tampered_terms_report(tmp_path, capsys, ["lattice2", "majority"], wrap)
    assert code == 1 and err.startswith("verify: FAIL:") and "arity" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "lattice2", "cdist2", "--h", "3000"),
        ("check", "lattice2", "(" * 1200 + "adm:r" + ")" * 1200 + " <= adm:r"),
        ("expansions", "malIncl", "--h", "3000"),
    ],
    ids=["builtin", "literal", "expansions"],
)
def test_deep_expressions_exit3_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3 and "nests too deeply" in err and "Traceback" not in err


def test_expansions_over_cap_exit2_before_listing(capsys, monkeypatch):
    """2^300 expansions of cdist2 are counted, not built, and exceed
    max_relations; expansions reads caps as every subcommand does."""
    started = time.perf_counter()
    code, out, err = run(capsys, "expansions", "cdist2", "--h", "300")
    assert time.perf_counter() - started < 1
    assert code == 2 and out == "" and "cap exceeded" in err and "Traceback" not in err
    code, _, err = run(capsys, "expansions", "malIncl", "--h", "2", "--caps", '{"max_relations": 3}')
    assert code == 2 and "4 expansions exceed max_relations = 3" in err
    monkeypatch.setenv("RELKIT_CAPS", "nope")
    assert run(capsys, "expansions", "malIncl", "--h", "2")[0] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "lattice2", "cdist2", "--strategy", "sampled"),
        ("find-terms", "lattice2", "jonsson", "--caps", '{"clone_cap_3": 5}'),
        ("free-algebra", "lattice2", "--cap", "5"),
        ("congruences", "z2cube", "--caps", '{"max_relations": 2}'),
    ],
    ids=lambda argv: argv[0],
)
def test_truncated_exits_2_and_0_when_allowed(capsys, argv):
    assert run(capsys, *argv)[0] == 2
    assert run(capsys, *argv, "--allow-truncated")[0] == 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (("find-terms", "z2", "majority"), 1),
        (("check", "lattice2", "cdist2", "--h", "0"), 3),
        (("check", "z2^30", "cdist2", "--h", "2"), 2),  # a cap exceeded is not a truncation
    ],
)
def test_allow_truncated_keeps_other_exit_codes(capsys, argv, code):
    assert run(capsys, *argv)[0] == code
    assert run(capsys, *argv, "--allow-truncated")[0] == code


def test_every_report_type_has_a_replay_entry(tmp_path, capsys):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(_REPLAYS) == set(subparsers.choices) - {"verify"}
    code, out, _ = run(capsys, "expansions", "malIncl", "--json")
    assert code == 0
    report = json.loads(out)
    report["command"]["subcommand"] = "no-such-command"
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(report))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 1 and "unknown subcommand" in err


def _parser_corpus(tmp_path):
    """Command lines whose output must not depend on the parser having
    parsed others before them: the README commands, usage errors, every
    --help, a cap exceeded, truncated runs, a verify, and pairs whose second
    member drops an option the first one set."""
    report = tmp_path / "refutation.json"
    subcommands = ("check", "find-terms", "free-algebra", "congruences", "expansions", "verify", "search-mainp")
    return [
        *README_COMMANDS,
        ("check", "z2cube", "cdist3", "--k", "2", "--out", str(report)),
        ("verify", str(report)),
        ("check", "lattice2", "cdist2", "--caps", '{"max_relations": 1}'),
        ("check", "lattice2", "cdist2"),
        ("check", "lattice2", "cdist2", "--strategy", "sampled", "--samples", "5", "--seed", "3"),
        ("check", "lattice2", "cdist2", "--strategy", "sampled"),
        ("free-algebra", "lattice2", "--cap", "5", "--allow-truncated"),
        ("free-algebra", "lattice2", "--cap", "5"),
        ("free-algebra", "lattice2", "--arity", "2", "--json"),
        ("free-algebra", "lattice2", "--arity", "2"),
        ("find-terms", "lattice2", "jonsson", "--caps", '{"clone_cap_3": 5}'),
        ("find-terms", "lattice2", "jonsson"),
        ("check", "z2^30", "cdist2", "--h", "2"),
        ("check", "lattice2", "modular2", "--k", "2", "--classes", "theta=adm"),
        ("check", "lattice2", "modular2", "--k", "2"),
        ("check", "lattice2"),
        ("check", "lattice2", "cdist2", "--strategy", "generated"),
        ("check", "lattice2", "cdist2", "--h", "two"),
        ("no-such-command",),
        (),
        ("check", "lattice2", "cong:a ; <= a"),
        ("--help",),
        *((sub, "--help") for sub in subcommands),
    ]


def _call(argv):
    """Exit code, stdout without the wall-time line, and stderr of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    lines = [line for line in out.getvalue().splitlines(True) if not line.startswith("wall-time:")]
    return code, "".join(lines), err.getvalue()


def test_reused_parser_matches_fresh_parser(tmp_path, monkeypatch):
    """The corpus run through main in one process, parsed by the parser main
    keeps, prints what it prints with a fresh parser for every call."""
    corpus = _parser_corpus(tmp_path)
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [_call(argv) for argv in corpus]
    fresh = []
    for argv in corpus:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(_call(argv))
    for argv, a, b in zip(corpus, reused, fresh):
        assert a == b, argv
    codes = {code for code, _, _ in reused}
    assert codes == {0, 1, 2, 3}, codes
    assert reused[len(README_COMMANDS) + 1] == (0, "verify: ok\n", "")


def test_main_builds_its_parser_once(monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(10):
        assert _call(["check", "lattice2", "cdist2", "--h", "2"])[0] == 0
        assert _call(["expansions", "malIncl", "--h", "2"])[0] == 0
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import relkit.cli\n"
        "print(len(built), relkit.cli._PARSER)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(relkit.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "0 None\n"


# each builtin's parameter flags; the others take none
BUILTIN_PARAMS = {
    "cdist2": "h", "cdist3": "k", "modular2": "k", "vrIncl": "h", "malIncl": "h",
    "p12b1": "mn", "p12b2": "mn", "p12c2": "mk", "malA": "f",
}


@st.composite
def _builtin_args(draw, long_chains):
    """A builtin, half the time one with parameters, and values for its
    flags.  The number of expansions grows exponentially with the chain
    length, so ``expansions`` gets short chains."""
    name = draw(st.sampled_from(sorted(BUILTIN_PARAMS)) | st.sampled_from(builtin_names()))
    argv = [name]
    for key in BUILTIN_PARAMS.get(name, ""):
        if key == "f":
            value = ",".join(map(str, draw(st.lists(st.integers(0, 3), max_size=4))))
        elif key in "hk":
            value = draw(st.integers(-2, 4000 if long_chains else 4))
        else:
            value = draw(st.integers(-2, 8 if long_chains else 3))
        argv += [f"--{key}", str(value)]
    return argv


_ALGEBRAS = st.sampled_from(["lattice2", "z2"])
_CHECK_ARGV = st.tuples(
    st.just(["check"]), _ALGEBRAS.map(lambda a: [a]), _builtin_args(long_chains=True),
    st.sampled_from(["exhaustive", "sampled", "principal"]).map(lambda s: ["--strategy", s]),
)
# check, the subcommand with the most inputs, is drawn a third of the time
_CHEAP_ARGV = st.one_of(
    _CHECK_ARGV,
    _CHECK_ARGV,
    st.tuples(
        st.just(["find-terms"]), _ALGEBRAS.map(lambda a: [a]),
        st.sampled_from(["jonsson", "directed", "directed-jonsson", "majority", "pixley", "vr", "mal", "nope"]).map(lambda s: [s]),
        st.one_of(st.just([]), st.integers(-2, 3).map(lambda h: ["--h", str(h)])),
        st.one_of(st.just([]), st.integers(-2, 3).map(lambda m: ["--max", str(m)])),
    ),
    st.tuples(
        st.just(["free-algebra"]), _ALGEBRAS.map(lambda a: [a]),
        st.integers(-2, 4).map(lambda k: ["--arity", str(k)]),
    ),
    st.tuples(st.just(["congruences"]), _ALGEBRAS.map(lambda a: [a])),
    st.tuples(st.just(["expansions"]), _builtin_args(long_chains=False)),
    st.tuples(
        st.just(["search-mainp"]), st.integers(-2, 1).map(lambda c: ["--count", str(c)]),
        st.integers(0, 9).map(lambda s: ["--seed", str(s)]),
    ),
).map(lambda parts: [word for part in parts for word in part])


@seed(21)
@settings(max_examples=60, deadline=None)
@given(_CHEAP_ARGV)
def test_cli_fuzz_exit_codes_without_traceback(argv):
    """Every cheap command line ends in an exit code, never in a traceback."""
    err = io.StringIO()
    # hypothesis raises the recursion limit while it runs a test; run the
    # command under the interpreter's default, as the program runs
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        sys.setrecursionlimit(limit)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
