import json

import pytest

from relkit.cli import main


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


def test_check_sampled_is_open(capsys):
    code, out, _ = run(capsys, "check", "lattice2", "cdist2", "--strategy", "sampled")
    assert code == 2
    code, _, _ = run(
        capsys, "check", "lattice2", "cdist2", "--strategy", "sampled", "--allow-truncated"
    )
    assert code == 0


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


def test_usage_errors_exit3(capsys):
    assert run(capsys, "check", "lattice2", "cong:a & <= b")[0] == 3
    assert run(capsys, "check", "nope", "cdist2")[0] == 3
    assert run(capsys, "check", "lattice2", "nope2")[0] == 3
    assert run(capsys, "check", "lattice2", "cdist2", "--caps", "{bad json")[0] == 3
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3
    capsys.readouterr()


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
        '{"max_components": "x"}',
        '{"max_components": 0}',
        '{"max_relations": 0}',
        '{"max_relations": 2.5}',
        '{"clone_cap_3": true}',
        '{"max_universe": null}',
    ):
        code, _, err = run(capsys, "check", "lattice2", "cdist2", "--caps", bad)
        assert code == 3 and "must be an integer" in err, bad
    for removed in ('{"exhaustive_threshold": 5}', '{"seed_pairs": 2}'):
        code, _, err = run(capsys, "check", "lattice2", "cdist2", "--caps", removed)
        assert code == 3 and "unknown keys" in err
    assert run(capsys, "check", "lattice2", "cdist2", "--caps", '{"max_components": null}')[0] == 0
    monkeypatch.setenv("RELKIT_CAPS", '{"max_components": "x"}')
    assert run(capsys, "check", "lattice2", "cdist2")[0] == 3


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
