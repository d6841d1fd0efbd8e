"""Command-line surface: parsing, exit codes, schemas, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import tdmc
from tdmc.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_table_untwisted(capsys):
    code, out, _ = run(capsys, ["classify", "--group", "S3", "--omega", "0"])
    assert code == 0
    assert "pairs: 28   fiber functors: 4" in out
    # twisted classes appear once per pair
    assert out.count("H8 ") == 2
    assert out.count("H20") == 2


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, ["classify", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "S3"
    assert payload["omega_k"] == 0
    assert payload["modulus"] == 36**2
    assert payload["totals"] == {"pairs": 28, "fiber_functors": 4}
    assert len(payload["admissible"]) == 22
    entry = payload["admissible"][0]
    assert set(entry) == {"class", "order", "h2_cstar", "pairs"}
    pair = entry["pairs"][0]
    assert set(pair) == {"psi", "orbit_count", "rank", "breakdown"}
    assert set(pair["breakdown"][0]) == {"rep", "stab_order", "m"}
    for e in payload["admissible"]:
        for p in e["pairs"]:
            assert p["rank"] == sum(row["m"] for row in p["breakdown"])
            assert p["orbit_count"] == len(p["breakdown"])


def test_classify_twisted_counts(capsys):
    for k, n in [(1, 4), (2, 8), (3, 12), (4, 8), (5, 4)]:
        code, out, _ = run(
            capsys, ["classify", "--omega", str(k), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["totals"] == {"pairs": n, "fiber_functors": 0}


def test_omega_reduced_mod_torsion(capsys):
    _, out_neg, _ = run(capsys, ["classify", "--omega", "-1", "--format", "json"])
    _, out_five, _ = run(capsys, ["classify", "--omega", "5", "--format", "json"])
    _, out_eleven, _ = run(capsys, ["classify", "--omega", "11", "--format", "json"])
    assert out_neg == out_five == out_eleven
    assert json.loads(out_five)["omega_k"] == 5


def test_classify_deterministic(capsys):
    _, first, _ = run(capsys, ["classify", "--omega", "3", "--format", "json"])
    _, second, _ = run(capsys, ["classify", "--omega", "3", "--format", "json"])
    assert first == second


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_all_pairs(capsys):
    code, out, _ = run(capsys, ["rank", "--subgroup", "H7", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "H7"
    assert payload["order"] == 3
    assert [p["rank"] for p in payload["pairs"]] == [10]
    assert sorted(r["m"] for r in payload["pairs"][0]["breakdown"]) == [1, 3, 3, 3]


def test_rank_with_explicit_psi(capsys):
    code, out, _ = run(
        capsys, ["rank", "--subgroup", "H8", "--psi", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h2_cstar"] == [2]
    assert payload["pairs"][0]["psi"] == [1]
    assert payload["pairs"][0]["rank"] == 3
    # coordinates reduce mod the invariant factors
    code, out3, _ = run(
        capsys, ["rank", "--subgroup", "H8", "--psi", "3", "--format", "json"]
    )
    assert json.loads(out3)["pairs"][0]["psi"] == [1]


def test_rank_case_insensitive_label(capsys):
    code, out, _ = run(capsys, ["rank", "--subgroup", "h11", "--format", "json"])
    assert code == 0
    assert json.loads(out)["class"] == "H11"


def test_rank_unknown_class_exit2(capsys):
    code, _, err = run(capsys, ["rank", "--subgroup", "H99"])
    assert code == 2
    assert "unknown subgroup class" in err


def test_rank_psi_arity_exit2(capsys):
    code, _, err = run(capsys, ["rank", "--subgroup", "H8", "--psi", "0,1"])
    assert code == 2
    assert "torsor coordinate" in err


def test_rank_bad_psi_exit2(capsys):
    code, _, err = run(capsys, ["rank", "--subgroup", "H8", "--psi", "x"])
    assert code == 2
    assert "comma-separated" in err


def test_rank_inadmissible_exit1(capsys):
    code, _, err = run(capsys, ["rank", "--subgroup", "H2", "--omega", "1"])
    assert code == 1
    assert "does not trivialize" in err


@pytest.mark.parametrize("k", [0, 1])
def test_rank_agrees_with_classify_on_every_class(capsys, k):
    _, out, _ = run(capsys, ["classify", "--omega", str(k), "--format", "json"])
    classified = {c["class"]: c for c in json.loads(out)["admissible"]}
    for label in (f"H{i}" for i in range(1, 23)):
        code, out, err = run(
            capsys,
            ["rank", "--subgroup", label, "--omega", str(k), "--format", "json"],
        )
        if label in classified:
            assert code == 0, label
            payload = json.loads(out)
            assert payload["h2_cstar"] == classified[label]["h2_cstar"], label
            assert payload["pairs"] == classified[label]["pairs"], label
        else:
            assert code == 1, label
            assert "does not trivialize" in err, label


def test_rank_classifies_only_the_named_class(capsys, monkeypatch):
    """rank answers from the named class alone (its trivialization, H^2 and
    normalizer fold); it never classifies the 214-class twisted D4 census."""

    def whole_census(ctx):
        raise AssertionError("rank classified the whole census")

    monkeypatch.setattr(tdmc.cli, "classify_pairs", whole_census)
    code, out, _ = run(
        capsys,
        ["rank", "--group", "D4", "--omega", "1", "--subgroup", "C2"]
        + ["--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["omega_k"] == 1
    assert [p["rank"] for p in payload["pairs"]] == [4]


# ---------------------------------------------------------------------------
# fiber-functors and cohomology
# ---------------------------------------------------------------------------


def test_fiber_functors_untwisted(capsys):
    code, out, _ = run(capsys, ["fiber-functors", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert sorted(p["class"] for p in payload["pairs"]) == ["H10", "H12", "H13", "H9"]
    assert all(p["psi"] == [] for p in payload["pairs"])


def test_fiber_functors_twisted_empty(capsys):
    code, out, _ = run(
        capsys, ["fiber-functors", "--omega", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_cohomology_degree3(capsys):
    code, out, _ = run(
        capsys, ["cohomology", "--group", "S3", "--degree", "3", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["invariant_factors"] == [6]


def test_cohomology_degree2_trivial(capsys):
    code, out, _ = run(capsys, ["cohomology", "--group", "S3", "--degree", "2"])
    assert code == 0
    assert "trivial" in out


def test_cohomology_bad_degree_exit2(capsys):
    code, _, _ = run(capsys, ["cohomology", "--group", "S3", "--degree", "4"])
    assert code == 2


# ---------------------------------------------------------------------------
# group specs
# ---------------------------------------------------------------------------


def test_group_from_file(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(
        json.dumps(
            {"type": "perm", "degree": 3, "generators": [[2, 3, 1], [2, 1, 3]]}
        )
    )
    code, out, _ = run(
        capsys, ["classify", "--group", f"@{path}", "--omega", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["totals"]["pairs"] == 4
    assert sorted(e["class"] for e in payload["admissible"]) == [
        "H1",
        "H11",
        "H4",
        "H7",
    ]


def test_nonreference_group_gets_generic_labels(capsys):
    code, out, _ = run(capsys, ["classify", "--group", "Z2", "--format", "json"])
    assert code == 0
    labels = [e["class"] for e in json.loads(out)["admissible"]]
    assert labels == ["C1", "C2", "C3", "C4", "C5"]


def test_classify_h2_column_fits_longest_entry(capsys):
    """On the Klein square H^2 reaches (Z/2)^6; the psi column still starts
    at the same offset on every row, right after the header's H2 column."""
    code, out, _ = run(capsys, ["classify", "--group", "Z2xZ2"])
    assert code == 0
    lines = out.splitlines()
    header, rows = lines[1], lines[2:-1]
    offset = header.index("psi")
    assert any("Z/2xZ/2xZ/2xZ/2xZ/2xZ/2" in row for row in rows)
    for row in rows:
        assert row[offset - 1] == " " and row[offset] != " ", row


def test_unknown_builtin_exit2(capsys):
    code, _, err = run(capsys, ["classify", "--group", "nope"])
    assert code == 2
    assert "unknown builtin" in err


def test_missing_group_file_exit2(capsys, tmp_path):
    code, _, err = run(capsys, ["classify", "--group", f"@{tmp_path}/absent.json"])
    assert code == 2
    assert "cannot read" in err


def test_malformed_group_file_exit2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["classify", "--group", f"@{path}"])
    assert code == 2
    assert "not valid JSON" in err

    path.write_text(json.dumps({"type": "cayley", "table": [[0, 1], [1, 1]]}))
    code, _, err = run(capsys, ["classify", "--group", f"@{path}"])
    assert code == 2

    # an entry too large for a machine integer is still a bad spec
    path.write_text('{"type": "cayley", "table": [[0, 100000000000000000000], [1, 0]]}')
    code, out, err = run(capsys, ["classify", "--group", f"@{path}"])
    assert code == 2
    assert out == ""
    assert "cayley entry 100000000000000000000 is not in 0..1" in err


@pytest.mark.parametrize("argv", [["classify"], ["verify-paper"]])
def test_bad_max_order_exit2(capsys, monkeypatch, argv):
    monkeypatch.setenv("TDMC_MAX_ORDER", "abc")
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: TDMC_MAX_ORDER must be an integer, got 'abc'\n"


def test_unknown_flag_exit2(capsys):
    code, _, _ = run(capsys, ["classify", "--bogus"])
    assert code == 2


def test_missing_subcommand_exit2(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_help_exit0(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "classify" in out and "verify-paper" in out


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, ["verify-paper"])
    assert code == 0
    assert out.strip().endswith("all 86 checks passed")
    assert "[PASS] subgroup census" in out
    assert "MISMATCH" not in out


def test_verify_paper_deterministic(capsys):
    _, first, _ = run(capsys, ["verify-paper"])
    _, second, _ = run(capsys, ["verify-paper"])
    assert first == second


def test_verify_paper_wrong_group_exit2(capsys):
    code, _, err = run(capsys, ["verify-paper", "--group", "Q8"])
    assert code == 2
    assert "not isomorphic" in err


def test_module_invocation():
    # the child process imports the same tdmc as this test, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdmc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tdmc.cli", "cohomology", "--group", "Z2", "--degree", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "trivial" in proc.stdout
