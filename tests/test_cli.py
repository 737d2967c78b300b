"""Command-line interface tests.

Everything runs in-process through cli.main(argv) so exit codes, stdout
JSON and stderr messages are asserted directly.  Oracles: the library
modules themselves (construct -> verify closure), byte-identity of the
emit -> parse -> emit cycle, and hand-pinned values from the existence
and lattice test suites.
"""

import json
import math

import pytest

from arakelov import cli
from arakelov.cli import (
    EXIT_ABSENT,
    EXIT_OK,
    EXIT_SPEC,
    EXIT_VERIFY,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out else None), err


# --------------------------------------------------------------------------
# exists
# --------------------------------------------------------------------------

def test_exists_prime_power_trace(capsys):
    code, doc, _ = run_json(capsys, "exists", "--field", "realcyclo:13",
                            "--trace-type")
    assert code == EXIT_OK
    assert doc["levels"] == [13]
    assert doc["trace_type"] is True
    assert doc["witnesses"]["13"]["ideal"] == "P13^-1"
    assert doc["rule"] == "prime-power-trace-type"


def test_exists_empty_level_set(capsys):
    code, doc, _ = run_json(capsys, "exists", "--field", "realcyclo:15",
                            "--trace-type")
    assert code == EXIT_ABSENT
    assert doc["levels"] == []


def test_exists_invalid_field(capsys):
    code, out, err = run(capsys, "exists", "--field", "quad:+1")
    assert code == EXIT_SPEC
    assert out == ""
    assert "quad:+1" in err


def test_exists_level_query(capsys):
    code, doc, _ = run_json(capsys, "exists", "--field", "realcyclo:13",
                            "--trace-type", "--level", "13")
    assert code == EXIT_OK and doc["admissible"] is True
    code, doc, _ = run_json(capsys, "exists", "--field", "realcyclo:13",
                            "--trace-type", "--level", "7")
    assert code == EXIT_ABSENT and doc["admissible"] is False
    assert doc["queried_level"] == 7


def test_exists_modular_prime_power(capsys):
    code, doc, _ = run_json(capsys, "exists", "--field", "realcyclo:13")
    assert code == EXIT_OK
    assert doc["levels"] == [1, 13]
    assert doc["trace_type"] is False


def test_exists_composite_needs_trace_flag(capsys):
    code, _, err = run(capsys, "exists", "--field", "realcyclo:28")
    assert code == EXIT_SPEC
    assert "trace" in err


# --------------------------------------------------------------------------
# construct
# --------------------------------------------------------------------------

def test_construct_table_row_28(capsys, tmp_path):
    out = tmp_path / "r28.json"
    code, _, _ = run(capsys, "construct", "--field", "realcyclo:28",
                     "--level", "7", "--trace-type", "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["dimension"] == 6
    assert doc["level"] == 7
    assert doc["ideal"] == "P2^-1*P7^-1"
    assert doc["determinant"] == "343"
    assert doc["even"] is True and doc["integral"] is True
    assert doc["witness_checked"] is True
    assert all(isinstance(x, int) for row in doc["gram"] for x in row)
    # exact quantities are strings, never floats
    assert isinstance(doc["minimum"], str)
    assert isinstance(doc["determinant"], str)


def test_construct_quad_minus3(capsys):
    code, doc, _ = run_json(capsys, "construct", "--field", "quad:-3",
                            "--level", "3")
    assert code == EXIT_OK
    assert doc["dimension"] == 2
    assert doc["even"] is True
    assert doc["minimum"] == "2"
    assert doc["gram"] == [[2, 1], [1, 2]]


def test_construct_inadmissible_level(capsys):
    code, out, err = run(capsys, "construct", "--field", "realcyclo:7",
                         "--level", "7")
    assert code == EXIT_ABSENT
    assert out == ""
    assert "odd-degree-level-one" in err


def test_construct_rescaled_level(capsys, tmp_path):
    out = tmp_path / "r20.json"
    code, _, _ = run(capsys, "construct", "--field", "quad:+5",
                     "--level", "20", "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["level"] == 20 and doc["determinant"] == "20"
    code, rep, _ = run_json(capsys, "verify", "--in", str(out), "--min")
    assert code == EXIT_OK
    assert rep["level"] == 20 and rep["gram_matches"] is True


def test_construct_cm_rescale_restriction(capsys):
    # 27 = 3 * 3^2 needs gcd(3, 3) = 1 over a CM field: impossible
    code, out, err = run(capsys, "construct", "--field", "quad:-3",
                         "--level", "27")
    assert code == EXIT_ABSENT and "not constructible" in err
    # 12 = 3 * 2^2 is fine
    code, doc, _ = run_json(capsys, "construct", "--field", "quad:-3",
                            "--level", "12")
    assert code == EXIT_OK and doc["level"] == 12


def test_construct_embed(capsys):
    code, doc, _ = run_json(capsys, "construct", "--field", "quad:-3",
                            "--level", "3", "--embed", "96")
    assert code == EXIT_OK
    emb = doc["embedding"]
    assert emb["precision"] == 96
    rows = [[float(v) for v in row] for row in emb["rows"]]
    gram = doc["gram"]
    for i in range(2):
        for j in range(2):
            dot = sum(rows[i][k] * rows[j][k] for k in range(2))
            assert math.isclose(dot, gram[i][j], abs_tol=1e-9)


def test_construct_embed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("ARAKELOV_PRECISION_BITS", "64")
    code, doc, _ = run_json(capsys, "construct", "--field", "quad:+5",
                            "--level", "5", "--embed")
    assert code == EXIT_OK
    assert doc["embedding"]["precision"] == 64


def test_construct_rejects_tiny_embed(capsys):
    code, _, err = run(capsys, "construct", "--field", "quad:+5",
                       "--level", "5", "--embed", "8")
    assert code == EXIT_SPEC and "16" in err


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

@pytest.fixture()
def record28(capsys, tmp_path):
    path = tmp_path / "record.json"
    code, _, _ = run(capsys, "construct", "--field", "realcyclo:28",
                     "--level", "7", "--trace-type", "--out", str(path))
    assert code == EXIT_OK
    return path


def test_verify_roundtrip_passes(capsys, record28):
    code, rep, _ = run_json(capsys, "verify", "--in", str(record28))
    assert code == EXIT_OK
    assert rep["witness_checked"] is True
    assert rep["gram_matches"] is True
    assert rep["determinant"] == "343"


def test_verify_reports_minimum_and_theta(capsys, tmp_path):
    path = tmp_path / "n36.json"
    run(capsys, "construct", "--field", "realcyclo:36", "--level", "3",
        "--trace-type", "--out", str(path))
    code, rep, _ = run_json(capsys, "verify", "--in", str(path),
                            "--min", "--theta", "8")
    assert code == EXIT_OK
    assert rep["minimum"] == "2"
    counts = {norm: count for norm, count in rep["theta"]}
    assert counts["0"] == 1
    assert counts["2"] > 0


def test_verify_flags_tampered_gram(capsys, record28, tmp_path):
    doc = json.loads(record28.read_text())
    doc["gram"][0][0] += 2
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, rep, _ = run_json(capsys, "verify", "--in", str(tampered))
    assert code == EXIT_OK
    assert rep["gram_matches"] is False


def test_verify_corrupted_beta_exits_4(capsys, record28, tmp_path):
    doc = json.loads(record28.read_text())
    doc["beta"] = ["1"] + ["0"] * (len(doc["beta"]) - 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(bad))
    assert code == EXIT_VERIFY
    assert "clause i" in err


def test_verify_bad_inputs_exit_2(capsys, record28, tmp_path):
    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "missing.json"))
    assert code == EXIT_SPEC and "cannot read" in err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run(capsys, "verify", "--in", str(garbled))
    assert code == EXIT_SPEC and "JSON" in err

    doc = json.loads(record28.read_text())
    del doc["beta"]
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--in", str(incomplete))
    assert code == EXIT_SPEC and "beta" in err

    doc = json.loads(record28.read_text())
    doc["alpha"] = ["1", "0"]  # wrong length
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--in", str(short))
    assert code == EXIT_SPEC and "alpha" in err

    doc = json.loads(record28.read_text())
    doc["ideal"] = "P3^-1"  # 3 does not ramify in realcyclo:28
    unramified = tmp_path / "unramified.json"
    unramified.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--in", str(unramified))
    assert code == EXIT_SPEC and "does not ramify" in err


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def test_catalog_paper_table_reports_min_discrepancy(capsys):
    code, rows, err = run_json(capsys, "catalog", "--paper-table")
    assert code == EXIT_VERIFY
    assert [row["row"] for row in rows] == [0, 1, 2]
    by_name = {row["name"]: row for row in rows}
    a6 = by_name["A6^(2)"]
    # the published minimum (2) disagrees with the exact minimum (4); the
    # catalog pins the published value and reports the row as failing
    assert a6["pass"] is False
    assert a6["expected"]["minimum"] == "2"
    assert a6["got"]["minimum"] == "4"
    assert a6["got"]["dimension"] == 6
    assert "note" in a6
    assert by_name["A10^(3)"]["pass"] is True
    assert by_name["A10^(3)"]["got"]["minimum"] == "6"
    assert by_name["A22^(6)"]["pass"] is True
    assert by_name["A22^(6)"]["got"]["minimum"] == "12"
    assert "0" in err


def test_catalog_examples_all_pass(capsys):
    code, rows, _ = run_json(capsys, "catalog", "--examples")
    assert code == EXIT_OK
    assert all(row["pass"] for row in rows)
    by_name = {row["name"]: row for row in rows}
    assert by_name["Z6"]["got"]["theta_one_count"] == 12
    assert by_name["Z6"]["got"]["determinant"] == "1"
    dim21 = by_name["extremal odd unimodular, dim 21"]
    assert dim21["got"]["dimension"] == 21
    assert dim21["got"]["minimum"] == "2"


# --------------------------------------------------------------------------
# serialization contract
# --------------------------------------------------------------------------

def test_emit_parse_emit_is_byte_stable(capsys, record28):
    raw = record28.read_bytes()
    doc = json.loads(raw)
    again = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    assert raw == again


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--field", "quad:+5"])  # missing --level
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["catalog"])  # missing required group
    assert exc.value.code == 2
