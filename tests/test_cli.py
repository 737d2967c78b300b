"""Command-line interface tests.

Everything runs in-process through cli.main(argv) so exit codes, stdout
JSON and stderr messages are asserted directly.  Oracles: the library
modules themselves (construct -> verify closure), byte-identity of the
emit -> parse -> emit cycle, and hand-pinned values from the existence
and lattice test suites.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arakelov
from arakelov import cli, existence, fields, ideals, lattice
from arakelov.cli import (
    EXIT_ABSENT,
    EXIT_OK,
    EXIT_SPEC,
    EXIT_VERIFY,
    main,
)
from test_fields import cos7_convergents


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


@pytest.mark.parametrize("level", ["0", "-11"])
def test_exists_refuses_a_nonpositive_level(capsys, level):
    """A level below 1 is malformed input, as for construct: exit 2 and
    no JSON body."""
    for extra in ([], ["--trace-type"]):
        code, out, err = run(capsys, "exists", "--field", "realcyclo:44",
                             "--level", level, *extra)
        assert code == EXIT_SPEC and out == ""
        assert "positive integer" in err


def test_exists_modular_prime_power(capsys):
    code, doc, _ = run_json(capsys, "exists", "--field", "realcyclo:13")
    assert code == EXIT_OK
    assert doc["levels"] == [1, 13]
    assert doc["trace_type"] is False


def test_exists_odd_degree_echoes_trace_type(capsys):
    # the odd-degree witness has alpha = 1, so {1} holds for either request
    for flags, trace_type in (([], False), (["--trace-type"], True)):
        code, doc, _ = run_json(capsys, "exists", "--field", "realcyclo:7", *flags)
        assert code == EXIT_OK
        assert doc["levels"] == [1] and doc["rule"] == "odd-degree-level-one"
        assert doc["trace_type"] is trace_type


def test_exists_composite_needs_trace_flag(capsys):
    code, _, err = run(capsys, "exists", "--field", "realcyclo:28")
    assert code == EXIT_SPEC
    assert "trace" in err


def test_exists_large_specs_never_build_the_minimal_polynomial(capsys, monkeypatch):
    """Level sets need only the factorization of the conductor, so exists
    answers for any conductor without building a minimal polynomial."""
    def refuse(n):
        raise AssertionError(f"built the minimal polynomial of conductor {n}")

    monkeypatch.setattr(fields, "_real_cyclotomic_poly", refuse)
    monkeypatch.setattr(fields, "_cyclotomic_poly", refuse)
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})

    # degree 8000, 16001 = 1 mod 8: empty trace-type level set
    code, out, _ = run(capsys, "exists", "--field", "realcyclo:16001", "--trace-type")
    assert code == EXIT_ABSENT
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "11acc2e32e722fffde312779e5f30cafa51af340d951157e8cc73f5a5d499476"
    # odd degree 50000003: level set {1}, beyond the materialization cap
    code, doc, _ = run_json(capsys, "exists", "--field", "realcyclo:100000007",
                            "--trace-type")
    assert code == EXIT_OK
    assert doc["levels"] == [1] and doc["witnesses"] == {}
    assert doc["trace_type"] is True
    # no CM classification beyond the quadratic fields
    code, _, err = run(capsys, "exists", "--field", "cyclo:100000007")
    assert code == EXIT_SPEC and "cyclo:100000007" in err


@pytest.mark.parametrize("spec", [
    "quad:+\u00b2", "quad:-\u00b3", "realcyclo:\u00b9\u00b3", "cyclo:\u2075",
    "realcyclo:\u0661\u0663", "quad:+\u0663", "cyclo:\uff11\uff13", "realcyclo:1_3"])
def test_exists_refuses_digits_outside_ascii(capsys, spec):
    """Conductors and d are ASCII [0-9]+: str.isdigit() takes superscripts
    that int() then refuses, and int() reads other scripts' digits, so
    realcyclo:<Arabic-Indic 13> used to answer as realcyclo:13."""
    for argv in (["exists", "--field", spec],
                 ["construct", "--field", spec, "--level", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_SPEC and out == "", (argv, err)
        assert "malformed" in err and "Traceback" not in err


@pytest.mark.parametrize("option, value", [
    ("--level", "\u0661\u0663"), ("--level", "1_3"), ("--level", "\u00b9\u00b3"),
    ("--level", " 13"), ("--embed", "\uff11\uff12\uff18"), ("--embed", "12_8"),
    ("--theta", "\u0664"), ("--theta", "1_0")])
def test_integer_options_are_ascii(capsys, option, value):
    """--level, --embed and --theta take the ASCII integer grammar of specs
    and records: int() reads other scripts' digits, underscores and
    surrounding blanks, so --level <Arabic-Indic 13> used to answer for 13."""
    argv = {"--level": ["exists", "--field", "realcyclo:13", "--level", value],
            "--embed": ["construct", "--field", "realcyclo:13", "--trace-type",
                        "--level", "13", "--embed", value],
            "--theta": ["verify", "--in", "record.json", "--theta", value]}[option]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_SPEC and out == ""
    assert f"argument {option}: invalid integer" in err


# exists output taken from the commit before the parity equation had one
# solver: per spec and --trace-type flag the exit code, rule, levels and,
# per level, the ideal and the first 16 hex digits of the sha256 of the
# JSON alpha and beta coefficient lists; None where exists exits 2
BOTH = (False, True)
_ONE, _THETA = "f43b5eadae00b64e", "b35800e69f8197d4"  # ["1", "0"], ["0", "1"]
_SQRT = "dbbf5872481e3a0d"  # ["-1", "2"] = 2*theta - 1
EXISTS_PINS = [
    ("quad:+2", BOTH, 0, "real-quadratic-trace", (2,), {2: ("P2^-1", _ONE, _THETA)}),
    ("quad:+3", BOTH, 0, "real-quadratic-trace", (3,), {3: ("P2^-1", _ONE, _THETA)}),
    ("quad:+5", BOTH, 0, "real-quadratic-trace", (5,), {5: ("", _ONE, _SQRT)}),
    ("quad:-1", BOTH, 0, "imaginary-quadratic-trace", (1,), {1: ("P2^-1", _ONE, _THETA)}),
    ("quad:-2", BOTH, 0, "imaginary-quadratic-trace", (2,), {2: ("P2^-1", _ONE, _THETA)}),
    ("quad:-3", BOTH, 0, "imaginary-quadratic-trace", (3,), {3: ("", _ONE, _SQRT)}),
    ("quad:-7", BOTH, 0, "imaginary-quadratic-trace", (7,), {7: ("", _ONE, _SQRT)}),
    ("realcyclo:5", (False,), 0, "prime-power-modular", (1, 5), {
        1: ("", "b5a67d9b4e86c968", _ONE),
        5: ("", _ONE, "8169cab3831aaa01")}),
    ("realcyclo:5", (True,), 0, "prime-power-trace-type", (5,), {
        5: ("", _ONE, "8169cab3831aaa01")}),
    ("realcyclo:7", BOTH, 0, "odd-degree-level-one", (1,), {
        1: ("P7^-1", "01fa2168a91d7b65", "01fa2168a91d7b65")}),
    ("realcyclo:9", BOTH, 0, "odd-degree-level-one", (1,), {
        1: ("P3^-2", "01fa2168a91d7b65", "01fa2168a91d7b65")}),
    ("realcyclo:11", BOTH, 0, "odd-degree-level-one", (1,), {
        1: ("P11^-2", "68c59625ad002e0c", "68c59625ad002e0c")}),
    ("realcyclo:13", (False,), 0, "prime-power-modular", (1, 13), {
        1: ("P13^-2", "3daea77ef44557a5", "87e7249b21b12fe3"),
        13: ("P13^-1", "87e7249b21b12fe3", "a896094c4de65ff7")}),
    ("realcyclo:13", (True,), 0, "prime-power-trace-type", (13,), {
        13: ("P13^-1", "87e7249b21b12fe3", "a896094c4de65ff7")}),
    ("realcyclo:17", (False,), 0, "prime-power-modular", (1, 17), {
        1: ("P17^-3", "0f4a68725c221cd5", "a522b7b869153bf7"),
        17: ("P17^-1", "0f4a68725c221cd5", "143620c5df34e6a9")}),
    ("realcyclo:17", (True,), 3, "prime-power-trace-type", (), {}),
    ("realcyclo:25", (False,), 0, "prime-power-modular", (1, 5), {
        1: ("P5^-8", "62769fa907093af2", "8defe245808a7e2d"),
        5: ("P5^-6", "8defe245808a7e2d", "b3e854489ef3b999")}),
    ("realcyclo:25", (True,), 0, "prime-power-trace-type", (5,), {
        5: ("P5^-6", "8defe245808a7e2d", "b3e854489ef3b999")}),
    ("realcyclo:27", BOTH, 0, "odd-degree-level-one", (1,), {
        1: ("P3^-11", "05cf2023a1b943f4", "05cf2023a1b943f4")}),
    ("realcyclo:49", BOTH, 0, "odd-degree-level-one", (1,), {
        1: ("P7^-19", "264c4b9e3d9cabec", "264c4b9e3d9cabec")}),
    ("realcyclo:97", (False,), 0, "prime-power-modular", (1, 97), {
        1: ("P97^-23", "3fc13c1988d58fad", "ebb2c169a86323be"),
        97: ("P97^-11", "3fc13c1988d58fad", "258ba21b8438d873")}),
    ("realcyclo:97", (True,), 3, "prime-power-trace-type", (), {}),
    ("realcyclo:289", (False,), 0, "prime-power-modular", (1, 17), {}),  # degree 136
    ("realcyclo:289", (True,), 3, "prime-power-trace-type", (), {}),
    ("realcyclo:28", (False,), 2, None, None, None),
    ("realcyclo:28", (True,), 0, "composite-conductor-trace", (7,), {
        7: ("P2^-1*P7^-1", "87e7249b21b12fe3", "895457bb52e7b6fd")}),
    ("realcyclo:44", (False,), 2, None, None, None),
    ("realcyclo:44", (True,), 0, "composite-conductor-trace", (11,), {
        11: ("P2^-1*P11^-2", "8defe245808a7e2d", "c2a44c1c48018e21")}),
    ("realcyclo:60", (False,), 2, None, None, None),
    ("realcyclo:60", (True,), 3, "composite-conductor-trace", (), {}),
    ("realcyclo:63", (False,), 2, None, None, None),
    ("realcyclo:63", (True,), 0, "composite-conductor-trace", (21,), {
        21: ("P3^-3*P7^-1", "12d01264e7af2d12", "7880f005479681fe")}),
    ("realcyclo:92", (False,), 2, None, None, None),
    ("realcyclo:92", (True,), 0, "composite-conductor-trace", (23,), {
        23: ("P2^-1*P23^-5", "2eff142961474b00", "4e800b81272eb9a3")}),
    ("realcyclo:1001", (False,), 2, None, None, None),
    ("realcyclo:1001", (True,), 3, "composite-conductor-trace", (), {}),  # degree 360
]


@pytest.mark.parametrize("spec, trace_type, pin", [
    pytest.param(spec, trace_type, pin, id=f"{spec}-{'trace' if trace_type else 'any'}")
    for spec, modes, *pin in EXISTS_PINS for trace_type in modes])
def test_exists_witnesses_are_pinned(capsys, spec, trace_type, pin):
    def digest(coeffs):
        return hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()[:16]

    want_code, rule, levels, witnesses = pin
    flags = ["--trace-type"] if trace_type else []
    code, doc, _ = run_json(capsys, "exists", "--field", spec, *flags)
    assert code == want_code
    if rule is None:
        assert doc is None
        return
    assert (doc["rule"], tuple(doc["levels"]), doc["trace_type"]) == \
        (rule, levels, trace_type)
    assert {int(level): (w["ideal"], digest(w["alpha"]), digest(w["beta"]))
            for level, w in doc["witnesses"].items()} == witnesses
    if spec == "quad:-1":  # level 1, yet beta = theta = sqrt(-1), not 1
        assert doc["witnesses"]["1"]["beta"] == ["0", "1"]


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


HUGE_PRIME = 1000000000000000003


def test_construct_level_is_split_over_the_ramified_primes(capsys, monkeypatch):
    """construct and exists divide the level by the ramified primes only,
    so a huge prime level is refused at once: factorize is patched to raise
    on it."""
    def guarded(original):
        def factorize(n):
            if n % HUGE_PRIME == 0:
                raise AssertionError(f"factored the level {n}")
            return original(n)
        return factorize

    for module in (fields, existence, ideals, cli):
        if hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", guarded(module.factorize))
    args = ["construct", "--field", "realcyclo:44", "--trace-type", "--level"]
    code, out, err = run(capsys, *args, str(HUGE_PRIME))
    assert code == EXIT_ABSENT and out == ""
    assert err == (f"no Arakelov-modular lattice of level {HUGE_PRIME} over "
                   "realcyclo:44: the admissible squarefree levels are [11] "
                   "(rule: composite-conductor-trace)\n")
    # 99 = 11 * 3^2: the square cofactor rescales the level-11 witness
    code, doc, _ = run_json(capsys, *args, "99")
    assert code == EXIT_OK
    assert doc["level"] == 99 and doc["ideal"] == "P2^-1*P11^-2*(3)"
    # 13 does not ramify, so it can be no admissible level
    code, out, err = run(capsys, *args, "13")
    assert code == EXIT_ABSENT and out == ""
    assert "level 13 over realcyclo:44" in err and "[11]" in err
    # exists splits the level the same way
    code, doc, _ = run_json(capsys, "exists", *args[1:], str(HUGE_PRIME))
    assert code == EXIT_ABSENT and doc["admissible"] is False


@pytest.mark.parametrize("spec, trace_type, level", [
    ("realcyclo:44", True, 11), ("realcyclo:44", True, 99),
    ("realcyclo:44", True, 13), ("realcyclo:44", True, HUGE_PRIME),
    ("quad:+5", False, 5), ("quad:+5", False, 20), ("quad:+5", False, 45),
    ("quad:-3", False, 3), ("quad:-3", False, 12), ("quad:-3", False, 27),
    ("realcyclo:28", True, 7), ("realcyclo:28", True, 28),
])
def test_exists_admits_a_level_iff_construct_builds_it(capsys, spec, trace_type, level):
    """exists --level admits a level exactly when construct builds it: both
    split ell1 * ell2^2 over the ramified primes, with the CM rule
    gcd(ell2, ell1) = 1 of existence.rescale."""
    args = ["--field", spec, "--level", str(level)] + ["--trace-type"] * trace_type
    code, doc, _ = run_json(capsys, "exists", *args)
    assert doc["admissible"] is (code == EXIT_OK) and doc["queried_level"] == level
    assert run(capsys, "construct", *args)[0] == code


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


def test_construct_embed_recovers_bits_lost_to_cancellation(capsys, monkeypatch):
    """At degree 44 the rows of realcyclo:89, sums of coordinates times
    powers of 2*cos(2*pi*k/89), lose more than the 32 extra working bits
    to cancellation; construct recomputes them with guard bits and exits 0,
    and the printed rows, 40 significant digits, still give the exact
    Gram to 30 digits."""
    import mpmath
    monkeypatch.delenv("ARAKELOV_PRECISION_BITS", raising=False)
    code, doc, _ = run_json(capsys, "construct", "--field", "realcyclo:89",
                            "--level", "1", "--embed")
    assert code == EXIT_OK and doc["embedding"]["precision"] == 128
    with mpmath.workprec(256):
        rows = [[mpmath.mpf(v) for v in row] for row in doc["embedding"]["rows"]]
        for i in (0, 16, 43):
            for j in range(44):
                dot = mpmath.fsum(a * b for a, b in zip(rows[i], rows[j]))
                exact = doc["gram"][i][j]
                assert abs(dot - exact) <= mpmath.mpf(10) ** -30 * max(1, abs(exact))


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


@pytest.mark.parametrize("flag, env", [
    ("4097", None), ("10000000", None), ("0", None), (None, "4097"), (None, "8"),
], ids=["embed-4097", "embed-10000000", "embed-0", "env-4097", "env-8"])
def test_construct_rejects_precision_outside_16_to_4096(capsys, monkeypatch, flag, env):
    """--embed and ARAKELOV_PRECISION_BITS share one check: past 4,096
    bits construct exits 2 before any embedding is computed."""
    if env is not None:
        monkeypatch.setenv("ARAKELOV_PRECISION_BITS", env)
    embed = ["--embed"] if flag is None else ["--embed", flag]
    code, out, err = run(capsys, "construct", "--field", "quad:+5",
                         "--level", "5", *embed)
    assert code == EXIT_SPEC and out == ""
    assert "16 and 4096" in err


def test_construct_accepts_the_4096_bit_cap(capsys):
    code, doc, _ = run_json(capsys, "construct", "--field", "quad:+5",
                            "--level", "5", "--embed", "4096")
    assert code == EXIT_OK and doc["embedding"]["precision"] == 4096


def test_construct_refuses_fields_above_the_degree_cap(capsys, monkeypatch):
    """construct refuses a field above degree 64 before it classifies, so
    the refusal builds no field tables: the minimal-polynomial builder is
    patched to raise."""
    def refuse(n):
        raise AssertionError(f"built the minimal polynomial of conductor {n}")

    monkeypatch.setattr(fields, "_real_cyclotomic_poly", refuse)
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    for spec, degree in [("realcyclo:1019", 509), ("realcyclo:131", 65)]:
        code, out, err = run(capsys, "construct", "--field", spec, "--level", "1")
        assert code == EXIT_SPEC and out == ""
        assert f"degree {degree}" in err and "up to 64" in err


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


@pytest.mark.parametrize("bound, walks_minimum", [(2, True), (3, True), (4, False), (6, False)])
def test_verify_min_and_theta_walk_once(capsys, monkeypatch, record28, bound, walks_minimum):
    """The realcyclo:28 record has minimum 4 and kissing number 42.  With
    --min --theta B the minimum is read off the prefix's first nonzero
    term, and minimum walks only for B below 4; stdout is byte for byte
    the report of --min and of --theta B put together."""
    code, alone_min, _ = run_json(capsys, "verify", "--in", str(record28), "--min")
    code_theta, alone_theta, _ = run_json(capsys, "verify", "--in", str(record28),
                                          "--theta", str(bound))
    assert (code, code_theta) == (EXIT_OK, EXIT_OK)
    assert (alone_min["minimum"], alone_min["kissing"]) == ("4", 42)
    calls = []
    walk = lattice.minimum
    monkeypatch.setattr(lattice, "minimum", lambda lat: calls.append(lat) or walk(lat))
    code, stdout, _ = run(capsys, "verify", "--in", str(record28), "--min", "--theta", str(bound))
    assert code == EXIT_OK
    want = {**alone_theta, "minimum": "4", "kissing": 42}
    assert stdout == json.dumps(want, sort_keys=True, indent=2) + "\n"
    assert len(calls) == walks_minimum


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


def test_verify_galois_twisted_ideal_exits_4(capsys, tmp_path):
    """The realcyclo:13 record of level 13 with its ideal I turned into
    I * (a) * (sigma a)^-1, a = theta + 3 of prime norm 233 and sigma:
    zeta -> zeta^2, so sigma a = theta^2 + 1: the module has the norm of
    I but is another module, and clause ii refuses it."""
    path = tmp_path / "r13.json"
    code, _, _ = run(capsys, "construct", "--field", "realcyclo:13", "--level", "13",
                     "--trace-type", "--out", str(path))
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["ideal"] == "P13^-1"
    doc["ideal"] += "*([3,1,0,0,0,0])*([1,0,1,0,0,0])^-1"
    bad = tmp_path / "twisted.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(bad))
    assert code == EXIT_VERIFY and out == ""
    assert "clause ii:" in err


def test_verify_alpha_past_any_precision_exits_cleanly(tmp_path):
    """The realcyclo:7 level-1 record with alpha = r - theta, r a
    convergent of 2cos(2pi/7) with a 12,000-bit denominator on either
    side: positivity is decided exactly, so alpha below the root is
    refused (exit 2) and alpha above it builds a lattice that fails the
    module identity (exit 4); neither exits with a traceback."""
    path = tmp_path / "r7.json"
    assert main(["construct", "--field", "realcyclo:7", "--level", "1",
                 "--out", str(path)]) == EXIT_OK
    doc = json.loads(path.read_text())
    below, above = cos7_convergents(12000)
    for r, want in ((below, EXIT_SPEC), (above, EXIT_VERIFY)):
        doc["alpha"] = [cli._rat_str(r), "-1", "0"]
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--in", str(path)])
        assert code == want and out.getvalue() == ""
        assert "Traceback" not in err.getvalue()


def test_verify_refuses_coefficients_outside_the_record_grammar(record28, tmp_path):
    """A record coefficient is n or n/d, as construct writes it, and so is
    a rational in the record's ideal; an exponent form such as 1e1000000
    (10^1000000 to Fraction) is refused at once with exit 2, as are
    decimals, inf and a zero denominator."""
    doc = json.loads(record28.read_text())
    bad = tmp_path / "bad.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(arakelov.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cases = [("alpha", [coeff] + doc["alpha"][1:], "alpha")
             for coeff in ("1e1000000", "1.5", "inf", "1/0")]
    cases += [("ideal", "(1e1000000)*P2^-1*P7^-1", "bad rational"),
              ("ideal", "([1e1000000,0,0,0,0,0])*P2^-1*P7^-1", "bad coefficient list")]
    for key, value, message in cases:
        bad.write_text(json.dumps(dict(doc, **{key: value})))
        proc = subprocess.run([sys.executable, "-m", "arakelov.cli", "verify", "--in", str(bad)],
                              capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == EXIT_SPEC, (value, proc.stderr)
        assert proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr


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

    doc = json.loads(record28.read_text())
    doc["field"] = "realcyclo:1019"  # degree 509, above the cap
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--in", str(huge))
    assert code == EXIT_SPEC and "degree 509" in err and "up to 64" in err

    # a zero denominator in a principal factor, a radical P0, and a radical
    # of a prime far too large to factor (checked against the ramified
    # primes, never by trial division)
    for ideal, message in [("(1/0)", "bad rational"),
                           ("([1/0,0,0,0,0,0])", "bad coefficient list"),
                           ("P0^-1", "not a prime radical"),
                           ("P1000000000000000003^-1", "does not ramify"),
                           # ASCII numbers only: a superscript prime used to
                           # exit 1 on int(), and other scripts' digits were
                           # read as ASCII ones
                           ("P\u00b2^-1*P7^-1", "cannot parse recipe factor"),
                           ("P\u0662^-1*P7^-1", "cannot parse recipe factor"),
                           ("P2^-\u0661*P7^-1", "bad exponent"),
                           ("(\u0663)*P2^-1*P7^-1", "bad rational"),
                           ("(1.5)*P2^-1*P7^-1", "bad rational")]:
        doc = json.loads(record28.read_text())
        doc["ideal"] = ideal
        bad = tmp_path / "bad_ideal.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--in", str(bad))
        assert code == EXIT_SPEC and message in err, (ideal, err)


@pytest.mark.parametrize("command", ["exists", "construct", "verify", "catalog"])
@pytest.mark.parametrize("target", ["missing-dir/x.json", "."])
def test_unwritable_out_exits_2(capsys, request, tmp_path, command, target):
    """--out into a missing directory, or onto a directory, exits 2 with
    empty stdout for every subcommand."""
    argv = {"exists": ["exists", "--field", "quad:+5"],
            "construct": ["construct", "--field", "realcyclo:13", "--level", "4"],
            "catalog": ["catalog", "--examples"]}.get(command)
    if argv is None:
        argv = ["verify", "--in", str(request.getfixturevalue("record28"))]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == EXIT_SPEC and out == ""
    assert err.startswith("error: cannot write output") and "Traceback" not in err


@pytest.mark.parametrize("level", [0, -7, True, False])
def test_verify_refuses_a_bad_record_level(capsys, record28, tmp_path, level):
    """A level below 1, or a JSON true or false, is refused before the
    lattice is built: exit 2 and nothing on stdout."""
    doc = json.loads(record28.read_text())
    doc["level"] = level
    bad = tmp_path / "bad_level.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(bad))
    assert code == EXIT_SPEC and out == ""
    assert "record level must be" in err


def test_exact_output_past_the_int_string_limit(capsys, tmp_path):
    """Level 7 * 10^2000 over realcyclo:28 is admissible (7 times a
    square); its determinant level^3 has 6,003 digits, past Python's
    default 4,300-digit limit on int <-> str conversion, and is still
    written exactly, and the record verifies."""
    zeros = "0" * 2000
    path = tmp_path / "huge.json"
    code, _, err = run(capsys, "construct", "--field", "realcyclo:28",
                       "--trace-type", "--level", "7" + zeros, "--out", str(path))
    assert code == EXIT_OK, err
    doc = json.loads(path.read_text())
    assert doc["determinant"] == "343" + zeros * 3
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == EXIT_OK, err
    assert '"determinant": "343' + zeros * 3 + '"' in out


def test_record_level_past_the_int_string_limit_is_read(capsys, record28, tmp_path):
    """A record level of 5,001 digits is parsed and checked: clause (i)
    fails (exit 4), with no ValueError from the JSON reader."""
    text = record28.read_text().replace('"level": 7,', '"level": 7' + "0" * 5000 + ",")
    huge = tmp_path / "huge_level.json"
    huge.write_text(text)
    code, out, err = run(capsys, "verify", "--in", str(huge))
    assert code == EXIT_VERIFY and out == ""
    assert "clause i" in err


@pytest.mark.parametrize("ideal", ["P7^1000000000", "P2^-1000000000",
                                   "([0,1,0,0,0,0])^1000000000", "([1,1,1,1,1,1])^2000"])
def test_verify_refuses_a_recipe_past_the_bit_limit(capsys, record28, tmp_path, ideal):
    """A record ideal whose estimated coefficient bits pass
    ideals.RECIPE_BITS_LIMIT exits 2 with nothing on stdout, before any
    power is formed."""
    doc = json.loads(record28.read_text())
    doc["ideal"] = ideal
    path = tmp_path / "huge_exponent.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == EXIT_SPEC and out == ""
    assert "coefficient bits" in err


@pytest.mark.parametrize("ideal", [
    "([" + str(3 ** 6000) + ",1,0,0,0,0])^-1",
    "([1,1,0,0,0,0])^-9000",
    "*".join(["([2,1,0,0,0,0])^-1"] * 9000),
], ids=["huge-base", "huge-exponent", "many-factors"])
def test_verify_refuses_inverted_bases_past_the_bit_limit(
        capsys, record28, tmp_path, monkeypatch, ideal):
    """A negative power of a base whose own height passes
    ideals.RECIPE_BITS_LIMIT, or negative exponents that add up past it,
    exit 2 before any inverse is formed."""
    doc = json.loads(record28.read_text())
    doc["ideal"] = ideal
    path = tmp_path / "huge_inverse.json"
    path.write_text(json.dumps(doc))

    def inverted(field, x):
        raise AssertionError("an inverse was formed")

    monkeypatch.setattr(fields.NumberField, "_inverse", inverted)
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == EXIT_SPEC and out == ""
    assert "coefficient bits" in err


# fuzzed records: one key of a valid realcyclo:28 record is replaced or
# deleted; verify must answer with a contract exit code, never a traceback

_RATIONALS = st.sampled_from(["0", "1", "-1", "2", "7", "1/2", "-3/4", "1/0", "x", "nan", ""])
_COEFF_LISTS = st.integers(5, 7).flatmap(
    lambda k: st.lists(_RATIONALS, min_size=k, max_size=k))
_FACTORS = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 7, 13]).map("P{}".format),
    _RATIONALS.map("({})".format),
    _COEFF_LISTS.map(lambda cs: "([" + ",".join(cs) + "])"),
)
_EXPONENTS = st.sampled_from(["", "^1", "^-1", "^2", "^-2", "^0", "^x"])
_IDEALS = st.lists(st.tuples(_FACTORS, _EXPONENTS).map("".join), max_size=3).map("*".join)
_LEVELS = st.one_of(st.integers(-10, 50), st.sampled_from([0, -7, 10 ** 40, "7", 7.5, None]))
_FIELDS = st.sampled_from(["realcyclo:28", "realcyclo:13", "cyclo:7", "quad:+5",
                           "realcyclo:10", "realcyclo:", "nonsense:4", 28, None])
_GRAMS = st.one_of(st.just("x"), st.lists(
    st.lists(st.integers(-3, 3), min_size=6, max_size=6), min_size=6, max_size=6))
_DELETE = "<deleted>"
_MUTATIONS = st.one_of(
    st.tuples(st.just("ideal"), _IDEALS),
    st.tuples(st.just("level"), _LEVELS),
    st.tuples(st.sampled_from(["alpha", "beta"]), st.one_of(_COEFF_LISTS, st.just(5))),
    st.tuples(st.just("field"), _FIELDS),
    st.tuples(st.just("gram"), _GRAMS),
    st.tuples(st.sampled_from(["field", "ideal", "alpha", "beta", "level", "gram"]),
              st.just(_DELETE)),
)


@pytest.fixture(scope="module")
def record28_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "record.json"
    assert main(["construct", "--field", "realcyclo:28", "--level", "7",
                 "--trace-type", "--out", str(path)]) == EXIT_OK
    return path, json.loads(path.read_text())


@settings(max_examples=60, deadline=None)
@given(mutation=_MUTATIONS)
@example(mutation=("ideal", "(1/0)"))
@example(mutation=("ideal", "P0"))
def test_verify_fuzzed_record_exit_codes(record28_doc, mutation):
    path, original = record28_doc
    key, value = mutation
    doc = dict(original)
    if value == _DELETE:
        del doc[key]
    else:
        doc[key] = value
    mutated = path.with_name("mutated.json")
    mutated.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--in", str(mutated)])
    assert code in (EXIT_OK, EXIT_SPEC, EXIT_ABSENT, EXIT_VERIFY)
    assert "Traceback" not in err.getvalue()


# --------------------------------------------------------------------------
# cold start
# --------------------------------------------------------------------------

_COLD_RUN = """
import contextlib, hashlib, io, json, sys
from arakelov.cli import main
record = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["exists", "--field", "realcyclo:13"]),
             main(["construct", "--field", "realcyclo:13", "--level", "13",
                   "--out", record]),
             main(["verify", "--in", record, "--min", "--theta", "2"])]
exact = "mpmath" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(main(["construct", "--field", "quad:-3", "--level", "3",
                       "--embed", "96"]))
print(json.dumps({"codes": codes, "exact_path_loads_mpmath": exact,
                  "embed_loads_mpmath": "mpmath" in sys.modules,
                  "embed_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
"""


def test_exact_path_never_imports_mpmath(tmp_path):
    """In a fresh interpreter, exists, construct and verify without
    --embed leave mpmath unloaded; construct --embed loads it and prints
    the pinned record."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(arakelov.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _COLD_RUN, str(tmp_path / "r13.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [EXIT_OK] * 4
    assert got["exact_path_loads_mpmath"] is False
    assert got["embed_loads_mpmath"] is True
    assert got["embed_sha256"] == \
        "5e48634cdba652c80d3313e80eeff999cea70427b5ceb3eb13e01f999ef74dfd"


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["construct", "--help"], 0),
                                         (["construct"], EXIT_SPEC)])
def test_help_and_usage_errors_load_no_layer(argv, code):
    """--help, a subcommand's --help and an argparse usage error parse
    with the standard library alone: -X importtime, which lists every
    module a fresh interpreter imports, names no arakelov module but the
    package (cli.py itself runs as __main__)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(arakelov.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "arakelov.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "usage: arakelov" in proc.stdout + proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert [name for name in imported if name.split(".")[0] == "arakelov"] == ["arakelov"]


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


def test_enumeration_past_its_budget_exits_2(capsys, monkeypatch, record28, tmp_path):
    """Every command that walks an enumeration exits 2 with empty stdout,
    and writes no --out file, once the walk passes ENUMERATION_BUDGET;
    verify without --min or --theta walks nothing and still passes."""
    monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", 5)
    out = tmp_path / "out.json"
    for argv in (["construct", "--field", "realcyclo:28", "--level", "7", "--trace-type"],
                 ["construct", "--field", "realcyclo:28", "--level", "7", "--trace-type",
                  "--out", str(out)],
                 ["verify", "--in", str(record28), "--min"],
                 ["verify", "--in", str(record28), "--theta", "4"],
                 ["catalog", "--paper-table"],
                 ["catalog", "--examples"]):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (EXIT_SPEC, ""), argv
        assert "in dimension 6 passed its budget of 5 nodes" in err, argv
    assert not out.exists()
    assert run(capsys, "verify", "--in", str(record28))[0] == EXIT_OK


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
