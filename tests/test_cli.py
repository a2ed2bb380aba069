import contextlib
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprime.cli import main
from qprime.formspec import parse_form_spec
from qprime.qseries import QExpansion


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "D^2 G2", "--precision", "3")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == ["0", "1", "12", "36"]


def test_expand_csv(capsys):
    code, out, _ = run_cli(capsys, "expand", "G4", "--precision", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[1] == "0,-1/240"
    assert [line.split(",")[1] for line in lines[2:]] == ["1", "9", "28", "73", "126"]


def test_expand_round_trip(capsys):
    spec = "3/2 D^2 G4 + DELTA - 2 S16.0"
    code, out, _ = run_cli(capsys, "expand", spec, "--precision", "25")
    assert code == 0
    assert QExpansion.from_json(out) == parse_form_spec(spec).expand(25)


def test_expand_classical_convention(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "G4", "--precision", "2",
        "--eisenstein-constant-sign", "classical",
    )
    assert code == 0
    assert json.loads(out)["coeffs"][0] == "1/240"


@pytest.mark.parametrize("command", [["decompose", "G4"], ["finite-check", "G4"],
                                     ["signstats", "G4"], ["macmahon"]])
def test_constant_sign_is_refused_where_nothing_reads_it(capsys, command):
    code, out, err = run_cli(capsys, *command, "--eisenstein-constant-sign", "classical")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --eisenstein-constant-sign" in err


@pytest.mark.parametrize(
    "spec, precision, coeffs",
    # cusp forms below the dimension of their space: the basis is built at
    # the dimension and truncated
    [("S24.1", "1", ["0", "0"]), ("S24.0", "1", ["0", "1"]),
     ("S40.2", "2", ["0", "0", "0"]), ("S40.1 + 2 S40.2", "1", ["0", "0"])],
)
def test_expand_cusp_form_below_its_dimension(capsys, spec, precision, coeffs):
    code, out, err = run_cli(capsys, "expand", spec, "--precision", precision)
    assert code == 0, err
    assert json.loads(out)["coeffs"] == coeffs
    code, out, _ = run_cli(
        capsys, "expand", spec, "--precision", precision, "--format", "csv"
    )
    assert code == 0
    assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == coeffs


def test_expand_from_json_file(capsys, tmp_path):
    form = parse_form_spec("D G2 - 24 DELTA")
    path = tmp_path / "form.json"
    path.write_text(form.to_json())
    code, out, _ = run_cli(capsys, "expand", str(path), "--precision", "4")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "-23", "582", "-6036", "35356"]


def test_form_spec_wins_over_a_file_of_the_same_name(capsys, tmp_path, monkeypatch):
    # a file named G4 holding G6 must not shadow the form G4; "./G4" is no
    # form spec, so it still reaches the file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "G4").write_text(parse_form_spec("G6").to_json())
    code, out, _ = run_cli(capsys, "expand", "G4", "--precision", "3")
    assert code == 0
    assert QExpansion.from_json(out) == parse_form_spec("G4").expand(3)
    code, out, _ = run_cli(capsys, "expand", "./G4", "--precision", "3")
    assert code == 0
    assert QExpansion.from_json(out) == parse_form_spec("G6").expand(3)
    assert json.loads(out)["coeffs"][1] == "1"


def test_missing_path_gets_the_grammar_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "expand", "./missing.json", "--precision", "3")
    assert code == 2
    assert out == ""
    assert err == "error: unexpected character '.' (position 0)\n"


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "expand", "G6", "--precision", "3", "--output", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["coeffs"] == ["1/504", "1", "33", "244"]


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, "decompose", "H6", "--precision", "40")
    assert code == 0
    data = json.loads(out)
    assert data["certificate_precision"] == 40
    assert data["cusp_part"]["cusp"] == []
    eis_keys = {(k, l) for k, l, _ in data["eis_part"]["eis"]}
    assert eis_keys == {(2, 2), (2, 1), (2, 0), (4, 0)}


def test_decide_member(capsys):
    code, out, _ = run_cli(capsys, "decide", "H8", "--bound", "100")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["verdict"] == "InOmegaTilde"
    assert data["scan"]["nonneg_ok"] and data["scan"]["zero_set_equals_primes"]


def test_decide_eisenstein_witness(capsys):
    code, out, _ = run_cli(capsys, "decide", "G4", "--bound", "50")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"]["verdict"] == "Not"
    assert data["verdict"]["witness"]["type"] == "prime"


def test_decide_rejects_negative_max_violations(capsys):
    code, out, err = run_cli(
        capsys, "decide", "G4", "--bound", "50", "--max-violations", "-1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "max_violations" in err


def test_decide_cusp_witness(capsys):
    code, out, _ = run_cli(capsys, "decide", "DELTA", "--bound", "50")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"]["witness"]["type"] == "cusp"


def test_finite_check_auto_primes(capsys):
    code, out, _ = run_cli(capsys, "finite-check", "H6")
    assert code == 0
    assert json.loads(out)["verdict"] == "VanishesAtAllPrimes"


def test_finite_check_explicit_primes(capsys):
    code, out, _ = run_cli(capsys, "finite-check", "G4", "--primes", "2,3")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "NotAllPrimes"
    assert data["witness"]["p"] == 2


def test_finite_check_insufficient(capsys):
    code, out, _ = run_cli(capsys, "finite-check", "H8", "--first-primes", "3")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "InsufficientPrimes"
    assert data["degree_bound"] == 5
    assert data["needed"] == 6


def test_finite_check_huge_prime_is_fast(capsys):
    code, out, _ = run_cli(capsys, "finite-check", "G4", "--primes", str(10**18 + 3))
    assert code == 1
    assert json.loads(out)["witness"]["p"] == 10**18 + 3


def test_finite_check_prime_past_the_primality_range_exits_2(capsys):
    # 2^89 - 1 is prime, but above the range where is_prime is proven exact
    code, _, err = run_cli(capsys, "finite-check", "G4", "--primes", str(2**89 - 1))
    assert code == 2
    assert "Miller-Rabin" in err


@pytest.mark.parametrize(
    "argv, message",
    [(["--amax", "11"], "--amax must be at most 10"),
     (["--bound", "5001"], "--bound must be at most 5000"),
     (["--amax", str(10**12), "--bound", str(10**12)], "--amax must be at most 10")],
)
def test_macmahon_refuses_sizes_past_its_caps(capsys, monkeypatch, argv, message):
    import qprime.macmahon

    def never(*args):
        raise AssertionError("macmahon_table called past the caps")

    monkeypatch.setattr(qprime.macmahon, "macmahon_table", never)
    code, _, err = run_cli(capsys, "macmahon", *argv)
    assert code == 2
    assert message in err


def test_macmahon_accepts_sizes_at_its_caps(capsys, monkeypatch):
    import qprime.macmahon

    def reached(a_max, n_max):
        raise ValueError(f"reached with {a_max}, {n_max}")

    monkeypatch.setattr(qprime.macmahon, "macmahon_table", reached)
    code, _, err = run_cli(capsys, "macmahon", "--amax", "10", "--bound", "5000")
    assert code == 2
    assert "reached with 10, 5000" in err


def test_memory_error_exits_2(capsys, monkeypatch):
    import qprime.macmahon

    def exhausted(a_max, n_max):
        raise MemoryError

    monkeypatch.setattr(qprime.macmahon, "macmahon_table", exhausted)
    code, out, err = run_cli(capsys, "macmahon", "--bound", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory")


def test_macmahon_csv(capsys):
    code, out, _ = run_cli(capsys, "macmahon", "--amax", "2", "--bound", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,M_1,M_2,identity_holds"
    assert "5,6,9,1" in lines
    assert "4,7,3,0" in lines


def test_macmahon_json(capsys):
    code, out, _ = run_cli(capsys, "macmahon", "--amax", "1", "--bound", "5")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == [[1, 3, 4, 7, 6]]
    assert "identity_holds" not in data


def test_signstats(capsys):
    code, out, _ = run_cli(capsys, "signstats", "DELTA", "--bound", "10")
    assert code == 0
    data = json.loads(out)
    assert data["sign_changes"] == 2
    assert data["partial_sum"] == [[10, "-11686"]]


def test_signstats_grid_and_plot_data(capsys):
    code, out, _ = run_cli(
        capsys, "signstats", "DELTA", "--bound", "100",
        "--grid", "10,50,100", "--plot-data",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,normalized_sq"
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["10", "50", "100"]


def test_signstats_rejects_negative_grid_point(capsys):
    code, out, err = run_cli(capsys, "signstats", "DELTA", "--bound", "100", "--grid", "-3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "negative" in err


def test_signstats_plot_data_needs_cusp_form(capsys):
    code, _, err = run_cli(capsys, "signstats", "G4", "--bound", "10", "--plot-data")
    assert code == 2
    assert "cusp-only" in err


def test_deligne(capsys):
    code, out, _ = run_cli(capsys, "deligne", "--weight", "12", "--bound", "100")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["failures"] == []


def test_deligne_unsupported_weight(capsys):
    code, _, err = run_cli(capsys, "deligne", "--weight", "14")
    assert code == 2
    assert "weight" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "expand", "G4 %% junk")
    assert code == 2
    assert "position" in err


def test_number_past_the_digit_limit_is_a_grammar_error(capsys):
    # int() refuses a numeral of more digits than the interpreter's limit
    # (4300 by default); the grammar reports it with its position
    code, out, err = run_cli(capsys, "expand", "G6 + " + "1" * 5000 + " G4", "--precision", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: number of 5000 characters") and "(position 5)" in err
    code, _, err = run_cli(capsys, "expand", "1/" + "7" * 5000 + " G4", "--precision", "2")
    assert code == 2 and "(position 0)" in err


_SPEC_ALPHABET = "GHSDELTA0123456789./*+-^ ()"
_VALID_SPECS = ("G4", "3/2 D^2 G4 + DELTA - 2 S16.0", "H8 - 1/24 D G6", "S24.1 + 5",
                "-D^3 S40.2 * 2", "7 * H10")


@st.composite
def _near_miss(draw):
    # a valid spec with one character inserted, deleted or replaced
    spec = draw(st.sampled_from(_VALID_SPECS))
    at = draw(st.integers(0, len(spec)))
    char = draw(st.sampled_from(_SPEC_ALPHABET))
    return draw(st.sampled_from([spec[:at] + char + spec[at:], spec[:at] + spec[at + 1:],
                                 spec[:at] + char + spec[at + 1:]]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(_SPEC_ALPHABET, max_size=24), _near_miss()))
def test_expand_never_raises_on_any_spec(spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["expand", spec, "--precision", "2"])
    assert code in (0, 2), (spec, err.getvalue())
    if code == 0:
        assert len(json.loads(out.getvalue())["coeffs"]) == 3
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2


@pytest.mark.parametrize(
    "spec, message",
    [("G602", "weight exceeds the maximum 600"),
     ("D^301 G4", "derivative order exceeds the maximum 300"),
     ("D^99999999999999999999 G4", "derivative order exceeds the maximum 300")],
)
def test_weight_and_order_bounds_exit_2(capsys, spec, message):
    code, out, err = run_cli(capsys, "expand", spec, "--precision", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_bad_precision_rejected(capsys):
    code, _, err = run_cli(capsys, "expand", "G4", "--precision", "0")
    assert code == 2
    assert "--precision" in err


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_bad_json_file_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert run_cli(capsys, "expand", str(path))[0] == 2


@pytest.mark.parametrize(
    "text, message",
    [
        # a float key would be truncated to a weight, a float coefficient
        # would enter the exact domain as its binary expansion
        ('{"eis": [[4.5, 0, 0.1]]}', "must be integers"),
        ('{"eis": [[4, 0, 0.1]]}', "must be an integer"),
        ('{"eis": [[true, 0, "1"]]}', "must be integers"),
        ('{"cusp": [[12, 0, false, "1"]]}', "must be integers"),
        ('{"eis": [["4", 0, "1"]]}', "must be integers"),
        ('{"eis": [[4, 0, true]]}', "must be an integer"),
        ('{"eis": [[4, 0, null]]}', "must be an integer"),
        ('{"eis": [[4, 0, [1]]]}', "must be an integer"),
        ('{"eis": [[4, 0, "1/0"]]}', "not a rational"),
        ('{"eis": [[4, 0, "x"]]}', "not a rational"),
        ('{"eis": [[4, 0]]}', "a coefficient"),
        ('{"eis": [4, 0, "1"]}', "a coefficient"),
        ('{"eis": {"4": "1"}}', "must be a list"),
        ('{"eiss": []}', "unknown fields"),
        ("[1, 2]", "must be an object"),
        ('"G4"', "must be an object"),
        ("3", "must be an object"),
        # the first weight and order past the bounds in forms
        ('{"eis": [[602, 0, "1"]]}', "weight above the maximum 600"),
        ('{"eis": [[4, 301, "1"]]}', "derivative order above the maximum 300"),
        ('{"cusp": [[602, 0, 0, "1"]]}', "weight above the maximum 600"),
        ('{"cusp": [[12, 0, 301, "1"]]}', "derivative order above the maximum 300"),
        ('{"cusp": [[1200000000, 0, 0, "1"]]}', "weight above the maximum 600"),
    ],
)
def test_quasiform_json_boundary(capsys, tmp_path, text, message):
    path = tmp_path / "form.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "expand", str(path), "--precision", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_quasiform_json_accepts_int_and_string_coefficients(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text('{"eis": [[4, 0, 240], [2, 1, "-1/2"]], "cusp": [[12, 0, 0, "3"]]}')
    code, out, _ = run_cli(capsys, "expand", str(path), "--precision", "3")
    assert code == 0
    expected = parse_form_spec("240 G4 - 1/2 D G2 + 3 DELTA").expand(3)
    assert QExpansion.from_json(out) == expected


# output of the previous release for a cusp combination whose normalized
# column stays inside the float range; it must not change by a byte
_SIGNSTATS_SPEC = ["S24.1 - 3/2 D^2 DELTA", "--bound", "300", "--grid", "10,97,300"]
_SIGNSTATS_CSV = """x,partial_sum,partial_sum_sq,normalized_sq\r
10,45390,98449050350,2.2668731575533025e-13\r
97,21989034234866417110,472385260294238393817978682855232154720,4.4888839409810164e-09\r
300,2465930624293060557146560,30046742379788129664644686332701484152580223032110,6.068065144378928e-10\r
"""
_SIGNSTATS_JSON = {
    "x_max": 300,
    "sign_changes": 40,
    "partial_sum": [
        [10, "45390"],
        [97, "21989034234866417110"],
        [300, "2465930624293060557146560"],
    ],
    "partial_sum_sq": [
        [10, "98449050350"],
        [97, "472385260294238393817978682855232154720"],
        [300, "30046742379788129664644686332701484152580223032110"],
    ],
    "normalized_sq": [
        [10, 2.2668731575533025e-13],
        [97, 4.4888839409810164e-09],
        [300, 6.068065144378928e-10],
    ],
}


def test_signstats_output_unchanged_without_overflow(capsys):
    code, out, _ = run_cli(capsys, "signstats", *_SIGNSTATS_SPEC)
    assert code == 0
    assert out == json.dumps(_SIGNSTATS_JSON, indent=2) + "\n"
    code, out, _ = run_cli(capsys, "signstats", *_SIGNSTATS_SPEC, "--format", "csv")
    assert code == 0
    assert out == _SIGNSTATS_CSV


def test_signstats_normalized_overflow_is_null(capsys):
    code, out, err = run_cli(
        capsys, "signstats", "D^100 DELTA", "--bound", "3000", "--grid", "2,10,3000"
    )
    assert code == 0, err
    data = json.loads(out)
    # exact sums are untouched; only the float column gives up at x = 3000
    tau2_sq = 24**2 * 2**200
    assert data["partial_sum_sq"][0] == [2, str(tau2_sq)]
    assert [x for x, _ in data["normalized_sq"]] == [2, 10, 3000]
    assert isinstance(data["normalized_sq"][0][1], float)
    assert isinstance(data["normalized_sq"][1][1], float)
    assert data["normalized_sq"][2][1] is None
    assert int(data["partial_sum_sq"][2][1]).bit_length() > 1024


# SHA-256 of the standard output of the previous release for big cusp
# expansions and scans; the series products behind them must not move a byte
_PINNED_OUTPUTS = [
    (["expand", "S40.1", "--precision", "1600"],
     "1a16d711d0c8441c0cbea883b931e1705f67408b51293501723fe1a3e7b6358b"),
    (["expand", "S36.2", "--precision", "1900"],
     "4b31a43f80ef068167814b8103f2a248845bff2451592daafa2629c4363bc313"),
    (["deligne", "--weight", "26", "--bound", "5000"],
     "5f2baeae1901d05894488dd1b182cad4a9ee04ae7d32505e900d1db440ef830b"),
    (["signstats", "3 S28.1 - 2 D DELTA", "--bound", "3000"],
     "101175bf40d90f2d254c7749423225c138e994cf91f6552f2e025b3461030994"),
]


@pytest.mark.parametrize(
    "argv, digest", _PINNED_OUTPUTS, ids=["S40.1", "S36.2", "deligne26", "signstats28"]
)
def test_big_series_output_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
