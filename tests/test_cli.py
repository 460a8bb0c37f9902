import functools
import io
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import entropykit
from entropykit import thermo
from entropykit.cli import COMMANDS, Report, _error_message, build_parser, run
from entropykit.documents import DocumentError, load_document, parse_document
from entropykit.expr import MAX_SAMPLES
from entropykit.forms import Confidence, ContactResult, SymmetryResult
from entropykit.galois import GaloisError

CORPUS = Path(__file__).resolve().parent.parent / "docs" / "corpus"


def run_cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out)
    return code, out.getvalue()


# -- document parsing -----------------------------------------------------------


def test_load_ideal_gas_document():
    doc = load_document(str(CORPUS / "ideal_gas.doc"))
    assert doc.thermo_chart.energy == "U"
    assert doc.thermo_chart.pairs == (("T", "S", 1), ("p", "V", -1))
    assert doc.param_values == {"N": F(1), "R": F(1)}
    assert doc.spec.equations is None
    assert set(doc.paths) == {"direct", "dogleg"}
    assert len(doc.paths["dogleg"].segments) == 2


def test_load_states_and_relation_document():
    doc = load_document(str(CORPUS / "oracle_space.doc"))
    assert doc.spaces["Gamma"].scalable
    assert doc.spaces["Gamma"].states["c"] == (F(2), F(3))
    assert doc.relation is not None
    assert doc.relation.supports_scaling


def test_load_poset_document():
    doc = load_document(str(CORPUS / "chains.doc"))
    assert doc.posets["A"][0] == ("a0", "a1", "a2")
    assert doc.maps["F"][2]["a2"] == "b1"


def test_parse_errors_name_file_and_line():
    with pytest.raises(DocumentError) as err:
        parse_document("[chart]\ncoords x y\n", path="bad.doc")
    assert "bad.doc:2" in str(err.value)
    with pytest.raises(DocumentError):
        parse_document("stray line\n")
    with pytest.raises(DocumentError):
        parse_document("[nonsense]\nkey = 1\n")


def test_segment_claims_parse():
    doc = load_document(str(CORPUS / "fig2_audit.doc"))
    segs = doc.paths["cooling_then_claimed_adiabat"].segments
    assert segs[0].claim is None
    assert segs[1].claim == "adiabatic"


def test_higher_degree_forms_parse():
    doc = parse_document(
        "[chart]\ncoords = x y z\n\n[forms]\nform area : x y = 1, y z = x\n"
    )
    area = doc.forms["area"]
    assert area.degree == 2
    assert area.coefficient(("x", "y")) == doc.chart.one()
    assert area.coefficient(("y", "z")) == doc.chart.var("x")
    with pytest.raises(DocumentError):
        parse_document("[chart]\ncoords = x y z\n\n[forms]\nform bad : x = 1, x y = 1\n")


# -- exit codes ------------------------------------------------------------------


def test_exit_zero_on_pass():
    code, text = run_cli("maxwell", str(CORPUS / "ideal_gas.doc"))
    assert code == 0
    assert "identity: ∂T/∂V = -∂p/∂S" in text
    assert "verdict: OK" in text


def test_frobenius_sees_a_large_perfect_square_root_exactly(tmp_path):
    # ((R^2)^(1/2) - R)*x dy is zero: the form is dz, integrable, and the
    # root of R^2 (past 2^106) must be found exactly for the verdict to be
    # certain and right
    r = 889862090649785494436976022
    doc = tmp_path / "big_root.doc"
    doc.write_text(
        f"[chart]\ncoords = x y z\n\n[forms]\nform q : z = 1, y = (({r}^2)^(1/2) - {r})*x\n"
    )
    code, text = run_cli("frobenius", str(doc))
    assert code == 0
    assert "verdict: INTEGRABLE\ncertainty: certain\nobstruction: 0\n" in text


@pytest.mark.parametrize("value", ["-1", "0", "-3/2"])
def test_non_positive_param_exits_two_at_its_line(tmp_path, value):
    # with c = -1, (c^2)^(1/2) simplifies to c and the path read ΔU = -1
    # where the true change is +1
    doc = tmp_path / "negative_param.doc"
    doc.write_text(
        f"[params]\nc = {value}\n\n"
        "[chart]\nenergy = U\npair = T S +\npair = p V -\nheat = T\n\n"
        "[spec]\npotential = (c^2)^(1/2)*S + V\n\n"
        "[paths]\npath leg:\n  segment S = 1 + t, V = 1\n"
    )
    code, text = run_cli("path", str(doc))
    assert code == 2
    assert text == f"error: {doc}:2: param c must be positive, got {value}\n"
    assert "delta-energy" not in text


def test_exit_one_on_failure():
    code, text = run_cli("frobenius", str(CORPUS / "cartan_form.doc"))
    assert code == 1
    assert "NOT_INTEGRABLE" in text


CERTAIN, SAMPLED = Confidence.CERTAIN, Confidence.SAMPLED


@pytest.mark.parametrize(
    "ok, confidences, status, code",
    [
        (True, (), "pass", 0),
        (False, (), "fail", 1),
        (True, (CERTAIN,), "pass", 0),
        (False, (CERTAIN,), "fail", 1),
        (True, (SAMPLED,), "inconclusive", 3),
        (False, (SAMPLED,), "inconclusive", 3),
        (True, (CERTAIN, SAMPLED), "inconclusive", 3),
        (False, (CERTAIN, SAMPLED), "inconclusive", 3),
        (True, (None,), "pass", 0),
        (False, (None,), "fail", 1),
    ],
)
def test_status_rule(ok, confidences, status, code):
    # a sampled confidence makes a verdict inconclusive whether it passes or
    # fails; a None confidence is a check that was not run
    report = Report()
    idx = report.block("rule")
    report.set_status(idx, ok, *confidences)
    assert report.blocks[idx][0] == status
    assert report.exit_code() == code
    assert f"status: {status}\n" in report.render("structured")


def test_confidence_is_one_type():
    assert entropykit.Confidence is Confidence is entropykit.expr.Confidence


def test_exit_two_on_parse_error():
    code, text = run_cli("maxwell", str(CORPUS / "parse_error.doc"))
    assert code == 2
    assert "error:" in text
    assert "parse_error.doc:2" in text


@pytest.mark.parametrize(
    "bad",
    ["eps_steps = six", "tol = tiny", "eps_steps = 0", "lambda_grid = 0 1",
     "lambda_grid = 1/2 -2", "samples = 0", "tol = -1", "margin = -1", "margin = 0",
     "seed = 7", "tol = nan", "eps_steps = 1001", "lambda_grid = 1/0", "samples = 10001",
     "tol = inf"],
)
def test_exit_two_on_bad_config_number_names_file_and_line(tmp_path, bad):
    doc = tmp_path / "bad_config.doc"
    text = (CORPUS / "oracle_space.doc").read_text()
    doc.write_text(text.replace("eps_steps = 6", bad))
    line_no = text.splitlines().index("eps_steps = 6") + 1
    code, out = run_cli("axioms", str(doc))
    assert code == 2
    assert f"{doc}:{line_no}:" in out
    assert "Traceback" not in out


def test_largest_eps_steps_finishes_on_a_scaled_edge_document(tmp_path):
    # the ε schedule costs quadratically in eps_steps: 200,000 once took 42 s
    doc = tmp_path / "edge_scaled.doc"
    doc.write_text(
        "[states]\nspace G coords x scalable\nstate a = 0\nstate b = 1\n\n"
        "[relation]\nscaling = true\nedge a b\n\n[config]\neps_steps = 1000\n"
    )
    src = str(Path(entropykit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "entropykit.cli", "axioms", str(doc)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "axiom: stability\nverdict: NOT_APPLICABLE\n" in done.stdout


def doc_with(tmp_path, old, new):
    """A copy of oracle_space.doc with one line replaced; returns the copy
    and the line number of the replacement."""
    text = (CORPUS / "oracle_space.doc").read_text()
    doc = tmp_path / "variant.doc"
    doc.write_text(text.replace(old, new))
    return doc, text.splitlines().index(old) + 1


@pytest.mark.parametrize("bad", ["grid_step = 0", "grid_step = -1/4"])
def test_exit_two_on_non_positive_grid_step_without_hanging(tmp_path, bad):
    # a fresh process with a timeout, since a zero step once looped forever
    doc, line_no = doc_with(tmp_path, "eps_steps = 6", bad)
    src = str(Path(entropykit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "entropykit.cli", "entropy-construct", str(doc)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert f"{doc}:{line_no}: grid_step must be positive" in done.stdout
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.parametrize("step, code", [("1/1000000", 2), ("1/10001", 2), ("1/10000", 0)])
def test_grid_step_finer_than_the_grid_budget_exits_two(tmp_path, step, code):
    # 1/1000000 once took 12 s and 1.1 GB, and 1/10000000 ran out of memory
    doc, line_no = doc_with(tmp_path, "eps_steps = 6", f"grid_step = {step}")
    got, out = run_cli("entropy-construct", str(doc))
    assert got == code
    if code:
        assert out == (
            f"error: {doc}:{line_no}: grid_step must be at least 1/10000, got {step}\n"
        )
    else:
        assert "grid-step: 1/10000\nS(a): 0\n" in out and "verified: yes" in out


def oracle_document(tmp_path, n, step):
    """An oracle document of one scalable space with n states, whose values
    u + 2v spread over [0, 3n), and the given grid_step."""
    states = "".join(f"state s{k} = {k} {k * 7 % n}\n" for k in range(n))
    doc = tmp_path / f"oracle_{n}.doc"
    doc.write_text(
        f"[states]\nspace G coords u v scalable\n{states}\n"
        f"[relation]\noracle = u + 2*v\n\n[config]\ngrid_step = {step}\n"
    )
    return doc


def test_entropy_construct_on_400_states_at_the_finest_grid(tmp_path, monkeypatch):
    # a size-sweep point: the scan once built 9,999 references and asked up to
    # 10,001 of them per state; the oracle's totals leave the n² pure pairs
    n = 400
    doc = oracle_document(tmp_path, n, "1/10000")
    src = str(Path(entropykit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "entropykit.cli", "entropy-construct", str(doc)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "verified: yes" in done.stdout

    from entropykit.access import EntropyOracle

    asked = 0
    real_le = EntropyOracle.le

    def counting_le(self, x, y):
        nonlocal asked
        asked += 1
        return real_le(self, x, y)

    monkeypatch.setattr(EntropyOracle, "le", counting_le)
    assert run_cli("entropy-construct", str(doc)) == (0, done.stdout)
    assert asked == n * n


def test_parser_is_reused_after_a_bad_flag():
    args = ("entropy-verify", str(CORPUS / "entropy_ok.doc"), "--format", "structured")
    first = run_cli(*args)
    assert run_cli(*args, "--eps-steps", "many")[0] == 2
    assert run_cli(*args) == first
    assert first[0] == 0
    assert build_parser() is build_parser()  # built once per process


@pytest.mark.parametrize("doc", ["entropy_ok.doc", "entropy_swapped.doc"])
def test_entropy_verify_does_not_depend_on_the_seed(doc):
    # additivity and extensivity hold by the definition of S on composites,
    # so nothing is drawn
    outputs = {run_cli("entropy-verify", str(CORPUS / doc), "--seed", str(seed))
               for seed in range(4)}
    assert len(outputs) == 1
    (code, text), = outputs
    assert "additivity: PASS\nextensivity: PASS\n" in text


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--eps-steps", "-1"), "eps_steps must be at least 1, got -1"),
        (("--eps-steps", "0"), "eps_steps must be at least 1, got 0"),
        (("--eps-steps", "1001"), "eps_steps must be at most 1000, got 1001"),
        (("--lambda-grid", "0,1"), "lambda_grid needs positive scales, got 0 1"),
        (("--tol", "-1"), "tol must be non-negative, got -1.0"),
        (("--tol", "nan"), "tol must be non-negative, got nan"),
        (("--tol", "inf"), "tol must be finite, got inf"),
        # argparse's usage errors, on stderr
        (("--lambda-grid", "1/0"), "argument --lambda-grid: invalid lambda_grid value: '1/0'"),
        (("--lambda-grid", ""), "argument --lambda-grid: invalid lambda_grid value: ''"),
    ],
)
def test_exit_two_on_bad_axiom_flags(flags, message, capsys):
    # every command refuses a bad flag, also one that it does not read
    for command, doc in [("axioms", "oracle_space.doc"), ("maxwell", "ideal_gas.doc")]:
        code, out = run_cli(command, str(CORPUS / doc), *flags)
        err = capsys.readouterr().err
        assert code == 2
        if message.startswith("argument "):
            assert out == "" and err.endswith(f"\nentropykit: error: {message}\n")
        else:
            assert (out, err) == (f"error: {message}\n", "")


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_a_bad_seed_variable_is_named(value, monkeypatch):
    doc = str(CORPUS / "raw_chain.doc")
    monkeypatch.setenv("ENTROPYKIT_SEED", value)
    assert run_cli("axioms", doc) == (
        2, f"error: ENTROPYKIT_SEED must be an integer, got {value!r}\n"
    )
    # --seed wins over the variable, which is then not read
    assert run_cli("axioms", doc, "--seed", "0")[0] == 1


def test_config_tol_reaches_the_path_audits(tmp_path):
    doc = tmp_path / "fig2_tol.doc"
    doc.write_text((CORPUS / "fig2_audit.doc").read_text() + "\n[config]\ntol = 3\n")
    code, out = run_cli("cycle-audit", str(doc))
    flag_code, flag_out = run_cli("cycle-audit", str(CORPUS / "fig2_audit.doc"), "--tol", "3")
    assert (code, flag_code) == (0, 0)
    assert "claim=adiabatic claim-honored=yes" in out
    lines, flag_lines = out.splitlines(), flag_out.splitlines()
    assert lines[2] == f"path: {doc}"
    assert lines[:2] + lines[3:] == flag_lines[:2] + flag_lines[3:]


def test_tol_replaces_the_balance_threshold_of_path(tmp_path):
    # kelvin_trap's First-Law residual is 1.5: it fails the default 1e-8 and
    # tol 1, and passes tol 2, given as a flag or in [config]
    source = CORPUS / "kelvin_trap.doc"
    doc = tmp_path / "kelvin_tol.doc"
    doc.write_text(source.read_text() + "\n[config]\ntol = 2\n")
    runs = [run_cli("path", str(source)), run_cli("path", str(source), "--tol", "1"),
            run_cli("path", str(source), "--tol", "2"), run_cli("path", str(doc))]
    assert [code for code, _ in runs] == [1, 1, 0, 0]
    for _, out in runs:
        assert "balance-residual: 1.5\n" in out
    (_, flag_out), (_, config_out) = runs[2:]
    lines, flag_lines = config_out.splitlines(), flag_out.splitlines()
    assert lines[2] == f"path: {doc}"
    assert lines[:2] + lines[3:] == flag_lines[:2] + flag_lines[3:]


def test_cycle_audit_passes_where_the_heat_form_coordinate_is_fixed(tmp_path):
    # S = 0 on both legs, where T = S^(-1/2) has no value; the heat T dS is
    # exactly zero there, so T is never composed and the audit passes
    doc = tmp_path / "zero_rate.doc"
    doc.write_text(
        "[chart]\nenergy = U\npair = T S +\npair = p V -\nheat = T\n\n"
        "[spec]\nstate T = S^(-1/2)\nstate p = V\n\n"
        "[paths]\npath there_and_back:\n"
        "  segment S = 0, V = 1 + t\n  segment S = 0, V = 2 - t\n"
    )
    code, out = run_cli("cycle-audit", str(doc))
    assert code == 0
    for line in ("heat: 0", "work: 0", "balance: OK", "leg 0: max|Q|=0",
                 "leg 1: max|Q|=0", "status: pass"):
        assert f"\n{line}\n" in out


def test_calibrate_on_an_oracle_cross_names_file_and_line(tmp_path):
    text = (CORPUS / "calibrate_two.doc").read_text()
    doc = tmp_path / "oracle_cross.doc"
    doc.write_text(text.split("[cross]")[0] + "[cross]\noracle = x\n")
    line_no = doc.read_text().splitlines().index("oracle = x") + 1
    code, out = run_cli("calibrate", str(doc))
    assert code == 2
    assert out.startswith(f"error: {doc}:{line_no}: calibrate needs [cross] edges")
    assert "pairs" not in out


def test_exit_two_on_unwritable_out_without_traceback(tmp_path):
    target = tmp_path / "no_such_dir" / "report.txt"
    src = str(Path(entropykit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "entropykit.cli", "maxwell",
         str(CORPUS / "ideal_gas.doc"), "--out", str(target)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout.startswith("error: ") and str(target) in done.stdout
    assert "Traceback" not in done.stdout + done.stderr


def test_oracle_evaluation_error_names_file_line_and_state(tmp_path):
    doc, line_no = doc_with(tmp_path, "oracle = u + 2*v", "oracle = ln(u-1)")
    code, out = run_cli("axioms", str(doc))
    assert code == 2
    assert f"{doc}:{line_no}:" in out
    assert "at state Gamma.a: ln of a non-positive value" in out


@pytest.mark.parametrize("command", ["axioms", "ch", "entropy-construct"])
def test_space_with_no_states_exits_two_at_its_line(tmp_path, command):
    doc = tmp_path / "empty_space.doc"
    doc.write_text("[states]\nspace Gamma coords u v scalable\n\n[relation]\noracle = u + 2*v\n")
    code, out = run_cli(command, str(doc))
    assert code == 2
    assert out == f"error: {doc}:2: space 'Gamma' has no states\n"


@pytest.mark.parametrize("command", ["axioms", "ch", "entropy-construct"])
def test_space_with_no_coordinates_exits_two_at_its_line(tmp_path, command):
    # the scalable flag is not a coordinate name: such a space once passed,
    # and entropy-construct verified a degenerate entropy on it
    doc = tmp_path / "no_coords.doc"
    doc.write_text(
        "[states]\nspace G coords scalable\nstate a =\nstate b =\n\n[relation]\noracle = 1\n"
    )
    code, out = run_cli(command, str(doc))
    assert code == 2
    assert out == f"error: {doc}:2: space 'G' has no coordinates\n"


@pytest.mark.parametrize(
    "command, source, old, new, message",
    [
        ("axioms", "oracle_space.doc", "state b = 2 1", "state b = 2",
         "state 'b' has the wrong dimension"),
        ("galois", "chains.doc", "poset A : a0 a1 a2 : a0<a1, a1<a2",
         "poset A : a0 a1 a2 : a0<a1, a1<a9", "relation edge (a1, a9) outside carrier"),
        ("adjoint", "chains.doc", "poset B : b0 b1 : b0<b1", "poset B : b0 b1 b0 : b0<b1",
         "carrier elements must be distinct"),
        ("galois", "chains.doc", "map F : A -> B : a0 = b0, a1 = b0, a2 = b1",
         "map F : A -> B : a0 = b1, a1 = b0, a2 = b1",
         "map is not monotone: 'a0' ≤ 'a1' is not preserved"),
        ("galois", "chains.doc", "map G : B -> A : b0 = a1, b1 = a2",
         "map G : B -> A : b0 = a1", "mapping is not total: 'b1' unmapped"),
        ("landauer", "landauer_bit.doc", "map F : bit -> phys : zero = p0, one = p2",
         "map F : bit -> phys : zero = p0, one = p9", "'p9' is outside the target carrier"),
        ("landauer", "landauer_bit.doc",
         "map G : phys -> bit : p0 = zero, p1 = zero, p2 = one, p3 = one",
         "map G : phys -> bit : p0 = zero, p1 = zero, p2 = one",
         "mapping is not total: 'p3' unmapped"),
        ("galois", "chains.doc", "map F : A -> B : a0 = b0, a1 = b0, a2 = b1",
         "map F : A -> B : a0 = b0, a1 = b0, a2 = b1, a9 = b1",
         "'a9' is outside the source carrier"),
        ("adjoint", "chains.doc", "map F : A -> B : a0 = b0, a1 = b0, a2 = b1",
         "map F : A -> B : a0 = b0, a1 = b0, a2 = b1, a9 = b1",
         "'a9' is outside the source carrier"),
        ("galois", "chains.doc", "map G : B -> A : b0 = a1, b1 = a2",
         "map G : B -> A : b0 = a1, b1 = a2, zz = a1", "'zz' is outside the source carrier"),
        # adjoint checks a declared G as galois does, though its search replaces it
        ("adjoint", "chains.doc", "map G : B -> A : b0 = a1, b1 = a2",
         "map G : B -> A : b0 = a2, b1 = a0",
         "map is not monotone: 'b0' ≤ 'b1' is not preserved"),
        ("adjoint", "chains.doc", "map G : B -> A : b0 = a1, b1 = a2",
         "map G : B -> A : b0 = a1", "mapping is not total: 'b1' unmapped"),
        ("adjoint", "chains.doc", "map G : B -> A : b0 = a1, b1 = a2",
         "map G : B -> A : b0 = a1, b1 = a2, zz = a1", "'zz' is outside the source carrier"),
        ("landauer", "landauer_bit.doc", "map F : bit -> phys : zero = p0, one = p2",
         "map F : bit -> phys : zero = p0, one = p2, zz = p0",
         "'zz' is outside the source carrier"),
        ("landauer", "landauer_bit.doc",
         "map G : phys -> bit : p0 = zero, p1 = zero, p2 = one, p3 = one",
         "map G : phys -> bit : p0 = zero, p1 = zero, p2 = one, p3 = one, zz = zero",
         "'zz' is outside the source carrier"),
        ("landauer", "landauer_bit.doc",
         "map G : phys -> bit : p0 = zero, p1 = zero, p2 = one, p3 = one",
         "map G : phys -> phys : p0 = zero, p1 = zero, p2 = one, p3 = one",
         "maps F and G must run between the two entropy spaces"),
        # a space's coordinates are checked where declared, oracle or not
        ("ch", "oracle_space.doc", "space Gamma coords u v scalable",
         "space Gamma coords u u scalable", "duplicate name 'u'"),
        ("ch", "oracle_space.doc", "space Gamma coords u v scalable",
         "space Gamma coords ln v scalable", "'ln' is reserved for the function syntax"),
        ("axioms", "raw_chain.doc", "space Gamma coords x", "space Gamma coords x x",
         "duplicate name 'x'"),
        # a transform's new potential name, against the chart it joins
        ("potential", "potentials.doc", "swap S : name F", "swap S : name ln",
         "'ln' is reserved for the function syntax"),
        ("potential", "potentials.doc", "swap V : name H", "swap V : name V",
         "duplicate name 'V'"),
        # an entropy values its own space's states, no fewer and no more
        ("entropy-verify", "entropy_ok.doc", "fn S on Gamma : a = 0, b = 1, c = 2",
         "fn S on Gamma : a = 0, b = 1", "entropy 'S' misses states ['c']"),
        ("entropy-verify", "entropy_ok.doc", "fn S on Gamma : a = 0, b = 1, c = 2",
         "fn S on Gamma : a = 0, b = 1, c = 2, zz = 9",
         "entropy 'S' values states outside 'Gamma': ['zz']"),
        ("axioms", "raw_chain.doc", "closure = false", "closure = ture",
         "closure must be true/false, yes/no or 1/0, got 'ture'"),
        ("axioms", "raw_chain.doc", "closure = false", "scaling = maybe",
         "scaling must be true/false, yes/no or 1/0, got 'maybe'"),
    ],
)
def test_order_document_errors_name_file_and_line(tmp_path, command, source, old, new, message):
    text = (CORPUS / source).read_text()
    doc = tmp_path / source
    doc.write_text(text.replace(old, new))
    line_no = text.splitlines().index(old) + 1
    code, out = run_cli(command, str(doc))
    assert code == 2
    assert out == f"error: {doc}:{line_no}: {message}\n"


def test_a_node_row_adds_a_state_with_no_edge(tmp_path):
    doc = tmp_path / "node.doc"
    doc.write_text(
        "[states]\nspace G coords x\nstate a = 0\nstate b = 1\nstate c = 2\n\n"
        "[relation]\nnode c\nedge a b\n"
    )
    assert [str(x) for x in load_document(doc).relation.universe()] == ["G.c", "G.a", "G.b"]
    code, out = run_cli("ch", str(doc))
    assert code == 1
    assert "\nverdict: NOT_TOTAL\nincomparable: G.a vs G.c\nincomparable: G.b vs G.c\n" in out


TWO_WAY = (
    "[states]\nspace G coords x scalable\nstate a = 0\nstate b = 1\n\n"
    "[relation]\nscaling = true\nedge a b\nedge b a\n"
)


@pytest.mark.parametrize(
    "text, code, block",
    [
        (TWO_WAY, 0, "method: reference\ndegenerate: yes\ngrid-step: 1/64\n"
         "S(a): 0\nS(b): 0\nverified: yes\nstatus: pass"),
        (TWO_WAY + "closure = false\n", 1,
         "verdict: CONSTRUCTION_IMPOSSIBLE\nwitness: G.a\nstatus: fail"),
    ],
    ids=["degenerate", "not-reflexive"],
)
def test_entropy_construct_on_two_equivalent_states(tmp_path, text, code, block):
    # closed, a ~ b gets the degenerate entropy; unclosed, a ≺ a is missing
    doc = tmp_path / "two_way.doc"
    doc.write_text(text)
    got, out = run_cli("entropy-construct", str(doc))
    assert got == code
    assert f"\ncheck: entropy-construct\nspace: G\n{block}\n\n" in out


def test_entropy_construct_on_a_scalable_edge_relation_ranks_its_classes(tmp_path):
    # the relation's universe holds no reference composite ((1−λ)a, λc), so
    # the scan cannot ask about one: the classes get their ranks, as the
    # axioms check skips the cases such a universe cannot hold
    doc = tmp_path / "scalable_chain.doc"
    doc.write_text(
        "[states]\nspace Gamma coords x scalable\nstate a = 0\nstate b = 1\nstate c = 2\n\n"
        "[relation]\nscaling = true\nedge a b\nedge b c\n"
    )
    code, out = run_cli("entropy-construct", str(doc))
    assert code == 0, out
    assert (
        "\ncheck: entropy-construct\nspace: Gamma\nmethod: rank\n"
        "S(a): 0\nS(b): 1\nS(c): 2\nverified: yes\nstatus: pass\n\n"
    ) in out
    assert [run_cli(command, str(doc))[0] for command in ("axioms", "ch")] == [0, 0]


@pytest.mark.parametrize(
    "command, source, old, added",
    [
        ("ch", "oracle_space.doc", "oracle = u + 2*v", "edge d a"),
        ("axioms", "oracle_space.doc", "oracle = u + 2*v", "scaling = false"),
        ("axioms", "oracle_space.doc", "oracle = u + 2*v", "node a"),
        ("axioms", "oracle_space.doc", "oracle = u + 2*v", "closure = true"),
        ("axioms", "oracle_space.doc", "oracle = u + 2*v", "oracle = u"),
        ("axioms", "raw_chain.doc", "edge b c", "oracle = x"),
        ("calibrate", "calibrate_two.doc", "edge G2.s2 G1.s2", "oracle = x"),
    ],
    ids=["edge-after-oracle", "scaling-after-oracle", "node-after-oracle",
         "closure-after-oracle", "second-oracle", "oracle-after-edges", "oracle-in-cross"],
)
def test_relation_section_mixing_an_oracle_exits_two_at_the_later_line(
    tmp_path, command, source, old, added
):
    text = (CORPUS / source).read_text().replace(old, f"{old}\n{added}")
    doc = tmp_path / source
    doc.write_text(text)
    line_no = text.splitlines().index(added) + 1
    code, out = run_cli(command, str(doc))
    assert code == 2
    assert out == f"error: {doc}:{line_no}: an oracle relation takes no other line\n"


@pytest.mark.parametrize(
    "value, code",
    [("false", 1), ("FALSE", 1), ("No", 1), ("0", 1), ("True", 0), ("yes", 0), ("1", 0)],
)
def test_relation_flags_read_every_spelling_in_any_case(tmp_path, value, code):
    canonical = "true" if code == 0 else "false"
    outputs = []
    for spelling in (canonical, value):
        doc = tmp_path / f"{spelling}.doc"
        doc.write_text(
            (CORPUS / "raw_chain.doc").read_text()
            .replace("closure = false", f"closure = {spelling}")
        )
        got, out = run_cli("axioms", str(doc))
        assert got == code
        outputs.append(out.replace(str(doc), "<doc>"))
    assert outputs[0] == outputs[1]


COORDS_XYZ = "[chart]\ncoords = x y z\n\n[forms]\n"


def assert_exits_two_at(tmp_path, command, source, old, new, where, message):
    """Run command on source (a corpus name, or None for the text of new
    alone) with old replaced by new; it must exit 2 at the last line that
    reads where, with message."""
    text = new if source is None else (CORPUS / source).read_text().replace(old, new)
    assert source is None or old in (CORPUS / source).read_text()
    doc = tmp_path / "variant.doc"
    doc.write_text(text)
    lines = text.splitlines()
    line_no = len(lines) - lines[::-1].index(where)
    code, out = run_cli(command, str(doc))
    assert (code, out) == (2, f"error: {doc}:{line_no}: {message}\n")


@pytest.mark.parametrize(
    "command, source, old, new, where, message",
    [
        ("axioms", "raw_chain.doc", "closure = false", "closures = true", "closures = true",
         "unexpected line in relation section: 'closures = true'"),
        ("axioms", "raw_chain.doc", "closure = false", "scaling_on = yes", "scaling_on = yes",
         "unexpected line in relation section: 'scaling_on = yes'"),
        ("ch", "oracle_space.doc", "oracle = u + 2*v", "oracles = u + 2*v",
         "oracles = u + 2*v", "unexpected line in relation section: 'oracles = u + 2*v'"),
        ("calibrate", "calibrate_two.doc", "edge G1.s0 G2.s0", "oracle_x = 1", "oracle_x = 1",
         "unexpected line in relation section: 'oracle_x = 1'"),
        ("cycle-audit", "carnot.doc", "segment S = 1 + t, V = 1",
         "segments S = 1 + t, V = 1", "  segments S = 1 + t, V = 1",
         "unexpected line in [paths]: 'segments S = 1 + t, V = 1'"),
    ],
    ids=["closures", "scaling-prefix", "oracles", "cross-oracle-prefix", "segments"],
)
def test_relation_and_path_keywords_match_exactly(
    tmp_path, command, source, old, new, where, message
):
    # a word that only starts with a keyword was once taken for it
    assert_exits_two_at(tmp_path, command, source, old, new, where, message)


@pytest.mark.parametrize(
    "coefficient, message",
    [
        ("1 + ln(x - x)", "ln of a non-positive constant: ln(0)"),
        ("x*ln(x - x)", "ln of a non-positive constant: ln(0)"),
        ("ln(1 - 2)", "ln of a non-positive constant: ln(-1)"),
    ],
    ids=["plus-one", "times-x", "negative"],
)
@pytest.mark.parametrize("command", ["frobenius", "contact-check"])
def test_ln_of_a_non_positive_constant_exits_two_at_its_form(
    tmp_path, command, coefficient, message
):
    # refused where the form is read, not where a zero test or d meets it
    line = f"form omega : z = {coefficient}, x = 0 - y"
    assert_exits_two_at(tmp_path, command, None, None, COORDS_XYZ + line + "\n", line, message)


@pytest.mark.parametrize(
    "command, source, old, new, where, message",
    [
        ("maxwell", "carnot.doc", "R = 1", "R = 1\nR = 2", "R = 2", "param 'R' given twice"),
        ("maxwell", "carnot.doc", "R = 1", "R = 1\nR", "R", "param 'R' given twice"),
        ("maxwell", "carnot.doc", "energy = U", "energy = U\nenergy = H", "energy = H",
         "chart key 'energy' given twice"),
        ("maxwell", "carnot.doc", "heat = T", "heat = T\nheat = p", "heat = p",
         "chart key 'heat' given twice"),
        ("frobenius", None, None, COORDS_XYZ + "form q : z = 1\n[chart]\ncoords = x y\n",
         "coords = x y", "chart key 'coords' given twice"),
        ("axioms", "oracle_space.doc", "eps_steps = 6", "grid_step = 1/2\ngrid_step = 1/64",
         "grid_step = 1/64", "config key 'grid_step' given twice"),
        ("axioms", "oracle_space.doc", "state d = 4 4",
         "state d = 4 4\nspace Gamma coords u v scalable\nstate e = 1 1",
         "space Gamma coords u v scalable", "space 'Gamma' given twice"),
        ("axioms", "oracle_space.doc", "state d = 4 4", "state d = 4 4\nstate d = 1 1",
         "state d = 1 1", "state 'd' given twice"),
        ("frobenius", None, None, COORDS_XYZ + "form q : z = 1\nform q : x = 1\n",
         "form q : x = 1", "form 'q' given twice"),
        ("frobenius", None, None, COORDS_XYZ + "form q : z = 1, x = y, x = 0\n",
         "form q : z = 1, x = y, x = 0", "key 'x' given twice"),
        ("frobenius", None, None, COORDS_XYZ + "form q : z = 1\n  x = y\n  x  = 0\n",
         "  x  = 0", "form component 'x' given twice"),
        ("cycle-audit", "carnot.doc", "  segment S = 1, V = 2 - t",
         "  segment S = 1, V = 2 - t\npath rectangle:\n  segment S = 1, V = 2 - t",
         "path rectangle:", "path 'rectangle' given twice"),
        ("cycle-audit", "carnot.doc", "segment S = 1 + t, V = 1",
         "segment S = 1 + t, V = 1, S = 1", "  segment S = 1 + t, V = 1, S = 1",
         "key 'S' given twice"),
        ("entropy-verify", "calibrate_two.doc", "fn S2 on G2 : s0 = 3, s1 = 5, s2 = 7",
         "fn S1 on G2 : s0 = 3, s1 = 5, s2 = 7", "fn S1 on G2 : s0 = 3, s1 = 5, s2 = 7",
         "fn 'S1' given twice"),
        ("entropy-verify", "calibrate_two.doc", "fn S2 on G2 : s0 = 3, s1 = 5, s2 = 7",
         "fn S2 on G2 : s0 = 3, s1 = 5, s2 = 7, s0 = 9", "fn S2 on G2 : s0 = 3, s1 = 5, s2 = 7, s0 = 9",
         "key 's0' given twice"),
        ("galois", "chains.doc", "poset B : b0 b1 : b0<b1",
         "poset B : b0 b1 : b0<b1\nposet B : b0 :", "poset B : b0 :", "poset 'B' given twice"),
        ("galois", "chains.doc", "map G : B -> A : b0 = a1, b1 = a2",
         "map G : B -> A : b0 = a1, b1 = a2\nmap G : B -> A : b0 = a0, b1 = a2",
         "map G : B -> A : b0 = a0, b1 = a2", "map 'G' given twice"),
        ("galois", "chains.doc", "map F : A -> B : a0 = b0, a1 = b0, a2 = b1",
         "map F : A -> B : a0 = b1, a1 = b0, a2 = b1, a0 = b0",
         "map F : A -> B : a0 = b1, a1 = b0, a2 = b1, a0 = b0", "key 'a0' given twice"),
        ("axioms", "raw_chain.doc", "closure = false", "closure = false\nclosure = true",
         "closure = true", "relation key 'closure' given twice"),
        ("maxwell", "maxwell_violation.doc", "state p = V", "state p = V\nstate  p = S",
         "state  p = S", "spec key 'state p' given twice"),
    ],
)
def test_a_name_or_key_given_twice_exits_two_at_the_second(
    tmp_path, command, source, old, new, where, message
):
    # the later declaration once replaced the earlier one without a word
    assert_exits_two_at(tmp_path, command, source, old, new, where, message)


IDEAL_GAS_PATHS = (
    "path direct:\n  segment S = 1 + 3/2*t, V = 1 + t\n"
    "path dogleg:\n  segment S = 1, V = 1 + t\n  segment S = 1 + 3/2*t, V = 2"
)


@pytest.mark.parametrize(
    "command, source, old, new, where, message",
    [
        ("cycle-audit", "carnot.doc", "segment S = 1 + t, V = 1", "segment S = 1 + t",
         "path rectangle:", "segment must define every extensive coordinate"),
        ("cycle-audit", "carnot.doc", "segment S = 1 + t, V = 1", "segment claim=adiabatic",
         "path rectangle:", "segment must define every extensive coordinate"),
        ("frobenius", None, None, COORDS_XYZ + "form q : y x = 1\n", "form q : y x = 1",
         "index tuple (1, 0) must be strictly increasing"),
        ("frobenius", None, None, COORDS_XYZ + "form q : x = 1, x y = 1\n",
         "form q : x = 1, x y = 1", "form 'q' mixes degrees [1, 2]"),
        ("frobenius", None, None, "[forms]\nform q : x = 1\n", "[forms]",
         "document declares no chart"),
        ("legendre-check", None, None, "[spec]\npotential = S\n", "[spec]",
         "document declares no chart"),
        ("legendre-check", "maxwell_violation.doc", "state p = V", "state Q = S", "[spec]",
         "state equations must cover exactly the intensive coordinates"),
        ("legendre-check", "maxwell_violation.doc", "state T = V\nstate p = V", "energy = S",
         "[spec]", "spec needs a potential or state equations"),
        ("maxwell", "carnot.doc", "[chart]", "[chartz]", "[chartz]",
         "unknown section [chartz]"),
        ("cycle-audit", "carnot.doc", "  segment S = 1, V = 2 - t", "path empty:", "path empty:",
         "path 'empty' has no segments"),
        ("cycle-audit", None, None, "[chart]\ncoords = S V\n\n[paths]\npath a:\n  segment S = t, V = 1\n",
         "[paths]", "paths need a thermodynamic chart"),
        ("maxwell", "carnot.doc", "energy = U\n", "", "[chart]",
         "thermo chart needs both energy and pairs"),
        ("maxwell", "carnot.doc", "pair = p V -", "pair = T V -", "pair = T V -",
         "duplicate name 'T'"),
        ("maxwell", "carnot.doc", "energy = U", "energy = S", "energy = S",
         "duplicate name 'S'"),
        ("maxwell", "carnot.doc", "pair = p V -", "pair = N V -", "pair = N V -",
         "duplicate name 'N'"),
        ("frobenius", None, None, "[params]\nN\n[chart]\ncoords = x N\n", "coords = x N",
         "duplicate name 'N'"),
        ("maxwell", "carnot.doc", "heat = T", "heat = Q", "heat = Q",
         "heat pair 'Q' not found"),
        ("maxwell", "ideal_gas.doc", "pair = T S +", "pair = T 1S +", "pair = T 1S +",
         "bad identifier '1S'"),
        ("maxwell", "ideal_gas.doc", "pair = p V -", "pair = p exp -", "pair = p exp -",
         "'exp' is reserved for the function syntax"),
        ("maxwell", "ideal_gas.doc", "energy = U", "energy = ln", "energy = ln",
         "'ln' is reserved for the function syntax"),
        ("maxwell", "ideal_gas.doc", "R = 1", "R = 1\nln = 2", "ln = 2",
         "'ln' is reserved for the function syntax"),
        ("maxwell", "ideal_gas.doc", "R = 1", "R = 1\n2x = 2", "2x = 2",
         "bad identifier '2x'"),
        ("frobenius", None, None, "[chart]\ncoords = x 2y\n\n[forms]\nform q : x = 1\n",
         "coords = x 2y", "bad identifier '2y'"),
        ("frobenius", None, None, "[chart]\ncoords = x exp\n\n[forms]\nform q : x = 1\n",
         "coords = x exp", "'exp' is reserved for the function syntax"),
        ("frobenius", None, None, "[chart]\ncoords =\n\n[forms]\nform w:\n", "coords =",
         "coords needs at least one name"),
        ("frobenius", None, None, COORDS_XYZ.replace("\n\n", "\nenergy = U\n\n")
         + "form q : x = 1\n", "energy = U",
         "a chart takes coords or an energy and pairs, not both"),
        ("frobenius", None, None, COORDS_XYZ.replace("\n\n", "\npair = T S +\n\n")
         + "form q : x = 1\n", "pair = T S +",
         "a chart takes coords or an energy and pairs, not both"),
        ("frobenius", None, None, COORDS_XYZ.replace("\n\n", "\nheat = T\n\n")
         + "form q : x = 1\n", "heat = T",
         "a chart takes coords or an energy and pairs, not both"),
        ("frobenius", None, None, "[chart]\nheat = none\ncoords = x y z\n\n[forms]\n"
         "form q : x = 1\n", "coords = x y z",
         "a chart takes coords or an energy and pairs, not both"),
        ("maxwell", "ideal_gas.doc", "heat = T", "heat =", "heat =",
         "heat needs a pair's name or none"),
        ("legendre-check", None, None, "[chart]\nheat = T\n\n[spec]\npotential = S\n",
         "[chart]", "thermo chart needs both energy and pairs"),
        ("galois", "chains.doc", "map F : A -> B :", "map F : A -> B x :",
         "map F : A -> B x : a0 = b0, a1 = b0, a2 = b1", "map needs 'SRC -> DST', each one word"),
        ("galois", "chains.doc", "map F : A -> B :", "map F : A -> B -> A :",
         "map F : A -> B -> A : a0 = b0, a1 = b0, a2 = b1", "map needs 'SRC -> DST', each one word"),
        ("galois", "chains.doc", "map F : A -> B :", "map F : A -> C :",
         "map F : A -> C : a0 = b0, a1 = b0, a2 = b1", "no poset named 'C'"),
        ("galois", "chains.doc", "map G : B -> A", "map G : B -> D",
         "map G : B -> D : b0 = a1, b1 = a2", "no poset named 'D'"),
        ("adjoint", "chains.doc", "map F : A -> B :", "map F : Z -> B :",
         "map F : Z -> B : a0 = b0, a1 = b0, a2 = b1", "no poset named 'Z'"),
        ("calibrate", "calibrate_two.doc", "fn S2 on G2 : s0 = 3, s1 = 5, s2 = 7\n", "",
         "space G2 coords x", "space 'G2' has no entropy function"),
        ("path", "ideal_gas.doc", IDEAL_GAS_PATHS, "path big:\n  segment S = 10^400 + t, V = 2",
         "path big:", "path big: integer division result too large for a float"),
        ("cycle-audit", "ideal_gas.doc", IDEAL_GAS_PATHS,
         "path big:\n  segment S = 10^400 + t, V = 2", "path big:",
         "path big: integer division result too large for a float"),
    ],
)
def test_document_errors_name_the_line_that_declared_the_object(
    tmp_path, command, source, old, new, where, message
):
    # each once printed no file and line, or line 0
    assert_exits_two_at(tmp_path, command, source, old, new, where, message)


@pytest.mark.parametrize(
    "command, source, old, new, where, message",
    [
        ("frobenius", None, None, COORDS_XYZ + "form a : x = 1\n  x y = 1\nform b : w = 1\n",
         "form a : x = 1", "form 'a' mixes degrees [1, 2]"),
        ("cycle-audit", "carnot.doc", "path rectangle:\n  segment S = 1 + t, V = 1",
         "path empty:\npath rectangle:\n  segment S = 1 + t, V = (", "path empty:",
         "path 'empty' has no segments"),
        ("axioms", "oracle_space.doc", "space Gamma coords u v scalable\nstate a = 1 1",
         "space E coords u\nspace Gamma coords u v scalable\nstate a = 1", "space E coords u",
         "space 'E' has no states"),
    ],
    ids=["forms", "paths", "states"],
)
def test_a_declaration_is_built_before_the_next_is_read(
    tmp_path, command, source, old, new, where, message
):
    # the first block fails at its build; a bad row of a later block is not reached
    assert_exits_two_at(tmp_path, command, source, old, new, where, message)


@pytest.mark.parametrize(
    "command, source, old, new, where, message",
    [
        ("frobenius", None, None, COORDS_XYZ + "form q z = 1\n", "form q z = 1",
         "form name 'q z = 1' is not one word"),
        ("cycle-audit", "carnot.doc", "path rectangle:", "path rect angle:", "path rect angle:",
         "path name 'rect angle' is not one word"),
        ("cycle-audit", "carnot.doc", "path rectangle:", "path rectangle: segment S = 9, V = 9",
         "path rectangle: segment S = 9, V = 9", "unexpected text after 'path rectangle:'"),
        ("galois", "chains.doc", "poset A :", "poset A Z :",
         "poset A Z : a0 a1 a2 : a0<a1, a1<a2", "poset name 'A Z' is not one word"),
        ("potential", "potentials.doc", "swap V : name H", "swap V : name H x",
         "swap V : name H x", "expected ': name NEW' after swap"),
        ("cycle-audit", "fig2_audit.doc", "claim=adiabatic", "claim=adiabtic",
         "  segment claim=adiabtic S = 1 + t, V = 1 + 4*t*(1 - t)",
         "unknown claim 'adiabtic', expected 'adiabatic'"),
        ("legendre-check", "maxwell_violation.doc", "state p = V", "state p = V\npotential = S^5",
         "potential = S^5", "a spec takes a potential or state equations, not both"),
        ("legendre-check", "maxwell_violation.doc", "state T = V", "potential = S^5\nstate T = V",
         "state T = V", "a spec takes a potential or state equations, not both"),
        ("maxwell", "carnot.doc", "V^(-2/3)\n", "V^(-2/3)\nenergy = S*V\n", "energy = S*V",
         "a spec takes a potential or state equations, not both"),
        ("maxwell", "carnot.doc", "pair = p V -", "pair = p V +-", "pair = p V +-",
         "pair needs 'INTENSIVE EXTENSIVE +|-'"),
        ("axioms", "oracle_space.doc", "state a = 1 1", "state s 1 = 1 1", "state s 1 = 1 1",
         "state name 's 1' is not one word"),
        ("axioms", "oracle_space.doc", "state a = 1 1", "state = 1 1", "state = 1 1",
         "state needs a name"),
    ],
    ids=["form-name", "path-name", "path-trailing-text", "poset-name", "swap-new-name",
         "misspelt-claim", "potential-after-states", "state-after-potential",
         "energy-after-potential", "two-signs", "state-name", "state-without-name"],
)
def test_a_line_outside_the_format_exits_two_at_its_line(
    tmp_path, command, source, old, new, where, message
):
    # each was once read as something else: a name with spaces in it, text
    # ignored, a claim never audited, a spec line dropped, or '+-' as '-'
    assert_exits_two_at(tmp_path, command, source, old, new, where, message)


def test_path_without_a_heat_pair_exits_two_at_the_path_line(tmp_path):
    # ΔU needs no heat pair and is integrated first; ΔQ then fails
    message = "path direct: chart does not designate a heat pair"
    assert_exits_two_at(
        tmp_path, "path", "ideal_gas.doc", "heat = T", "heat = none", "path direct:", message
    )


BROKEN_PATH = "path broken:\n  segment S = 1 + t, V = 1\n  segment S = 3, V = 1 + t"


@pytest.mark.parametrize(
    "command, source, old, new",
    [
        ("cycle-audit", "ideal_gas.doc", IDEAL_GAS_PATHS, BROKEN_PATH),
        ("path", "ideal_gas.doc", IDEAL_GAS_PATHS, BROKEN_PATH),
        ("path", "maxwell_violation.doc", "state T = V\nstate p = V",
         "state T = exp(S)\nstate p = V\n\n[paths]\n" + BROKEN_PATH),
    ],
    ids=["joins-before-closes", "joins", "joins-before-inclusion"],
)
def test_a_path_with_two_faults_reports_the_join_first(tmp_path, command, source, old, new):
    # a path that neither joins up nor closes (path, which needs no cycle,
    # reports the same join), or that does not join on a spec whose energy
    # cannot be reconstructed: the joins are checked first
    message = "path broken: segments do not join continuously at S"
    assert_exits_two_at(tmp_path, command, source, old, new, "path broken:", message)


@pytest.mark.parametrize(
    "source, fn_line",
    [("calibrate_two.doc", "fn S1 on G1"), ("calibrate_two.doc", "fn S2 on G2"),
     ("calibrate_clash.doc", "fn S1 on G1"), ("calibrate_clash.doc", "fn S2 on G2")],
)
def test_calibrate_refuses_a_cross_state_of_a_space_with_no_entropy(tmp_path, source, fn_line):
    # every state of a space is a cross node, so the space's line is named
    lines = (CORPUS / source).read_text().splitlines()
    doc = tmp_path / source
    doc.write_text("\n".join(line for line in lines if not line.startswith(fn_line)))
    label = fn_line.split()[-1]
    line_no = lines.index(f"space {label} coords x") + 1
    code, out = run_cli("calibrate", str(doc))
    assert (code, out) == (
        2, f"error: {doc}:{line_no}: space {label!r} has no entropy function\n"
    )


def in_memory_documents(monkeypatch):
    """A dict of document texts by path that the CLI reads in place of files."""
    from entropykit import cli

    texts = {}
    monkeypatch.setattr(cli, "load_document", lambda path: parse_document(texts[path], path))
    return texts


def manifest_entries():
    rows = (CORPUS / "manifest.txt").read_text().splitlines()
    return [row.split()[:2] for row in rows if row.split("#", 1)[0].strip()]


@pytest.mark.parametrize(
    "command, source, line",
    [("frobenius", "integrable_form.doc", "form q : y = x"),
     ("axioms", "oracle_space.doc", "space Gamma coords u v scalable"),
     ("axioms", "oracle_space.doc", "state c = 2 3"),
     ("entropy-verify", "entropy_ok.doc", "fn S on Gamma : a = 0, b = 1, c = 2"),
     ("galois", "chains.doc", "poset B : b0 b1 : b0<b1"),
     ("galois", "chains.doc", "map G : B -> A : b0 = a1, b1 = a2"),
     ("potential", "potentials.doc", "swap S : name F"),
     ("maxwell", "maxwell_violation.doc", "state p = V")],
)
def test_a_tab_after_a_keyword_reads_as_a_space(monkeypatch, command, source, line):
    texts = in_memory_documents(monkeypatch)
    text = (CORPUS / source).read_text()
    assert line in text
    outputs = []
    for variant in (text, text.replace(line, line.replace(" ", "\t", 1))):
        texts[source] = variant
        outputs.append(run_cli(command, source))
    assert outputs[0] == outputs[1]


def test_one_line_mutations_of_the_corpus_exit_cleanly(monkeypatch):
    # every manifest entry with one line of its document deleted, duplicated
    # or given a trailing word: an exit code in {0, 1, 2, 3}, and an error
    # that is neither a defect nor placed at line 0
    texts = in_memory_documents(monkeypatch)
    bad = []
    for command, source in manifest_entries():
        lines = (CORPUS / source).read_text().splitlines()
        for i, line in enumerate(lines):
            for kind, rows in (("delete", []), ("duplicate", [line, line]), ("x", [line + " x"])):
                texts[source] = "\n".join(lines[:i] + rows + lines[i + 1:])
                code, out = run_cli(command, source)
                if code not in (0, 1, 2, 3) or any(
                    sign in out for sign in ("internal error", "Traceback", ":0:")
                ):
                    bad.append((command, source, kind, i + 1, code, out[-200:]))
    assert bad == []


# Errors about something a document lacks, which no line declares, and the
# transform's `no pair named`, whose text the golden batch files pin.
UNLOCATED = ("document has no ", "document declares no ", "no map named ", "landauer needs ",
             "no pair named ")


def test_every_error_of_a_one_word_change_names_its_line(monkeypatch):
    # each word of each line of four documents, one per layer, replaced by
    # 'x' and then by the reserved 'ln': an exit-2 error names the file and
    # a line, unless it is about something absent
    texts = in_memory_documents(monkeypatch)
    runs, bad = 0, []
    for command, source in [("landauer", "landauer_bit.doc"), ("potential", "potentials.doc"),
                            ("ch", "oracle_space.doc"), ("galois", "chains.doc")]:
        lines = (CORPUS / source).read_text().splitlines()
        for i, line in enumerate(lines):
            words = line.split()
            for j, new in [(j, new) for j in range(len(words)) for new in ("x", "ln")]:
                changed = " ".join(words[:j] + [new] + words[j + 1:])
                texts[source] = "\n".join(lines[:i] + [changed] + lines[i + 1:])
                code, out = run_cli(command, source)
                runs += 1
                if code == 2 and not (
                    re.match(rf"error: {re.escape(source)}:[1-9][0-9]*: ", out)
                    or out.startswith(tuple(f"error: {text}" for text in UNLOCATED))
                ):
                    bad.append((command, source, changed, out))
    assert runs == 508
    assert bad == []


@pytest.mark.parametrize(
    "bad, message",
    [
        ("axioms oracle_space.doc zero", "expected exit must be an integer"),
        ("axioms oracle_space.doc", "manifest line needs"),
        ("axioms oracle_space.doc 0 1", "manifest line needs"),
    ],
)
def test_batch_manifest_errors_name_the_line(tmp_path, bad, message):
    (tmp_path / "oracle_space.doc").write_text(
        (CORPUS / "oracle_space.doc").read_text()
    )
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"# command document expected\naxioms oracle_space.doc 0\n{bad}\n"
    )
    code, out = run_cli("batch", str(manifest))
    assert code == 2
    assert out.startswith(f"error: {manifest}:3: {message}")


def test_deeply_nested_parentheses_exit_two_alone_and_in_batch(tmp_path):
    text = (CORPUS / "ideal_gas.doc").read_text()
    potential = "potential = exp(2*S/(3*N*R)) * V^(-2/3)"
    doc = tmp_path / "nested.doc"
    doc.write_text(text.replace(potential, "potential = " + "(" * 400 + "S" + ")" * 400))
    (tmp_path / "ideal_gas.doc").write_text(text)
    code, out = run_cli("path", str(doc))
    assert code == 2
    assert out.startswith(f"error: {doc}:13: nesting deeper than")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("path nested.doc 2\npath ideal_gas.doc 0\n")
    code, out = run_cli("batch", str(manifest))
    assert code == 0
    assert f"message: {doc}:13: nesting deeper than" in out
    assert out.count("\nmatched: yes") == 2


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_multi_line_quadrature_message_prints_as_one_line(tmp_path, fmt):
    text = (CORPUS / "ideal_gas.doc").read_text()
    text = text.replace("potential = exp(2*S/(3*N*R)) * V^(-2/3)", "potential = 1/(S - 2)^2 + V")
    text = text.split("[paths]")[0] + "[paths]\npath p0:\n  segment S = 1 + t, V = 1 + t\n"
    doc = tmp_path / "singular.doc"
    doc.write_text(text)
    line_no = text.splitlines().index("path p0:") + 1
    message = (
        f"{doc}:{line_no}: path p0: quadrature did not converge: The algorithm does not"
        " converge.  Roundoff error is detected in the extrapolation table.  It is"
        " assumed that the requested tolerance cannot be achieved, and that the returned"
        " result (if full_output = 1) is the best which can be obtained."
    )
    assert run_cli("path", str(doc), "--format", fmt) == (2, f"error: {message}\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("path singular.doc 2\n")
    code, out = run_cli("batch", str(manifest), "--format", fmt)
    assert code == 0
    assert f"\nmessage: {message}\n" in out
    for line in out.splitlines():
        assert line in ("", "-" * 40) or (": " in line and line == line.rstrip()), line


def fresh_cli(*argv, memory=2**30, timeout=30):
    """(exit code, stdout) of the CLI in a fresh process with an
    address-space limit of ``memory`` bytes (1 GiB) and a timeout of
    ``timeout`` seconds (30), which must write no stderr."""
    src = Path(entropykit.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({memory}, {memory}))\n"
        "from entropykit.cli import run\n"
        "sys.exit(run(sys.argv[1:]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert done.stderr == ""
    return done.returncode, done.stdout


@pytest.mark.parametrize("samples, code", [(10**8, 2), (MAX_SAMPLES, 3)])
def test_sample_count_is_bounded_at_its_config_line(tmp_path, samples, code):
    # every point of this document's residual is drawn: 10^8 samples once ran
    # past a 20 s timeout
    text = (CORPUS / "sampled_maxwell.doc").read_text()
    doc = tmp_path / "samples.doc"
    doc.write_text(f"{text}\n[config]\nsamples = {samples}\n")
    got, out = fresh_cli("maxwell", str(doc), timeout=20)
    assert got == code
    if code == 2:
        line_no = len(text.splitlines()) + 3
        assert out == (
            f"error: {doc}:{line_no}: samples must be at most {MAX_SAMPLES}, got {samples}\n"
        )
    else:
        assert "status: inconclusive" in out


def test_infinite_tol_is_refused_at_its_config_line(tmp_path):
    # every residual passes an infinite tolerance: kelvin_trap's unbalanced
    # path once read status: pass, exit 0
    text = (CORPUS / "kelvin_trap.doc").read_text()
    doc = tmp_path / "tol.doc"
    doc.write_text(f"{text}\n[config]\ntol = inf\n")
    line_no = len(text.splitlines()) + 3
    assert run_cli("path", str(doc)) == (2, f"error: {doc}:{line_no}: tol must be finite, got inf\n")


def large_poset_document(path, kind, n=3000):
    """Posets A and B, both the same n-element pre-order, with F and G the
    identity between them.  'chain': a0 < a1 < ...; 'zigzag': the chain and
    each edge reversed, so all n are equivalent; 'back-two': the chain and
    a(2k) < a(2k-2), so all but the last element (n even) are equivalent."""
    edges = [(i, i + 1) for i in range(n - 1)]
    if kind == "zigzag":
        edges += [(i + 1, i) for i in range(n - 1)]
    elif kind == "back-two":
        edges += [(i, i - 2) for i in range(2, n, 2)]
    lines = ["[posets]"]
    for name, letter in (("A", "a"), ("B", "b")):
        carrier = " ".join(f"{letter}{i}" for i in range(n))
        relation = ", ".join(f"{letter}{i}<{letter}{j}" for i, j in edges)
        lines.append(f"poset {name} : {carrier} : {relation}")
    lines.append("[maps]")
    lines.append("map F : A -> B : " + ", ".join(f"a{i} = b{i}" for i in range(n)))
    lines.append("map G : B -> A : " + ", ".join(f"b{i} = a{i}" for i in range(n)))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("kind", ["chain", "zigzag", "back-two"])
def test_galois_and_adjoint_on_3000_elements_stay_bounded(tmp_path, kind):
    # a size-sweep point: the per-element closure into sets once took seconds
    # and more than 1 GB here; 256 MiB of address space and 10 s are plenty
    # for the bitmask closure
    n = 3000
    doc = large_poset_document(tmp_path / f"{kind}.doc", kind, n)
    code, out = fresh_cli("galois", str(doc), memory=2**28, timeout=10)
    assert code == 0
    assert "\nverdict: PASS\nunit: OK\ncounit: OK\nclosure-operator: OK\n" in out
    code, out = fresh_cli("adjoint", str(doc), memory=2**28, timeout=10)
    assert code == 0
    # the right adjoint of the identity sends b_i to the first element of
    # a_i's class in carrier order
    expected = {
        "chain": [f"a{i}" for i in range(n)],
        "zigzag": ["a0"] * n,
        "back-two": ["a0"] * (n - 1) + [f"a{n - 1}"],
    }[kind]
    lines = "".join(f"G(b{i}): {a}\n" for i, a in enumerate(expected))
    assert f"\nverdict: FOUND\n{lines}galois: PASS\n" in out


@pytest.mark.parametrize(
    "command, source, checks, posets",
    [
        ("landauer", "landauer_bit.doc", 2, 2),  # F and G
        ("galois", "chains.doc", 3, 2),  # F, G and the closure G∘F
        ("adjoint", "chains.doc", 3, 2),  # F, the declared G and the adjoint found
    ],
)
def test_categorical_commands_build_each_poset_and_check_each_map_once(
    monkeypatch, command, source, checks, posets
):
    from entropykit import galois

    calls = Counter()
    check_monotone, poset_init = galois.check_monotone, galois.Poset.__init__

    def counted_check(*args):
        calls["check_monotone"] += 1
        return check_monotone(*args)

    def counted_init(self, *args):
        calls["Poset"] += 1
        poset_init(self, *args)

    monkeypatch.setattr(galois, "check_monotone", counted_check)
    monkeypatch.setattr(galois.Poset, "__init__", counted_init)
    assert run_cli(command, str(CORPUS / source))[0] == 0
    assert calls == {"check_monotone": checks, "Poset": posets}


def test_landauer_on_3000_states_stays_bounded(tmp_path):
    # two entropy systems of n states with the identity maps between them:
    # the pairwise entropy order once built about 9 M edges here, and the
    # sorted one builds n - 1
    n = 3000
    lines = ["[states]"]
    for label in ("A", "B"):
        lines.append(f"space {label} coords x")
        lines += [f"state {label.lower()}{i} = {i}" for i in range(n)]
    lines.append("[entropy]")
    for label in ("A", "B"):
        values = ", ".join(f"{label.lower()}{i} = {i}" for i in range(n))
        lines.append(f"fn S{label} on {label} : {values}")
    lines.append("[maps]")
    lines.append("map F : A -> B : " + ", ".join(f"a{i} = b{i}" for i in range(n)))
    lines.append("map G : B -> A : " + ", ".join(f"b{i} = a{i}" for i in range(n)))
    doc = tmp_path / "landauer.doc"
    doc.write_text("\n".join(lines) + "\n")
    code, out = fresh_cli("landauer", str(doc), memory=2**28, timeout=10)
    assert code == 0
    assert "\nverdict: PASS\n" in out
    assert f"\nrealization-entropy a{n - 1}: abstract={n - 1} realized={n - 1}\n" in out


def test_commands_import_only_the_standard_library():
    # a fresh process; what its start-up loaded (site hooks) is not counted,
    # and path integrals load the in-repo quadrature
    src = Path(entropykit.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = (
        "import io, sys\n"
        "startup = set(sys.modules)\n"
        "from entropykit.cli import run\n"
        f"print(run(['path', {str(CORPUS / 'ideal_gas.doc')!r}], io.StringIO()))\n"
        f"print(run(['axioms', {str(CORPUS / 'oracle_space.doc')!r}], io.StringIO()))\n"
        "print('entropykit.quadpack' in sys.modules)\n"
        "for name in sorted(set(sys.modules) - startup):\n"
        "    top = name.partition('.')[0]\n"
        "    if top not in ('__main__', 'entropykit', *sys.stdlib_module_names):\n"
        "        print(name)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.stderr == ""
    assert done.stdout == "0\n0\nTrue\n"


# The entropykit layers each command's own code loads.  CI reads this table
# through entry_layers to check the installed console script.
COMMAND_LAYERS = {
    "contact-check": {"forms"},
    "frobenius": {"forms"},
    "legendre-check": {"forms", "thermo"},
    "maxwell": {"forms", "thermo"},
    "potential": {"forms", "thermo"},
    "path": {"forms", "thermo", "quadpack"},
    "cycle-audit": {"forms", "thermo", "quadpack"},
    "axioms": {"access"},
    "ch": {"access"},
    "entropy-construct": {"access"},
    "entropy-verify": {"access"},
    "calibrate": {"access"},
    "galois": {"access", "galois"},
    "adjoint": {"access", "galois"},
    "landauer": {"access", "galois"},
}


def entry_layers(command: str, doc, expected: int) -> set:
    """The entropykit modules a cold run of one manifest entry loads, cli
    aside: the package, documents and expr on every run, forms and thermo
    for a document with a thermodynamic chart, and the command's row unless
    the document exits 2 before the command runs."""
    layers = {"documents", "expr"}
    if re.search(r"(?m)^energy\s*=", Path(doc).read_text()):
        layers |= {"forms", "thermo"}
    if expected != 2:
        layers |= COMMAND_LAYERS[command]
    return {"entropykit", *(f"entropykit.{name}" for name in layers)}


def importtime_modules(stderr: str) -> set:
    """The entropykit modules a ``-X importtime`` log names."""
    return set(re.findall(r"(?m)^import time:.*\| +(entropykit\S*)$", stderr))


def importtime_names(stderr: str) -> set:
    """Every module a ``-X importtime`` log names."""
    return set(re.findall(r"(?m)^import time:.*\| +(\S+)$", stderr))


def manifest_rows():
    """Each manifest entry as (command, document, expected exit)."""
    rows = [r.split("#", 1)[0].split() for r in (CORPUS / "manifest.txt").read_text().splitlines()]
    return [(c, d, int(e)) for c, d, e in filter(None, rows)]


def cold_run(*args):
    src = Path(entropykit.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_command_table_covers_every_command():
    assert set(COMMAND_LAYERS) == set(COMMANDS)
    assert {command for command, _, _ in manifest_rows()} == set(COMMANDS)


@pytest.mark.parametrize(
    "command, doc, expected", manifest_rows(), ids=lambda v: str(v)
)
def test_cold_command_loads_only_its_layers(command, doc, expected):
    # run as the bench's cold probes run it; as __main__, cli must never be
    # imported again under its own name
    done = cold_run("-X", "importtime", "-m", "entropykit.cli", command, str(CORPUS / doc))
    assert done.returncode == expected
    assert "Traceback" not in done.stderr
    assert importtime_modules(done.stderr) == entry_layers(command, CORPUS / doc, expected)
    # records are built without dataclasses, which would load inspect (and
    # with it ast, dis and tokenize)
    assert not importtime_names(done.stderr) & {"dataclasses", "inspect"}


def test_no_layer_uses_dataclasses():
    src = Path(entropykit.__file__).resolve().parent
    assert [p.name for p in sorted(src.glob("*.py")) if "dataclass" in p.read_text()] == []


def test_package_import_loads_no_layer_until_a_name_is_read():
    script = (
        "import sys\n"
        "def loaded():\n"
        "    print(' '.join(sorted(m for m in sys.modules if m.startswith('entropykit'))))\n"
        "import entropykit\n"
        "loaded()\n"
        "from entropykit import Poset\n"
        "loaded()\n"
        "entropykit.thermo\n"
        "loaded()\n"
    )
    done = cold_run("-c", script)
    assert done.stderr == ""
    assert done.stdout.splitlines() == [
        "entropykit",
        "entropykit entropykit.access entropykit.expr entropykit.galois",
        "entropykit entropykit.access entropykit.expr entropykit.forms "
        "entropykit.galois entropykit.thermo",
    ]


def test_every_package_export_imports_by_name():
    assert len(entropykit.__all__) == len(set(entropykit.__all__)) == 76
    for name in entropykit.__all__:
        namespace = {}
        exec(f"from entropykit import {name}", namespace)
        value = namespace[name]
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(entropykit.__all__) < set(dir(entropykit))
    assert "__version__" in dir(entropykit)
    assert entropykit.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'Nothing'"):
        entropykit.Nothing
    with pytest.raises(ImportError):
        exec("from entropykit import Nothing", {})


def test_huge_powers_exit_two_alone_and_in_batch(tmp_path):
    # each input would hang or allocate gigabytes if expanded; a fresh process
    # with a 1 GiB address-space limit and a timeout must refuse both at once
    text = "[chart]\ncoords = x y z\n\n[forms]\nform q : z = 1, y = {}\n"
    (tmp_path / "sum.doc").write_text(text.format("(x+y)^1000000"))
    (tmp_path / "const.doc").write_text(text.format("2^10000000000*x"))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("contact-check sum.doc 2\ncontact-check const.doc 2\n")
    sum_error = (
        f"{tmp_path / 'sum.doc'}:5: expanding a sum of 2 terms to the power "
        "1000000 exceeds the budget of 1000 terms"
    )
    const_error = (
        f"{tmp_path / 'const.doc'}:5: constant power (2)^(10000000000) exceeds "
        "the budget of 10000 bits"
    )
    assert fresh_cli("contact-check", str(tmp_path / "sum.doc")) == (2, f"error: {sum_error}\n")
    assert fresh_cli("contact-check", str(tmp_path / "const.doc")) == (2, f"error: {const_error}\n")
    code, out = fresh_cli("batch", str(manifest))
    assert code == 0
    assert f"message: {sum_error}\n" in out
    assert f"message: {const_error}\n" in out
    assert out.count("\nmatched: yes") == 2


def test_sampled_huge_symbol_power_finishes(tmp_path):
    # sampling the top coefficient evaluates x^100000000 at rational points;
    # exactly, that is hundreds of millions of bits a sample
    doc = tmp_path / "huge_sample.doc"
    doc.write_text(
        "[chart]\ncoords = x y z\n\n[forms]\n"
        "form q : z = 1, y = (exp(y)^5 - exp(5*y))*x^100000000\n"
    )
    for command in ("contact-check", "frobenius"):
        code, out = fresh_cli(command, str(doc))
        assert code == 3
        assert "\ncertainty: sampled\n" in out
        assert "\nstatus: inconclusive\n" in out
        assert "error" not in out



def test_sample_overflowing_a_float_is_redrawn(tmp_path):
    # (x^1000 + 1)^(1/2) is exact within the bit budget but past the float
    # range at most sample points, so those points are redrawn
    doc = tmp_path / "overflow_sample.doc"
    doc.write_text(
        "[chart]\ncoords = x y z\n\n[forms]\n"
        "form q : z = 1, y = (exp(y)^5 - exp(5*y))*(x^1000 + 1)^(1/2)\n"
    )
    code, out = fresh_cli("contact-check", str(doc))
    assert code == 3
    assert "\nverdict: DEGENERATE\ncertainty: sampled\n" in out
    assert "internal error" not in out

def test_batch_entry_with_unexpected_error_does_not_end_the_batch(tmp_path, monkeypatch):
    from entropykit import cli

    def broken(doc, opts, report):
        raise KeyError("T")

    monkeypatch.setitem(cli.COMMANDS, "maxwell", broken)
    (tmp_path / "ideal_gas.doc").write_text((CORPUS / "ideal_gas.doc").read_text())
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("maxwell ideal_gas.doc 2\npath ideal_gas.doc 0\n")
    code, out = run_cli("batch", str(manifest))
    assert code == 0
    assert "message: internal error: KeyError: 'T'\n" in out
    assert out.count("\nmatched: yes") == 2
    assert "all-matched: yes" in out


def test_single_command_with_unexpected_error_prints_no_traceback(monkeypatch):
    from entropykit import cli

    def broken(doc, opts, report):
        raise KeyError("T")

    monkeypatch.setitem(cli.COMMANDS, "maxwell", broken)
    code, out = run_cli("maxwell", str(CORPUS / "ideal_gas.doc"))
    assert code == 2
    assert out == "error: internal error: KeyError: 'T'\n"


def test_running_out_of_memory_exits_two_without_calling_it_internal(monkeypatch):
    from entropykit import cli

    def exhausted(doc, opts, report):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "maxwell", exhausted)
    code, out = run_cli("maxwell", str(CORPUS / "ideal_gas.doc"))
    assert (code, out) == (2, "error: out of memory\n")


@pytest.mark.parametrize(
    "err, message",
    [
        (MemoryError(), "out of memory"),
        (KeyError("T"), "internal error: KeyError: 'T'"),
        (RuntimeError("two\n  lines"), "internal error: RuntimeError: two lines"),
        (GaloisError("carrier elements must be distinct"), "carrier elements must be distinct"),
        (MemoryError("cannot allocate"), "out of memory"),
    ],
)
def test_error_message_has_no_empty_text_part(err, message):
    assert _error_message(err) == message


def test_quadrature_domain_error_names_the_path_line_alone_and_in_batch(tmp_path):
    text = (CORPUS / "ideal_gas.doc").read_text()
    assert "\npotential = exp(2*S/(3*N*R)) * V^(-2/3)\n" in text
    doc = tmp_path / "overflow.doc"
    doc.write_text(text.replace("exp(2*S/(3*N*R)) * V^(-2/3)", "exp(exp(exp(S)))*V"))
    where = f"{doc}:16: path direct: integrand left its domain near t="
    code, out = run_cli("path", str(doc))
    assert code == 2
    assert out.startswith(f"error: {where}") and out.endswith(": exp overflow\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("path overflow.doc 2\ncycle-audit overflow.doc 2\n")
    code, out = run_cli("batch", str(manifest))
    assert code == 0
    assert f"message: {where}" in out
    assert f"message: {doc}:16: path direct: cycle_audit requires a closed path\n" in out
    assert out.count("\nmatched: yes") == 2


def test_entropy_construct_asks_each_pure_pair_once(monkeypatch):
    from entropykit.access import EntropyOracle

    asked = []
    real_le = EntropyOracle.le

    def counting_le(self, x, y):
        asked.append((x, y))
        return real_le(self, x, y)

    monkeypatch.setattr(EntropyOracle, "le", counting_le)
    code, out = run_cli("entropy-construct", str(CORPUS / "oracle_space.doc"))
    assert code == 0
    assert "verified: yes" in out
    # the 16 ordered pure pairs fill the table that construction and
    # verification both read; construction reads S off the oracle's totals
    # and verification reads the table, so neither asks again
    assert len({x for x, _ in asked}) == 4 and len(set(asked)) == 16
    assert len(asked) == 16


def test_exit_two_on_missing_file_and_bad_usage():
    code, _ = run_cli("maxwell", str(CORPUS / "no_such.doc"))
    assert code == 2
    code, _ = run_cli("not-a-command", str(CORPUS / "ideal_gas.doc"))
    assert code == 2


def test_exit_three_on_inconclusive_only():
    code, text = run_cli("maxwell", str(CORPUS / "sampled_maxwell.doc"))
    assert code == 3
    assert "certainty: sampled" in text


def test_sampled_failure_is_inconclusive(tmp_path):
    # the top coefficient is zero on the positive domain and only sampling
    # judges it, so the DEGENERATE verdict is not certain and must not exit 1
    doc = tmp_path / "sampled_fail.doc"
    doc.write_text(
        "[chart]\ncoords = x y z\n\n[forms]\n"
        "form q : z = 1, y = (exp(y)^5 - exp(5*y))*x\n"
    )
    code, text = run_cli("contact-check", str(doc))
    assert "verdict: DEGENERATE" in text
    assert "certainty: sampled" in text
    assert "status: inconclusive" in text
    assert "failures: 0" in text
    assert code == 3


def test_a_one_signed_top_coefficient_is_certain(tmp_path):
    # exp(x) dz - y dx has the top coefficient exp(x), positive by its terms,
    # so the CONTACT verdict rests on no sample
    doc = tmp_path / "exp_contact.doc"
    doc.write_text("[chart]\ncoords = x y z\n\n[forms]\nform q : z = exp(x), x = -y\n")
    code, text = run_cli("contact-check", str(doc))
    assert "\nverdict: CONTACT\ncertainty: certain\ntop-coefficient: exp(x)\n" in text
    assert "status: pass" in text
    assert code == 0


def test_potential_command_reports_all_rows():
    code, text = run_cli(
        "potential", str(CORPUS / "potentials.doc"), "--format", "structured"
    )
    assert code == 0
    assert "potential: U + V*p" in text
    assert "potential: U - S*T" in text
    assert "potential: U - S*T + V*p" in text
    assert text.count("contact: CONTACT") == 3
    assert text.count("symmetry: SYMMETRY") == 3



@pytest.mark.parametrize("part", ["contact", "symmetry"])
def test_potential_is_inconclusive_when_one_check_is_sampled(monkeypatch, part):
    real = thermo.legendre_transform

    def transform(*args, **kwargs):
        r = real(*args, **kwargs)
        contact, symmetry = r.contact, r.symmetry
        if part == "contact":
            contact = ContactResult(
                contact.status, Confidence.SAMPLED, contact.top_coefficient, contact.witness
            )
        else:
            symmetry = SymmetryResult(
                symmetry.status, Confidence.SAMPLED, symmetry.factor, symmetry.witness
            )
        return thermo.LegendreTransformResult(
            r.chart, r.potential_name, r.potential, r.form, r.map, symmetry, contact
        )

    monkeypatch.setattr(thermo, "legendre_transform", transform)
    code, text = run_cli("potential", str(CORPUS / "potentials.doc"))
    assert code == 3
    assert text.count("status: inconclusive") == 3

def test_structured_output_is_deterministic():
    args = ("axioms", str(CORPUS / "oracle_space.doc"), "--format", "structured")
    code1, text1 = run_cli(*args)
    code2, text2 = run_cli(*args)
    assert code1 == code2 == 0
    assert text1 == text2


NEAR_TIE_DOC = """[states]
space Gamma coords u scalable
state a = 1000
state b = 999
state c = 0
state d = 64

[relation]
oracle = u

[config]
lambda_grid = 1/2 1 2
eps_steps = 6
"""


@pytest.mark.parametrize("seed", range(6))
def test_entropy_oracle_near_tie_is_stable_on_every_seed(tmp_path, seed):
    # a − b = 1 is below what ε ≥ 1/64 can tell apart against d − c = 64,
    # so only the entropy oracle's construction shows it stable
    doc = tmp_path / "near_tie.doc"
    doc.write_text(NEAR_TIE_DOC)
    code, text = run_cli("axioms", str(doc), "--seed", str(seed))
    assert code == 0
    assert "axiom: stability\nverdict: PASS\ncaveat: LIMIT_APPROXIMATED\n" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("seed", range(6))
def test_transitivity_fails_on_every_seed_of_a_large_relation(tmp_path, seed):
    # s0 ≤ … ≤ s11 by edges i ≤ j, except s0 s2: the one violation among
    # the 1,728 triples is (s0, s1, s2), past the 600 sampled triples
    lines = ["[states]", "space G coords x"]
    lines += [f"state s{k} = {k}" for k in range(12)]
    lines += ["", "[relation]", "closure = false"]
    lines += [
        f"edge s{i} s{j}" for i in range(12) for j in range(i, 12) if (i, j) != (0, 2)
    ]
    doc = tmp_path / "twelve.doc"
    doc.write_text("\n".join(lines) + "\n")
    code, text = run_cli("axioms", str(doc), "--seed", str(seed))
    assert code == 1
    assert (
        "axiom: transitivity\nverdict: FAIL\nwitness: G.s0, G.s1, G.s2\n" in text
    )


def test_sampling_flags_are_accepted():
    code, text = run_cli(
        "axioms",
        str(CORPUS / "oracle_space.doc"),
        "--lambda-grid",
        "1/2,2",
        "--eps-steps",
        "4",
        "--seed",
        "3",
    )
    assert code == 0
    assert "axiom: stability" in text
    assert "caveat: LIMIT_APPROXIMATED" in text


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.txt"
    code, text = run_cli(
        "maxwell",
        str(CORPUS / "ideal_gas.doc"),
        "--format",
        "structured",
        "--out",
        str(target),
    )
    assert code == 0
    assert target.read_text().startswith("check: document")
    assert text == ""


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_batch_output_matches_golden_files(fmt):
    # tests/golden pins the whole corpus report byte for byte, with the corpus
    # directory written as <corpus>; change those files only with the output
    code, out = run_cli(
        "batch", str(CORPUS / "manifest.txt"), "--format", fmt, "--seed", "0"
    )
    golden = Path(__file__).resolve().parent / "golden" / f"batch_{fmt}.txt"
    assert code == 0
    assert out.replace(str(CORPUS), "<corpus>") == golden.read_text(encoding="utf-8")


def test_batch_runs_without_scipy():
    # a None entry in sys.modules makes every import of scipy fail, so the
    # whole corpus, its path integrals included, must run on entropykit alone
    script = f"""
import io, sys
sys.modules["scipy"] = None
from entropykit import cli
out = io.StringIO()
code = cli.run(["batch", {str(CORPUS / "manifest.txt")!r}], out)
sys.stdout.write(out.getvalue())
sys.exit(code)
"""
    src = str(Path(entropykit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env.pop("ENTROPYKIT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    golden = Path(__file__).resolve().parent / "golden" / "batch_text.txt"
    assert done.stdout.replace(str(CORPUS), "<corpus>") == golden.read_text(encoding="utf-8")


AXIOM_REPORTS = """
import random
from fractions import Fraction as F
from _oracles import random_oracle_space
import entropykit.access as access
from entropykit.access import *

def show(report):
    for r in report.results:
        witness = None if r.witness is None else [str(w) for w in r.witness]
        print(r.name, r.status.value, witness, r.caveats)

rng = random.Random(808)  # the first spaces of the axiomatic suite
for i in range(6):
    space, oracle, _ = random_oracle_space(rng, i)
    config = AxiomConfig(lambda_grid=(F(1, 2), F(1), F(2)), seed=i)
    show(check_axioms(oracle, [space], config))
    S = construct_entropy(oracle, space, config)
    print(sorted(S.values.items()), verify_entropy(S, oracle, space, config).ok)
near_tie = StateSpace("G", ("x",), {"lo": (0,), "mid": (1,), "hi": (2,)}, True)
oracle = EntropyOracle({"G": {"lo": 0, "mid": F(1, 128), "hi": 1}})
# asked through le alone, so the sampled route runs and prints its witness
sampled = MemoizedOracle(oracle.le)
quadruples = access.MAX_STABILITY_QUADRUPLES
access.MAX_STABILITY_QUADRUPLES = 10_000
show(check_axioms(sampled, [near_tie]))
access.MAX_STABILITY_QUADRUPLES = quadruples
a, b, c = (CompositeState.pure("G", n) for n in ("lo", "mid", "hi"))
ab, bc = a.compose(b), b.compose(c)
raw = EdgeRelation([a, b, c, ab, bc], [(a, b), (b, c), (ab, bc), (bc, ab)])
show(check_axioms(raw, [near_tie]))
show(check_axioms(raw.closure(), [near_tie]))
"""


GALOIS_REPORTS = """
import random
from _oracles import pairwise_greatest, pairwise_least, random_monotone_map, random_preorder
from entropykit.galois import *

rng = random.Random(606)
for _ in range(40):
    src = random_preorder(rng, [f"a{i}" for i in range(rng.randint(1, 7))])
    dst = random_preorder(rng, [f"b{i}" for i in range(rng.randint(1, 7))])
    anything = {x: rng.choice(dst.carrier) for x in src.carrier}
    print(check_monotone(src, dst, anything))
    print(pairwise_least(src, list(src.carrier)), pairwise_greatest(dst, list(dst.carrier)))
    F = random_monotone_map(rng, src, dst)
    G = random_monotone_map(rng, dst, src)
    for result in (right_adjoint(F), left_adjoint(G)):
        print(result.witness, result.map and result.map.mapping)
    print(check_galois(F, G))
"""


def test_output_does_not_depend_on_the_hash_seed():
    # composites hash by their key, which holds strings, and sets of them are
    # iterated (closures, edge sets, up-sets); no output byte may follow the
    # hash seed
    tests = Path(__file__).resolve().parent
    src = Path(entropykit.__file__).resolve().parent.parent
    golden = (tests / "golden" / "batch_structured.txt").read_text(encoding="utf-8")
    batch = [
        "-m", "entropykit.cli", "batch", str(CORPUS / "manifest.txt"),
        "--format", "structured", "--seed", "0",
    ]
    reports = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), str(tests), env.get("PYTHONPATH")])
        )
        for argv in (batch, ["-c", AXIOM_REPORTS + GALOIS_REPORTS]):
            done = subprocess.run(
                [sys.executable, *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            if argv is batch:
                assert done.stdout.replace(str(CORPUS), "<corpus>") == golden
            else:
                reports.append(done.stdout)
    assert reports[0] == reports[1]
    assert "transitivity FAIL" in reports[0] and "stability FAIL" in reports[0]
    assert "MonotoneResult(ok=False" in reports[0] and "GaloisResult(ok=False" in reports[0]


def test_batch_runs_whole_corpus():
    code, text = run_cli(
        "batch", str(CORPUS / "manifest.txt"), "--format", "structured"
    )
    assert code == 0
    assert "all-matched: yes" in text


# -- one parse per document in a batch ------------------------------------------


def _corpus_entries():
    lines = (CORPUS / "manifest.txt").read_text().splitlines()
    rows = filter(None, (line.split("#", 1)[0].split() for line in lines))
    return [(command, doc, int(expected)) for command, doc, expected in rows]


CORPUS_ENTRIES = _corpus_entries()
BATCH_TAIL = re.compile(
    r"\ncheck: batch-entry\ndocument: .*\ncommand: .*\nexit: (\d+)\nexpected: .*\nmatched: .*\n\n?"
)


def batch_chunks(out):
    """(report chunk, exit code) of each entry of a batch's output, in order."""
    *parts, summary = BATCH_TAIL.split(out)
    assert summary.startswith("check: batch-summary\n")
    return list(zip(parts[::2], map(int, parts[1::2])))


@functools.cache
def run_alone(command, doc, fmt):
    return run_cli(command, doc, "--format", fmt, "--seed", "0")


def assert_matches_a_run_alone(entry, command, doc, fmt):
    """A batch entry's chunk and exit code are the report and code of the
    same entry run alone, where it parses its document afresh; for an entry
    that errs, the batch prints the single run's message in an error block."""
    chunk, code = entry
    alone_code, alone = run_alone(command, doc, fmt)
    assert code == alone_code
    if code == 2:
        assert f"check: error\nmessage: {alone.removeprefix('error: ')}" in chunk
    else:
        assert chunk == alone


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_batch_entries_match_their_runs_alone(fmt):
    code, out = run_cli("batch", str(CORPUS / "manifest.txt"), "--format", fmt, "--seed", "0")
    assert code == 0
    chunks = batch_chunks(out)
    assert len(chunks) == len(CORPUS_ENTRIES) == 40
    for (command, doc, _), entry in zip(CORPUS_ENTRIES, chunks):
        assert_matches_a_run_alone(entry, command, str(CORPUS / doc), fmt)


@pytest.mark.differential
@settings(max_examples=30, deadline=None)
@given(order=st.permutations(CORPUS_ENTRIES), fmt=st.sampled_from(["text", "structured"]))
def test_shuffled_batch_entries_match_their_runs_alone(tmp_path_factory, order, fmt):
    # entries that share a document run on one parse of it, in any order: a
    # command that wrote to the shared Document would change a later entry
    manifest = tmp_path_factory.mktemp("shuffled") / "manifest.txt"
    manifest.write_text("".join(f"{c} {CORPUS / d} {e}\n" for c, d, e in order))
    code, out = run_cli("batch", str(manifest), "--format", fmt, "--seed", "0")
    assert code == 0
    chunks = batch_chunks(out)
    assert len(chunks) == len(order)
    for (command, doc, _), entry in zip(order, chunks):
        assert_matches_a_run_alone(entry, command, str(CORPUS / doc), fmt)


@pytest.fixture
def parsed(monkeypatch):
    """How often documents.parse_document has run, by path."""
    from entropykit import documents

    counts = Counter()
    parse = documents.parse_document

    def counting(text, path="<doc>"):
        counts[path] += 1
        return parse(text, path)

    monkeypatch.setattr(documents, "parse_document", counting)
    return counts


def test_a_batch_parses_each_document_once(tmp_path, parsed):
    doc = str(CORPUS / "ideal_gas.doc")
    manifest = tmp_path / "manifest.txt"
    commands = ("maxwell", "legendre-check", "contact-check", "path")
    manifest.write_text("".join(f"{command} {doc} 0\n" for command in commands))
    code, out = run_cli("batch", str(manifest))
    assert code == 0 and out.count("\nmatched: yes") == 4
    assert parsed == {doc: 1}
    # a single run parses its document on every run
    for _ in range(2):
        assert run_cli("maxwell", doc)[0] == 0
    assert parsed == {doc: 3}


def test_a_document_that_fails_to_load_fails_each_entry_that_names_it(tmp_path, parsed):
    bad, good = CORPUS / "parse_error.doc", CORPUS / "ideal_gas.doc"
    missing = tmp_path / "no_such.doc"
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"maxwell {bad} 2\ncontact-check {missing} 2\nlegendre-check {bad} 2\n"
        f"maxwell {missing} 2\nmaxwell {good} 0\n"
    )
    code, out = run_cli("batch", str(manifest), "--format", "structured")
    assert code == 0 and "all-matched: yes" in out
    chunks = [chunk for chunk, _ in batch_chunks(out)]
    assert chunks[0] == chunks[2] and chunks[1] == chunks[3]
    assert chunks[0].startswith(f"check: error\nmessage: {bad}:")
    assert chunks[1].startswith("check: error\nmessage: [Errno 2] No such file or directory")
    assert chunks[4].startswith(f"check: document\npath: {good}\ncommand: maxwell\n")
    assert parsed == {str(bad): 2, str(good): 1}


@pytest.mark.parametrize("padding", [0, 3000])  # 3,000 comment lines: past one read chunk
def test_undecodable_bytes_name_their_file_and_line(tmp_path, padding):
    doc = tmp_path / "bad.doc"
    doc.write_bytes(b"# pad\n" * padding + b"[params]\nN = 1\xff\n")
    code, out = run_cli("maxwell", str(doc))
    assert code == 2
    assert out == f"error: {doc}:{padding + 2}: not UTF-8: byte 0xff (invalid start byte)\n"
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"# pad\n" * padding + b"maxwell bad.doc 2\nmaxwell bad\xff.doc 2\n")
    code, out = run_cli("batch", str(manifest))
    assert code == 2
    assert out == f"error: {manifest}:{padding + 2}: not UTF-8: byte 0xff (invalid start byte)\n"


def test_a_byte_order_mark_is_skipped(tmp_path):
    text = (CORPUS / "ideal_gas.doc").read_text()
    (tmp_path / "plain.doc").write_text(text)
    (tmp_path / "bom.doc").write_bytes(b"\xef\xbb\xbf" + text.encode())
    _, plain = run_cli("maxwell", str(tmp_path / "plain.doc"))
    code, out = run_cli("maxwell", str(tmp_path / "bom.doc"))
    assert code == 0
    assert out == plain.replace("plain.doc", "bom.doc")
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"\xef\xbb\xbfmaxwell bom.doc 0\n")
    code, out = run_cli("batch", str(manifest))
    assert code == 0 and "all-matched: yes" in out


# A form feed, a vertical tab, \x1c-\x1e, U+0085, U+2028 and U+2029 end a line
# for str.splitlines; in a document, as in a manifest, only \n, \r\n and \r do.
LINE_BREAKS_THAT_ARE_NOT = ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", LINE_BREAKS_THAT_ARE_NOT)
def test_only_newlines_end_a_document_line(tmp_path, char):
    text = (CORPUS / "ideal_gas.doc").read_text()
    assert text.startswith("# Ideal") and "\nN = 1\n" in text
    (tmp_path / "plain.doc").write_text("# pagebreak\n" + text.replace("\nN = 1\n", "\nN = 1  # one\n"))
    (tmp_path / "odd.doc").write_text(
        f"# page{char}break\n" + text.replace("\nN = 1\n", f"\nN = 1  # o{char}ne\n"),
        encoding="utf-8",
    )
    _, plain = run_cli("maxwell", str(tmp_path / "plain.doc"))
    code, out = run_cli("maxwell", str(tmp_path / "odd.doc"))
    assert code == 0
    assert out == plain.replace("plain.doc", "odd.doc")


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_carriage_returns_keep_the_line_numbers(tmp_path, ending):
    text = (CORPUS / "ideal_gas.doc").read_text().replace("[spec]", "[spex]")
    line = text.splitlines().index("[spex]") + 1
    doc = tmp_path / "ends.doc"
    doc.write_bytes(text.replace("\n", ending).encode())
    assert run_cli("maxwell", str(doc)) == (2, f"error: {doc}:{line}: unknown section [spex]\n")


@pytest.mark.parametrize("command", ["path", "cycle-audit"])
@pytest.mark.parametrize("unset, message", [
    (["N"], "['N']"),
    (["R", "N"], "['N', 'R']"),
])
def test_a_parameter_with_no_value_stops_a_numeric_command_at_its_line(
    tmp_path, command, unset, message
):
    # the error names the first such parameter's line, here N = 1's
    text = (CORPUS / "ideal_gas.doc").read_text()
    for name in unset:
        text = text.replace(f"\n{name} = 1\n", f"\n{name}\n")
    doc = tmp_path / "gas.doc"
    doc.write_text(text)
    want = f"{doc}:3: numeric command needs values for parameters {message}"
    assert run_cli(command, str(doc)) == (2, f"error: {want}\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{command} gas.doc 2\nmaxwell gas.doc 0\n")
    code, out = run_cli("batch", str(manifest))
    assert code == 0 and out.count("\nmatched: yes") == 2
    assert f"check: error\nmessage: {want}\n" in out


@pytest.mark.parametrize("command, coords, form, message", [
    ("contact-check", "x y z", "w : x y = z, y z = 1", "form w: not a 1-form"),
    ("frobenius", "x y z", "w : x y = z, y z = 1", "form w: not a 1-form"),
    ("contact-check", "x y z u", "w : x = z, y = 1",
     "form w: chart dimension 4 is even; no contact rank"),
])
def test_a_form_that_does_not_fit_its_check_exits_two_at_its_line(
    tmp_path, command, coords, form, message
):
    doc = tmp_path / "w.doc"
    doc.write_text(f"[chart]\ncoords = {coords}\n\n[forms]\n# the form\nform {form}\n")
    assert run_cli(command, str(doc)) == (2, f"error: {doc}:6: {message}\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{command} w.doc 2\nmaxwell {CORPUS / 'ideal_gas.doc'} 0\n")
    code, out = run_cli("batch", str(manifest))
    assert code == 0 and out.count("\nmatched: yes") == 2
    assert f"check: error\nmessage: {doc}:6: {message}\n" in out
