import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import fatf
from fatf.cli import EXIT_BAD_JSON, EXIT_OK, EXIT_UNKNOWN, EXIT_VALIDATION, run

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

STDIN_CASES = ["basis", "member", "fix", "per", "order", "closure", "oracle-check"]


class TestGoldenFixtures:
    @pytest.mark.parametrize("name", STDIN_CASES)
    def test_byte_identical_replay(self, name):
        stdin = (FIXTURES / f"{name}.in.json").read_text()
        expected = (FIXTURES / f"{name}.out.json").read_text()
        code, out = run([name], stdin)
        assert code == EXIT_OK
        assert out == expected

    def test_constants_golden(self):
        expected = (FIXTURES / "constants.out.json").read_text()
        code, out = run(["constants", "--m", "1", "--n", "2"], "")
        assert code == EXIT_OK
        assert out == expected

    @pytest.mark.parametrize("name", STDIN_CASES)
    def test_output_parses_and_reports_ok(self, name):
        code, out = run([name], (FIXTURES / f"{name}.in.json").read_text())
        payload = json.loads(out)
        assert payload["ok"] is True


class TestErrorPaths:
    def test_unknown_subcommand(self):
        code, out = run(["frobnicate"], "")
        assert code == EXIT_UNKNOWN
        assert json.loads(out)["ok"] is False

    def test_malformed_json(self):
        code, out = run(["fix"], "{not json")
        assert code == EXIT_BAD_JSON
        assert "error" in json.loads(out)

    def test_non_object_payload(self):
        code, out = run(["fix"], "[1,2]")
        assert code == EXIT_BAD_JSON

    def test_validation_error(self):
        code, out = run(["member"], json.dumps({"m": 1, "n": 1}))
        assert code == EXIT_VALIDATION
        payload = json.loads(out)
        assert payload["ok"] is False and payload["error"]

    def test_bad_word_letter(self):
        body = {"m": 0, "n": 1, "subgroup": {"free": [], "abelian": []},
                "element": {"t": [], "w": "z5"}}
        code, out = run(["member"], json.dumps(body))
        assert code == EXIT_VALIDATION

    def test_constants_missing_flags(self):
        code, out = run(["constants", "--m", "1"], "")
        assert code == EXIT_VALIDATION

    def test_order_without_inverse(self):
        body = {"m": 0, "n": 2,
                "morphism": {"phi": ["z1 z2", "z2"], "Q": [], "P": [[], []]}}
        code, out = run(["order"], json.dumps(body))
        assert code == EXIT_VALIDATION


def test_per_computes_exponent_once(monkeypatch):
    calls = []
    real = fatf.fixpoint.periodic_exponent

    def counted(psi):
        calls.append(psi)
        return real(psi)

    monkeypatch.setattr(fatf.fixpoint, "periodic_exponent", counted)
    stdin = (FIXTURES / "per.in.json").read_text()
    code, out = run(["per"], stdin)
    assert code == EXIT_OK
    assert out == (FIXTURES / "per.out.json").read_text()
    assert len(calls) == 1


def test_basis_of_fix_elements_gives_fix_bytes():
    # Fix of (psi, id) on Z^2 x F_2, with psi = (id, [[6,1],[-1,0]], I) and
    # the fixed basis {z2 z1, z1 z1 z2} for id: the subgroup generated by
    # the elements fix reports serializes to the same bytes
    payload = {
        "m": 2,
        "n": 2,
        "morphisms": [
            {"phi": ["z1", "z2"], "phi_inv": ["z1", "z2"], "Q": [["6", "1"], ["-1", "0"]],
             "P": [["1", "0"], ["0", "1"]]},
            {"phi": ["z1", "z2"], "phi_inv": ["z1", "z2"], "Q": [["1", "0"], ["0", "1"]],
             "P": [["0", "0"], ["0", "0"]]},
        ],
        "fixed_bases": [["z1", "z2"], ["z2 z1", "z1 z1 z2"]],
    }
    code, out = run(["fix"], json.dumps(payload))
    assert code == EXIT_OK
    fixed = json.loads(out)["result"]["basis"]
    assert len(fixed["free"]) == 5
    gens = fixed["free"] + [{"t": row, "w": ""} for row in fixed["abelian"]]
    code, out = run(["basis"], json.dumps({"m": 2, "n": 2, "generators": gens}))
    assert code == EXIT_OK
    assert json.dumps(json.loads(out)["basis"], sort_keys=True) == json.dumps(fixed, sort_keys=True)


class TestBooleanFields:
    # every integer field of this payload is 1, so reading true as 1 would
    # accept it; JSON booleans must be rejected instead
    PAYLOAD = {
        "m": 1,
        "n": 1,
        "morphisms": [{"phi": ["z1^-1"], "phi_inv": ["z1^-1"], "Q": [["-1"]], "P": [["1"]]}],
        "fixed_bases": [[]],
        "bounds": {"word_len_max": 1, "coord_abs_max": 1},
    }

    def test_payload_is_valid(self):
        code, _ = run(["oracle-check"], json.dumps(self.PAYLOAD))
        assert code == EXIT_OK

    @pytest.mark.parametrize("field", ["m", "n"])
    def test_ambient_boolean_rejected(self, field):
        body = json.loads(json.dumps(self.PAYLOAD))
        body[field] = True
        code, out = run(["oracle-check"], json.dumps(body))
        assert code == EXIT_VALIDATION
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("field", ["word_len_max", "coord_abs_max"])
    def test_bound_boolean_rejected(self, field):
        body = json.loads(json.dumps(self.PAYLOAD))
        body["bounds"][field] = True
        code, out = run(["oracle-check"], json.dumps(body))
        assert code == EXIT_VALIDATION
        assert json.loads(out)["ok"] is False


def _console_script_wrapper(name: str) -> str:
    """Body of the script pip generates for `name` in [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return f"import sys; from {module} import {attr}; sys.exit({attr}())"


def _run_order(argv: list[str], env: dict[str, str] | None = None) -> None:
    proc = subprocess.run(
        argv + ["order"],
        input=(FIXTURES / "order.in.json").read_text(),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["order"] == "2"


class TestInstalledEntryPoint:
    def test_subprocess_invocation(self):
        # The child imports the same fatf as this process: the checkout's
        # src/ or an installed copy, whichever the tests were run against.
        import_root = pathlib.Path(fatf.__file__).resolve().parent.parent
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(import_root)] + ([inherited] if inherited else [])
        )
        _run_order([sys.executable, "-c", _console_script_wrapper("fatf")], env)

    @pytest.mark.skipif(
        shutil.which("fatf") is None, reason="fatf console script not installed"
    )
    def test_console_script_on_path(self):
        _run_order(["fatf"])
