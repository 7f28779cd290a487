import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import time

import pytest

import fatf
from conftest import block_diagonal, companion, ia_map, slow_infinite_order_matrix
from fatf import FreeMap, IntMatrix
from fatf.bounds import MAX_M, MAX_N
from fatf.cli import EXIT_BAD_JSON, EXIT_OK, EXIT_UNKNOWN, EXIT_VALIDATION, run
from fatf.freewords import format_word
from fatf.intlat import cyclotomic

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

    @pytest.mark.parametrize(
        "stdin",
        ["{not json", "[" * 100000 + "]" * 100000, '{"m": ' + "[" * 100000 + "]" * 100000 + "}"],
        ids=["syntax", "deep-array", "deep-field"],
    )
    def test_malformed_json(self, stdin):
        code, out = run(["fix"], stdin)
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

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--m", "x", "--n", "1"], "invalid literal for int() with base 10: 'x'"),
            (["--m", "-1", "--n", "2"], "negative rank"),
            (["--q"], "unknown flag '--q'"),
            (["--m", "1", "--n", "2", "--m"], "constants needs --m and --n"),
        ],
    )
    def test_constants_flag_errors(self, flags, error):
        code, out = run(["constants"] + flags, "{not json")
        assert code == EXIT_VALIDATION
        assert out.count("\n") == 1
        assert json.loads(out) == {"ok": False, "error": error}

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


def test_per_computes_free_order_once(monkeypatch):
    # periodic_exponent and fix_power's guard both need ord phi; the second
    # reads the value the first computed
    calls = []
    real = fatf.morphisms.matrix_order

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(fatf.morphisms, "matrix_order", counted)
    stdin = (FIXTURES / "per.in.json").read_text()
    code, out = run(["per"], stdin)
    assert code == EXIT_OK
    assert out == (FIXTURES / "per.out.json").read_text()
    assert len(calls) == 1


def test_basis_of_fix_elements_gives_fix_bytes():
    # Fix of (psi, id) on Z^2 x F_2, with psi = (id, [[6,1],[-1,0]], I) and
    # the fixed basis {z2 z1, z1} of F_2 for id, so the free parts meet by a
    # pullback of two different bases: the subgroup generated by the
    # elements fix reports serializes to the same bytes
    payload = {
        "m": 2,
        "n": 2,
        "morphisms": [
            {"phi": ["z1", "z2"], "phi_inv": ["z1", "z2"], "Q": [["6", "1"], ["-1", "0"]],
             "P": [["1", "0"], ["0", "1"]]},
            {"phi": ["z1", "z2"], "phi_inv": ["z1", "z2"], "Q": [["1", "0"], ["0", "1"]],
             "P": [["0", "0"], ["0", "0"]]},
        ],
        "fixed_bases": [["z1", "z2"], ["z2 z1", "z1"]],
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


def _fix_payload(phi, basis, n):
    return {
        "m": 0,
        "n": n,
        "morphisms": [{"phi": phi, "Q": [], "P": [[] for _ in range(n)]}],
        "fixed_bases": [basis],
    }


def _rejected(argv, body) -> str:
    t0 = time.perf_counter()
    code, out = run(argv, body if isinstance(body, str) else json.dumps(body))
    assert time.perf_counter() - t0 < 2.0
    payload = json.loads(out)
    assert code == EXIT_VALIDATION and payload["ok"] is False
    return payload["error"]


class TestTrustBoundary:
    def test_non_automorphism_rejected(self):
        # z1 -> z1^2 is not onto: its image folds to a 2-vertex graph
        assert "not an automorphism" in _rejected(["fix"], _fix_payload(["z1 z1"], [], 1))

    def test_fixed_basis_above_rank_n_rejected(self):
        # a rank-3 free basis of the even-z1 subgroup, fixed by phi = id on F_2
        body = _fix_payload(["z1", "z2"], ["z1 z1", "z2", "z1 z2 z1^-1"], 2)
        assert "more than n = 2" in _rejected(["fix"], body)

    @pytest.mark.parametrize("basis", [["z1"], ["z2 z1", "z1 z1 z2"]])
    def test_identity_basis_must_generate_f_n(self, basis):
        # phi = id fixes all of F_2, so a basis of <z1> (rank 1) or of the
        # infinite-index <z2 z1, z1 z1 z2> (rank 2) would report a proper
        # subgroup of Z x F_2 as Fix
        body = {
            "m": 1,
            "n": 2,
            "morphisms": [{"phi": ["z1", "z2"], "phi_inv": ["z1", "z2"], "Q": [["1"]], "P": [["0"], ["0"]]}],
            "fixed_bases": [basis],
        }
        assert "does not generate F_n" in _rejected(["fix"], body)

    def test_incomplete_fixed_basis_caught_by_closure_certificate(self):
        body = json.loads((FIXTURES / "closure.in.json").read_text())
        body["fixed_bases"] = [["z3"]]
        assert "closure must contain" in _rejected(["closure"], body)


class TestBudgets:
    def test_long_exponent(self):
        body = {"m": 0, "n": 1, "subgroup": {"free": [], "abelian": []},
                "element": {"t": [], "w": "z1^100000000"}}
        assert "longer than" in _rejected(["member"], body)

    def test_oracle_enumeration(self):
        body = json.loads((FIXTURES / "oracle-check.in.json").read_text())
        body["bounds"]["word_len_max"] = "999999999"
        assert "enumerate more than" in _rejected(["oracle-check"], body)

    def test_oracle_tables_rank_one(self):
        # 40,001 words pass the element budget; the half-word tables would
        # hold about 6 * 10^8 letters, and the exhaustive walk ran for minutes
        body = dict(TestBooleanFields.PAYLOAD, bounds={"word_len_max": "20000", "coord_abs_max": "1"})
        t0 = time.perf_counter()
        assert "letters" in _rejected(["oracle-check"], body)
        assert time.perf_counter() - t0 < 0.5

    def test_oracle_tables_long_image(self):
        # z1 -> z1 z2^9999: 1,062,881 words of length <= 12 pass the element
        # budget; 1,457 half-words with images of up to 60,000 letters do not
        phi, phi_inv = ["z1 z2^9999", "z2"], ["z1 z2^-9999", "z2"]
        body = {
            "m": 0,
            "n": 2,
            "morphisms": [{"phi": phi, "phi_inv": phi_inv, "Q": [], "P": [[], []]}],
            "fixed_bases": [["z2", "z1 z2 z1^-1"]],
            "bounds": {"word_len_max": "12", "coord_abs_max": "0"},
        }
        assert "letters" in _rejected(["oracle-check"], body)
        body["bounds"]["word_len_max"] = "2"
        code, out = run(["oracle-check"], json.dumps(body))
        assert code == EXIT_OK and json.loads(out)["contained"] is True

    @pytest.mark.parametrize("m, n", [("1", "400"), ("10000000", "1"), ("1", "100000")])
    def test_constants_ranks(self, m, n):
        assert "constants are reported" in _rejected(["constants", "--m", m, "--n", n], "")

    def test_constants_at_the_caps_print(self):
        code, out = run(["constants", "--m", str(MAX_M), "--n", str(MAX_N)], "")
        assert code == EXIT_OK and json.loads(out)["ok"] is True

    def test_cover_size(self):
        # Q = diag(1, -10^30) puts the coset index near 10^30
        body = json.loads((FIXTURES / "fix.in.json").read_text())
        body["morphisms"][0]["Q"] = [["1", "0"], ["0", str(-10**30)]]
        assert "budget" in _rejected(["fix"], body)

    @staticmethod
    def _order_105_q() -> IntMatrix:
        # block diagonal of the companion matrices of Phi_3, Phi_5 and Phi_7:
        # m = 12, order lcm(3, 5, 7) = 105
        return block_diagonal([companion(list(cyclotomic(p))) for p in (3, 5, 7)])

    def _infinite_order(self, phi: FreeMap, Q: IntMatrix) -> None:
        m = Q.rows
        body = {"m": m, "n": phi.n, "morphism": {
            "phi": [format_word(w) for w in phi.images],
            "phi_inv": [format_word(w) for w in phi.inverse_images],
            "Q": [[str(x) for x in r] for r in Q.entries],
            "P": [["0"] * m for _ in range(phi.n)],
        }}
        t0 = time.perf_counter()
        code, out = run(["order"], json.dumps(body))
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (EXIT_OK, '{"ok":true,"order":"inf"}\n')

    def test_order_of_ia_map(self):
        # A = I, but phi = K12 K23 K31 has infinite order and its images grow
        # about 4.2x per power, so a free power to s = 105 would not finish
        self._infinite_order(ia_map(), self._order_105_q())

    def test_order_of_fibonacci_map(self):
        # A = [[1, 1], [1, 0]] has infinite order; no free word is powered
        self._infinite_order(FreeMap([(1, 2), (1,)], [(2,), (-2, 1)], 2), self._order_105_q())

    def test_order_of_q_with_a_non_cyclotomic_factor(self):
        # m = 38 and s = 60,060: chi(Q) is not all cyclotomic, so no power
        # of Q is taken; the power Q^s alone takes seconds
        self._infinite_order(FreeMap.identity(1), slow_infinite_order_matrix())

    def test_answer_digits(self):
        # the HNF of these generators holds 10^8000 - 1, past the 4,300 digits
        # str() writes; the error is fatf's own, not the interpreter's remedy
        big = "1" + "0" * 4000
        body = {"m": 2, "n": 1, "generators": [{"t": [big, "1"], "w": ""}, {"t": ["1", big], "w": ""}]}
        error = _rejected(["basis"], body)
        assert "more than 4300 digits" in error and "set_int_max_str_digits" not in error


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _mutate(rng: random.Random, payload: dict) -> dict:
    """One random change to a copy of payload: a dropped or duplicated field,
    a value of another JSON type, a scaled integer or a long exponent."""
    doc = json.loads(json.dumps(payload))
    path = rng.choice([p for p in _paths(doc) if p])
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    value = parent[key]
    kind = rng.choice(["drop", "dup", "swap", "scale", "exponent"])
    others = [None, True, 1, 2.5, "z1", "7", [], {}, ["1"], [["1"]]]
    if kind == "drop":
        del parent[key]
    elif kind == "dup" and isinstance(value, list) and value:
        value.append(rng.choice(value))
    elif kind == "dup":
        if isinstance(parent, list):
            parent.insert(key, value)
        else:
            parent[key + "_copy"] = value
    elif kind == "scale" and isinstance(value, str) and value.lstrip("-").isdigit():
        # 10^30 overruns every budget; factors near a budget would each take seconds
        parent[key] = str(int(value) * rng.choice([-1, 0, 2, 3, 10**30]))
    elif kind == "exponent" and isinstance(value, str):
        parent[key] = f"{value} z1^{rng.choice([2, 7, 300, 10**9, -(10**12)])}".strip()
    else:
        parent[key] = rng.choice(others)
    return doc


def test_mutated_golden_inputs_never_raise():
    rng = random.Random(2026)
    inputs = {name: json.loads((FIXTURES / f"{name}.in.json").read_text()) for name in STDIN_CASES}
    codes = set()
    for i in range(300):
        name = STDIN_CASES[i % len(STDIN_CASES)]
        doc = _mutate(rng, inputs[name])
        code, out = run([name], json.dumps(doc))
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_UNKNOWN, EXIT_BAD_JSON), doc
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)
        codes.add(code)
    assert codes == {EXIT_OK, EXIT_VALIDATION}


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
        # python -m fatf.cli, the route from a checkout with no install
        _run_order([sys.executable, "-m", "fatf.cli"], env)

    @pytest.mark.skipif(
        shutil.which("fatf") is None, reason="fatf console script not installed"
    )
    def test_console_script_on_path(self):
        _run_order(["fatf"])
