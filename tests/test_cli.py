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
from conftest import block_diagonal, companion, ia_map, letter_map, slow_infinite_order_matrix
from fatf import FreeMap, IntMatrix, budget, jsonio
from fatf.bounds import MAX_M, MAX_N
from fatf.cli import EXIT_BAD_JSON, EXIT_OK, EXIT_UNKNOWN, EXIT_VALIDATION, _dump, run
from fatf.freewords import format_word
from fatf.intlat import cyclotomic

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

STDIN_CASES = ["basis", "member", "fix", "per", "order", "closure", "oracle-check"]
# golden pairs replayed through the subcommand before the first "-rich"
GOLDEN_CASES = STDIN_CASES + ["oracle-check-rich"]


class TestGoldenFixtures:
    @pytest.mark.parametrize("name", GOLDEN_CASES)
    def test_byte_identical_replay(self, name):
        stdin = (FIXTURES / f"{name}.in.json").read_text()
        expected = (FIXTURES / f"{name}.out.json").read_text()
        code, out = run([name.removesuffix("-rich")], stdin)
        assert code == EXIT_OK
        assert out == expected

    def test_constants_golden(self):
        expected = (FIXTURES / "constants.out.json").read_text()
        code, out = run(["constants", "--m", "1", "--n", "2"], "")
        assert code == EXIT_OK
        assert out == expected

    @pytest.mark.parametrize("name", GOLDEN_CASES)
    def test_output_parses_and_reports_ok(self, name):
        code, out = run([name.removesuffix("-rich")], (FIXTURES / f"{name}.in.json").read_text())
        payload = json.loads(out)
        assert payload["ok"] is True


class TestErrorPaths:
    def test_unknown_subcommand(self):
        code, out = run(["frobnicate"], "")
        assert code == EXIT_UNKNOWN
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize(
        "stdin",
        [
            "{not json",
            "[" * 100000 + "]" * 100000,
            '{"m": ' + "[" * 100000 + "]" * 100000 + "}",
            '{"m": ' + "1" * 5000 + "}",
        ],
        ids=["syntax", "deep-array", "deep-field", "long-number"],
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
        # a subgroup whose free or abelian field is not a list
        for subgroup, error in (
            ({"free": "z1", "abelian": []}, "expected a list of free generators"),
            ({"free": [], "abelian": "1"}, "expected a list of lattice rows"),
        ):
            body = {"m": 1, "n": 1, "subgroup": subgroup, "element": {"t": ["0"], "w": ""}}
            code, out = run(["member"], json.dumps(body))
            assert code == EXIT_VALIDATION
            assert json.loads(out) == {"ok": False, "error": error}

    def test_bad_word_letter(self):
        for word, error in (
            ("z5", "letter 5 outside alphabet of rank 1"),
            ("z0", "bad generator index in 'z0'"),
            ("z-1", "bad generator index in 'z-1'"),
        ):
            body = {"m": 0, "n": 1, "subgroup": {"free": [], "abelian": []},
                    "element": {"t": [], "w": word}}
            code, out = run(["member"], json.dumps(body))
            assert code == EXIT_VALIDATION
            assert json.loads(out) == {"ok": False, "error": error}

    ONE_MAP = {"m": 0, "n": 1, "morphisms": [{"phi": ["z1"], "Q": [], "P": [[]]}], "fixed_bases": [["z1"]]}

    @pytest.mark.parametrize(
        "argv, stdin, code, error",
        [
            (["frobnicate"], "", EXIT_UNKNOWN, "unknown subcommand"),
            (["fix"], "[1, 2]", EXIT_BAD_JSON, "payload must be an object"),
            (["fix"], {"m": 1, "n": 1}, EXIT_VALIDATION, "payload needs lists morphisms and fixed_bases"),
            (["basis"], {"m": 1, "n": 1}, EXIT_VALIDATION, "payload needs a list of generators"),
            (["oracle-check"], ONE_MAP, EXIT_VALIDATION, "payload needs a bounds object"),
            (["member"], {"m": 1, "n": 1, "subgroup": "z1"}, EXIT_VALIDATION, "expected a subgroup object"),
            (["order"], {"m": 1, "n": 1}, EXIT_VALIDATION, "expected a morphism object"),
            (
                ["member"],
                {"m": 1, "n": 1, "subgroup": {"free": [], "abelian": []}, "element": {"t": [], "w": ""}},
                EXIT_VALIDATION,
                "expected a vector of length 1",
            ),
            (["order"], {"m": 0, "n": 101, "morphism": {}}, EXIT_VALIDATION, "morphisms are read for free rank n <= 100"),
        ],
        ids=["subcommand", "not an object", "fix lists", "generators", "bounds", "subgroup", "morphism", "vector", "rank"],
    )
    def test_front_end_refusal(self, argv, stdin, code, error):
        text = stdin if isinstance(stdin, str) else json.dumps(stdin)
        assert run(argv, text) == (code, _dump({"ok": False, "error": error}))

    GOOD_MAP = {"phi": ["z1 z2", "z2"], "phi_inv": ["z1 z2^-1", "z2"], "Q": [["1"]], "P": [["0"], ["1"]]}
    NOT_ONTO = {"phi": ["z1 z1", "z2"], "Q": [["1"]], "P": [["0"], ["1"]]}

    @pytest.mark.parametrize(
        "argv, body, letter",
        [
            (["order"], {"m": 1, "n": 2, "morphism": {**GOOD_MAP, "phi": ["z1 z3", "z2"], "phi_inv": ["z1 z2^-1", "z2", "z1"]}}, 3),
            (["fix"], {"m": 1, "n": 2, "morphisms": [NOT_ONTO, GOOD_MAP], "fixed_bases": [[], ["z5"]]}, 5),
            (["fix"], {"m": 1, "n": 2, "morphisms": [GOOD_MAP], "fixed_bases": [["z1", "z2", "z9"]]}, 9),
        ],
        ids=["image letter, inverse count", "not onto, basis letter", "basis count, basis letter"],
    )
    def test_letter_named_before_a_second_fault(self, argv, body, letter):
        # the constructors check letters before counts and per-map checks
        code, out = run(argv, json.dumps(body))
        assert (code, out) == (EXIT_VALIDATION, f'{{"error":"letter {letter} outside alphabet of rank 2","ok":false}}\n')

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


@pytest.mark.parametrize("name", ["fix", "oracle-check"])
def test_fixed_basis_folded_once(monkeypatch, name):
    # the map's checked inverse images prove it an automorphism, so the one
    # fold checks the fixed basis, and fix_tuple reuses it
    calls = []
    real = fatf.freewords.stallings

    def counted(generators, n):
        calls.append(generators)
        return real(generators, n)

    monkeypatch.setattr(fatf.freewords, "stallings", counted)
    stdin = (FIXTURES / f"{name}.in.json").read_text()
    code, out = run([name], stdin)
    assert code == EXIT_OK
    assert out == (FIXTURES / f"{name}.out.json").read_text()
    assert len(json.loads(stdin)["morphisms"]) == 1
    assert len(calls) == 1


@pytest.mark.parametrize("name, calls", [("fix", 10), ("closure", 21)])
def test_words_letter_checked_once(monkeypatch, name, calls):
    # jsonio only spells the words; the constructor each goes to checks its
    # letters, and stallings checks again the words it folds
    checked = []
    real = fatf.freewords.check_letters

    def counted(letters, n):
        checked.append(letters)
        return real(letters, n)

    monkeypatch.setattr(fatf.freewords, "check_letters", counted)
    code, out = run([name], (FIXTURES / f"{name}.in.json").read_text())
    assert out == (FIXTURES / f"{name}.out.json").read_text()
    assert len(checked) == calls


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


def test_oracle_check_reports_an_element_outside_the_subgroup():
    # phi fixes z1 and inverts z2; the empty fixed basis is a sub-basis of
    # Fix(phi) = <z1>, accepted on purpose for a map other than the identity,
    # so fix answers <t> and the listed t^a z1^k with k != 0 lie outside it
    body = {
        "m": 1,
        "n": 2,
        "morphisms": [{"phi": ["z1", "z2^-1"], "phi_inv": ["z1", "z2^-1"], "Q": [["1"]], "P": [["0"], ["0"]]}],
        "fixed_bases": [[]],
        "bounds": {"word_len_max": "3", "coord_abs_max": "1"},
    }
    code, out = run(["oracle-check"], json.dumps(body))
    payload = json.loads(out)
    assert code == EXIT_OK and payload["fg"] is True and payload["contained"] is False
    words = ["", "z1", "z1^-1", "z1 z1", "z1^-1 z1^-1", "z1 z1 z1", "z1^-1 z1^-1 z1^-1"]
    assert payload["fixed"] == [{"t": [str(a)], "w": w} for w in words for a in (-1, 0, 1)]


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


def test_periodic_points_of_an_endomorphism():
    # Q = 2 is outside GL_1(Z), so psi is an endomorphism of infinite order.
    # With phi inverting both letters, psi^k fixes only the identity for odd
    # k, and t^a u for even k exactly when 3a = -x, x the z1-exponent sum of
    # u: Per psi = Fix psi^2, of index 3 over F_2
    body = {"m": 1, "n": 2, "morphism": {"phi": ["z1^-1", "z2^-1"], "phi_inv": ["z1^-1", "z2^-1"],
                                         "Q": [["2"]], "P": [["1"], ["0"]]}}
    free = [("0", "z2"), ("-1", "z1 z1 z1"), ("0", "z1 z2 z1^-1"), ("0", "z1^-1 z2 z1")]
    diagnostics = {"M": [["3"]], "N": [["3"]], "ell": "3", "im_P": [["1"]], "im_rho": [["1", "0"], ["0", "1"]],
                   "preimage": [["3", "0"], ["0", "1"]]}
    result = {"basis": {"abelian": [], "free": [{"t": [t], "w": w} for t, w in free]},
              "diagnostics": diagnostics, "fg": True}
    want = json.dumps({"exponent": "2", "ok": True, "result": result}, sort_keys=True, separators=(",", ":"))
    assert run(["per"], json.dumps(body)) == (EXIT_OK, want + "\n")
    assert run(["order"], json.dumps(body)) == (EXIT_OK, '{"ok":true,"order":"inf"}\n')


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
        # with inverse images no rose is folded: the map is built only when
        # the claimed inverse undoes it on every generator
        body = _fix_payload(["z1 z1", "z2"], [], 2)
        body["morphisms"][0]["phi_inv"] = ["z1", "z2"]
        assert "claimed inverse" in _rejected(["fix"], body)

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

    def test_letters_per_request(self):
        # ten words of 99,991 letters, each under the word cap: the fold of
        # all ten took 4.5 s and 220 MiB before the request cap refused them
        free = [{"t": [], "w": f"z1^99990 z2^{k}"} for k in range(1, 11)]
        body = {"m": 0, "n": 2, "subgroup": {"free": free, "abelian": []}, "element": {"t": [], "w": ""}}
        t0 = time.perf_counter()
        assert "in all" in _rejected(["member"], body)
        assert time.perf_counter() - t0 < 0.5

    def test_letters_counted_per_request(self):
        # two requests of 60,000 letters each pass; so does the library
        # parsing the same words outside a request
        body = {"m": 0, "n": 1, "subgroup": {"free": [], "abelian": []}, "element": {"t": [], "w": "z1^60000"}}
        for _ in range(2):
            assert run(["member"], json.dumps(body)) == (EXIT_OK, '{"member":false,"ok":true}\n')
        for _ in range(2):
            assert len(jsonio.word_from_json("z1^60000")) == 60_000

    def test_words_spelled_unreduced_and_budgeted(self):
        assert jsonio.word_from_json("z1 z1^-1") == (1, -1)
        with budget.scope():
            assert len(jsonio.word_from_json("z1^60000")) == 60_000
            with pytest.raises(ValueError, match="in all"):
                jsonio.word_from_json("z2^60000")

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

    def test_oracle_output(self):
        # the identity of Z x F_2 at Bounds(9, 2) answers with 196,825
        # elements, near the cap, in about ten times the 21,865 of
        # Bounds(7, 2). The identity of Z^3 x F_1 at Bounds(1, 100) would
        # hold 24.4M elements, and built elements one by one until it died
        # of a MemoryError; the identity of F_2 at Bounds(12, 0) would hold
        # 1,062,881 and answered after 32 s with 71 MB. Both are refused
        # before any reply text is written: the first when its one shift's
        # solutions are counted, the second once its words pass the cap,
        # at about the cost of the answer near the cap. With P = I, the
        # identity of Z^2 x F_2 at Bounds(14, 0) finds 9.5M fixed words but
        # gives only the 154,449 with w_ab = 0 a vector: it answered after
        # 31 s, and is refused once 200,000 words have none. The identity of
        # Z x F_1 at Bounds(0, 10^7) passed every budget and died of a
        # MemoryError building its split box's one half, 2 * 10^7 vectors
        codes, outs, ref_s, cap_s, box_s, words_s, idle_s, half_s = _in_one_gib(
            "def body(m, n, L, c, P=0):\n"
            "    gens = [f'z{i}' for i in range(1, n + 1)]\n"
            "    Q = [[str(int(i == j)) for j in range(m)] for i in range(m)]\n"
            "    mor = {'phi': gens, 'phi_inv': gens, 'Q': Q, 'P': [[str(P * int(i == j)) for j in range(m)] for i in range(n)]}\n"
            "    bounds = {'word_len_max': str(L), 'coord_abs_max': str(c)}\n"
            "    return json.dumps({'m': m, 'n': n, 'morphisms': [mor], 'fixed_bases': [gens], 'bounds': bounds})\n"
            "answers, seconds = [], []\n"
            "for args in ((1, 2, 7, 2), (1, 2, 9, 2), (3, 1, 1, 100), (0, 2, 12, 0), (2, 2, 14, 0, 1), (1, 1, 0, 10**7)):\n"
            "    text = body(*args)\n"
            "    t0 = time.perf_counter(); answers.append(run(['oracle-check'], text)); seconds.append(time.perf_counter() - t0)\n"
            "print(json.dumps([[a[0] for a in answers], [a[1] if a[0] else len(json.loads(a[1])['fixed']) for a in answers]] + seconds))\n"
        )
        cap = fatf.oracle.MAX_OUTPUT_ELEMENTS
        assert codes == [EXIT_OK, EXIT_OK] + [EXIT_VALIDATION] * 4
        assert outs[:2] == [21_865, 196_825] and 196_825 <= cap
        for out in outs[2:4]:
            assert out == _dump({"ok": False, "error": f"the answer would hold more than {cap} elements"})
        assert outs[4] == _dump({"ok": False, "error": f"the join would find more than {cap} fixed words with no vector"})
        assert outs[5] == _dump({"ok": False, "error": f"bounds split the box into halves of more than {cap} vectors"})
        assert cap_s < 20 * ref_s + 0.5
        assert box_s < 2 * ref_s + 0.1 and half_s < 2 * ref_s + 0.1
        assert words_s < 2 * cap_s + 0.5 and idle_s < 2 * cap_s + 0.5

    def test_oracle_free_rank_zero(self):
        # F_0 has only the empty word, yet the join walked every length up to
        # L: at L = 8 * 10^6 it took 5.7 s and 291 MiB, and at the largest L
        # the budgets pass, 29,999,999, it died of a MemoryError under this
        # limit. It answers as at L = 0, in about the same time
        (ref, ref_s), (top, top_s) = _in_one_gib(
            "mor = {'phi': [], 'phi_inv': [], 'Q': [], 'P': []}\n"
            "replies = []\n"
            "for L in (0, 29_999_999):\n"
            "    bounds = {'word_len_max': str(L), 'coord_abs_max': '0'}\n"
            "    body = json.dumps({'m': 0, 'n': 0, 'morphisms': [mor], 'fixed_bases': [[]], 'bounds': bounds})\n"
            "    t0 = time.perf_counter(); replies.append([run(['oracle-check'], body), time.perf_counter() - t0])\n"
            "print(json.dumps(replies))\n"
        )
        assert ref == [EXIT_OK, _dump({"ok": True, "fixed": [{"t": [], "w": ""}], "fg": True, "contained": True})]
        assert top == ref
        assert top_s < 2 * ref_s + 0.1

    def test_oracle_free_rank_zero_budgets_the_walked_length(self):
        # at n = 0 the join walks L = 0 whatever L is asked, and the half-word
        # budget counts that L, so an L past its 30,000,000 letters answers as
        # L = 0 does
        mor = {"phi": [], "phi_inv": [], "Q": [], "P": []}
        replies = []
        for L in (0, 30_000_001, 10**9):
            bounds = {"word_len_max": str(L), "coord_abs_max": "0"}
            replies.append(run(["oracle-check"], json.dumps({"m": 0, "n": 0, "morphisms": [mor], "fixed_bases": [[]], "bounds": bounds})))
        assert replies[0][0] == EXIT_OK and replies[1:] == [replies[0]] * 2

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
    def _identity_body(n: int) -> dict:
        """The identity of F_n (m = 0) as morphism, tuple and subgroup payload."""
        gens = [f"z{i}" for i in range(1, n + 1)]
        mor = {"phi": gens, "phi_inv": gens, "Q": [], "P": [[] for _ in range(n)]}
        return {"m": 0, "n": n, "morphism": mor, "morphisms": [mor], "fixed_bases": [gens],
                "subgroup": {"free": [], "abelian": []}, "bounds": {"word_len_max": "1", "coord_abs_max": "0"},
                "element": {"t": [], "w": gens[-1]}, "generators": [{"t": [], "w": gens[-1]}]}

    def test_morphism_rank(self):
        # at n = 400 `order` and `per` took 116 s in the characteristic
        # polynomial of the 400 x 400 abelianization; `basis` and `member`
        # read no morphism and answer
        body = self._identity_body(400)
        for cmd in ("order", "per", "fix", "closure", "oracle-check"):
            t0 = time.perf_counter()
            assert f"n <= {jsonio.MAX_MORPHISM_RANK}" in _rejected([cmd], body)
            assert time.perf_counter() - t0 < 0.5
        assert run(["member"], json.dumps(body)) == (EXIT_OK, '{"member":false,"ok":true}\n')
        assert run(["basis"], json.dumps(body))[0] == EXIT_OK
        # at the cap, the identity, a cyclic and a signed cyclic permutation
        # of F_100: their abelianizations are signed permutation matrices,
        # whose characteristic polynomial by row dots alone takes about 0.5 s
        n = jsonio.MAX_MORPHISM_RANK
        cyclic = [i % n + 1 for i in range(1, n + 1)]
        for targets, order in ((range(1, n + 1), 1), (cyclic, n), (cyclic[:-1] + [-1], 2 * n)):
            body = json.dumps(self._morphism_body(letter_map(targets), IntMatrix.identity(0)))
            t0 = time.perf_counter()
            assert run(["order"], body) == (EXIT_OK, f'{{"ok":true,"order":"{order}"}}\n')
            assert time.perf_counter() - t0 < 0.15

    @staticmethod
    def _order_105_q() -> IntMatrix:
        # block diagonal of the companion matrices of Phi_3, Phi_5 and Phi_7:
        # m = 12, order lcm(3, 5, 7) = 105
        return block_diagonal([companion(list(cyclotomic(p))) for p in (3, 5, 7)])

    @staticmethod
    def _morphism_body(phi: FreeMap, Q: IntMatrix) -> dict:
        m = Q.rows
        return {"m": m, "n": phi.n, "morphism": {
            "phi": [format_word(w) for w in phi.images],
            "phi_inv": [format_word(w) for w in phi.inverse_images],
            "Q": [[str(x) for x in r] for r in Q.entries],
            "P": [["0"] * m for _ in range(phi.n)],
        }}

    def _infinite_order(self, phi: FreeMap, Q: IntMatrix) -> None:
        body = self._morphism_body(phi, Q)
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

    @staticmethod
    def _big_basis(digits: int) -> dict:
        big = "1" + "0" * digits
        return {"m": 2, "n": 1, "generators": [{"t": [big, "1"], "w": ""}, {"t": ["1", big], "w": ""}]}

    def test_answer_digits(self):
        # the HNF of these generators holds 10^4400 - 1, past the 4,300 digits
        # str() writes, from 4,406 input digits; the error is fatf's own, not
        # the interpreter's remedy
        error = _rejected(["basis"], self._big_basis(2200))
        assert "more than 4300 digits" in error and "set_int_max_str_digits" not in error

    def test_input_digits(self, monkeypatch):
        # entries of 10^4000 pass the interpreter's 4,300 digits each, but not
        # the request's cap in all: no row reduction starts
        monkeypatch.setattr(fatf.intlat, "_row_echelon", lambda rows, cols: pytest.fail("row reduction ran"))
        error = _rejected(["basis"], self._big_basis(4000))
        assert f"more than {jsonio.MAX_INPUT_DIGITS} digits in all" in error

    def test_basis_of_a_long_cycle(self):
        # <z1^100000> folds to a cycle of 100,000 vertices with one basis edge.
        # Spelling it from the tree path of every vertex held about N^2 / 4
        # letters (some 20 GB); the child runs under a 1 GiB address-space
        # limit, so a quadratic spelling fails fast, and must answer within
        # about the fold's own time
        code, out, fold_s, basis_s = _in_one_gib(
            "from fatf.freewords import stallings\n"
            "t0 = time.perf_counter(); stallings([(1,) * 100_000], 1); t1 = time.perf_counter()\n"
            "body = {'m': 0, 'n': 1, 'generators': [{'t': [], 'w': 'z1^100000'}]}\n"
            "code, out = run(['basis'], json.dumps(body))\n"
            "print(json.dumps([code, out, t1 - t0, time.perf_counter() - t1]))\n"
        )
        assert code == EXIT_OK
        assert json.loads(out)["basis"]["free"] == [{"t": [], "w": format_word((1,) * 100_000)}]
        assert basis_s < 2 * fold_s + 0.5

    def test_order_of_a_long_conjugate(self):
        # the conjugate of the cycle z_i -> z_(i+1) of F_100 by 300 random
        # Nielsen moves, 60,543 letters with its inverse images: checking
        # them would spell 8.2M letters and the ladder to phi^100 69M, and
        # the request answered after about 8 s. It is refused when its map
        # is read, in about the time its words take to spell
        code, out, letters, order_s, read_s = _in_one_gib(
            f"sys.path.insert(0, {str(pathlib.Path(__file__).resolve().parent)!r})\n"
            "import random\n"
            "from conftest import letter_map, random_free_aut\n"
            "from fatf import jsonio\n"
            "from fatf.freewords import format_word\n"
            "n = 100\n"
            "alpha = random_free_aut(random.Random(1), n, steps=300)\n"
            "phi = alpha.invert().compose(letter_map([i % n + 1 for i in range(1, n + 1)])).compose(alpha)\n"
            "texts = [format_word(w) for w in phi.images + phi.inverse_images]\n"
            "body = {'m': 0, 'n': n, 'morphism': {'phi': texts[:n], 'phi_inv': texts[n:], 'Q': [], 'P': [[]] * n}}\n"
            "t0 = time.perf_counter(); code, out = run(['order'], json.dumps(body)); t1 = time.perf_counter()\n"
            "letters = sum(len(jsonio.word_from_json(t)) for t in texts)\n"
            "print(json.dumps([code, out, letters, t1 - t0, time.perf_counter() - t1]))\n"
        )
        assert letters == 60_543 and code == EXIT_VALIDATION
        assert f"would spell more than {fatf.morphisms.MAX_SPELLED_LETTERS} letters" in json.loads(out)["error"]
        assert order_s < 3 * read_s + 0.1

    def test_fixed_words_at_the_request_cap(self):
        # phi(z1) = z1 z2^50000: `fix` checks that the basis word z1^49998 is
        # fixed, and `closure` that the word of <z1^49997>, whose graph does
        # not map into that of <z2>, is. Each request has 100,000 letters and
        # its check would spell about 2.5 * 10^9 before reducing; at k = 12,000
        # `fix` died of a MemoryError under this limit. Both are refused
        # before spelling, in about the time their words take to read and fold
        letters, fold_s, replies = _in_one_gib(
            "from fatf import budget, jsonio\n"
            "from fatf.freewords import stallings\n"
            "mor = {'phi': ['z1 z2^50000', 'z2'], 'Q': [], 'P': [[], []]}\n"
            "fix = {'m': 0, 'n': 2, 'morphisms': [mor], 'fixed_bases': [['z1^49998']]}\n"
            "H = {'free': [{'t': [], 'w': 'z1^49997'}], 'abelian': []}\n"
            "closure = {'m': 0, 'n': 2, 'subgroup': H, 'morphisms': [mor], 'fixed_bases': [['z2']]}\n"
            "t0 = time.perf_counter()\n"
            "with budget.scope():\n"
            "    images = [jsonio.word_from_json(w) for w in mor['phi']]\n"
            "    stallings(images, 2), stallings([jsonio.word_from_json('z1^49998')], 2)\n"
            "fold_s = time.perf_counter() - t0\n"
            "letters = [sum(map(len, images)) + rest for rest in (49_998, 1 + 49_997)]\n"
            "replies = []\n"
            "for argv, body in ((['fix'], fix), (['closure'], closure)):\n"
            "    t0 = time.perf_counter(); code, out = run(argv, json.dumps(body))\n"
            "    replies.append([code, out, time.perf_counter() - t0])\n"
            "print(json.dumps([letters, fold_s, replies]))\n"
        )
        assert letters == [100_000, 100_000]
        limit = f"would spell more than {fatf.morphisms.MAX_SPELLED_LETTERS} letters"
        for (code, out, seconds), words in zip(replies, ["fixed words", "basis words"]):
            assert code == EXIT_VALIDATION and out.count("\n") == 1
            assert json.loads(out)["error"] == f"checking the {words} {limit}"
            assert seconds < 2 * fold_s + 0.1

    def test_inverse_checks_share_the_request_cap(self):
        # phi = (z1 -> z1 z2^990) then (z2 -> z2 z1^2): 5,948 letters with its
        # inverse images, whose check spells 3,930,306, under the cap. A `fix`
        # of sixteen copies (95,168 letters) checked each map alone and
        # answered after about 4 s; counted over the request, the second
        # check is refused, in about the time one copy takes to answer
        mor = {
            "phi": ["z1" + " z2 z1^2" * 990, "z2 z1^2"],
            "phi_inv": ["z1 z2^-990", "z2^991 z1^-1 z2^990 z1^-1"],
            "Q": [],
            "P": [[], []],
        }
        images, inverse = ([jsonio.word_from_json(w) for w in mor[key]] for key in ("phi", "phi_inv"))
        assert sum(map(len, images + inverse)) == 5_948
        limit = fatf.morphisms.MAX_SPELLED_LETTERS
        assert fatf.morphisms._letters(inverse, images) == 3_930_306 <= limit
        one, sixteen = _in_one_gib(
            f"mor = {mor!r}\n"
            "replies = []\n"
            "for k in (1, 16):\n"
            "    body = json.dumps({'m': 0, 'n': 2, 'morphisms': [mor] * k, 'fixed_bases': [[]] * k})\n"
            "    t0 = time.perf_counter(); code, out = run(['fix'], body)\n"
            "    replies.append([code, out, time.perf_counter() - t0])\n"
            "print(json.dumps(replies))\n"
        )
        assert one[0] == EXIT_OK and json.loads(one[1])["result"]["fg"] is True
        error = f"checking the inverse images would spell more than {limit} letters"
        assert sixteen[:2] == [EXIT_VALIDATION, _dump({"ok": False, "error": error})]
        assert sixteen[2] < 2 * one[2] + 0.1

    def test_spelled_letters_counted_per_request(self, monkeypatch):
        # phi(z1) = z1 z2^300 fixes the given basis z2, z1 z2^2 z1^-1, and the
        # subgroup's word z1 z2 z1^-1 z2^-1, whose graph does not map into the
        # basis graph; with P = (0, 1) Fix is not finitely generated. Checking
        # the fixed words spells 605 letters and the subgroup's word 604: each
        # fits a cap of 1,000 alone, as in the library, but not in one request
        monkeypatch.setattr(fatf.morphisms, "MAX_SPELLED_LETTERS", 1000)
        mor = {"phi": ["z1 z2^300", "z2"], "Q": [["1"]], "P": [["0"], ["1"]]}
        fix = {"m": 1, "n": 2, "morphisms": [mor], "fixed_bases": [["z2", "z1 z2^2 z1^-1"]]}
        closure = dict(fix, subgroup={"free": [{"t": ["0"], "w": "z1 z2 z1^-1 z2^-1"}], "abelian": []})
        ambient = fatf.Ambient(1, 2)
        inp, H = fatf.cli._fix_input(closure, ambient), jsonio.subgroup_from_json(closure["subgroup"], ambient)
        images = inp.morphisms[0].phi.images
        assert fatf.morphisms._letters(images, inp.fixed_free_bases[0]) == 605
        assert fatf.morphisms._letters(images, H.graph.basis_words) == 604
        assert H.graph.maps_into(inp.graph) is None
        assert fatf.autofixed_closure(H, inp).basis is None
        assert _rejected(["closure"], closure) == "checking the basis words would spell more than 1000 letters"
        # the refused request leaves no count open: each `fix` starts at zero
        for _ in range(2):
            code, out = run(["fix"], json.dumps(fix))
            assert code == EXIT_OK and json.loads(out)["result"]["fg"] is False

    def test_rank_costs_nothing(self):
        # basis and member work on the letters their words use, never on the
        # whole alphabet: at n = 10^9 a list of the 2n letters would need
        # some 16 GB, which the child's limit refuses
        basis, member, seconds = _in_one_gib(
            "subgroup = {'free': [{'t': ['0'], 'w': 'z1 z2'}, {'t': ['1'], 'w': 'z3'}], 'abelian': []}\n"
            "bodies = [('basis', {'m': 1, 'n': 10**9, 'generators': [{'t': ['1'], 'w': 'z1 z2'}]}),\n"
            "          ('member', {'m': 1, 'n': 10**9, 'subgroup': subgroup,\n"
            "                      'element': {'t': ['1'], 'w': 'z1 z2 z3'}})]\n"
            "t0 = time.perf_counter(); answers = [run([c], json.dumps(b)) for c, b in bodies]\n"
            "print(json.dumps(answers + [time.perf_counter() - t0]))\n"
        )
        assert basis == [EXIT_OK, '{"basis":{"abelian":[],"free":[{"t":["1"],"w":"z1 z2"}]},"ok":true}\n']
        assert member == [EXIT_OK, '{"member":true,"ok":true}\n']
        assert seconds < 1.0

    def test_per_power_bits(self):
        # e = 60,060 and chi(Q) keeps x^2 - 3x + 1, so Q^e would have about
        # 83,000 bits: refused before any power, where without the budget the
        # request ran 106 s to the output digit check; with P = 0 the answer
        # itself would be small
        body = self._morphism_body(FreeMap.identity(1), slow_infinite_order_matrix())
        t0 = time.perf_counter()
        assert "budget" in _rejected(["per"], body)
        assert time.perf_counter() - t0 < 1.0


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
    # the golden inputs, and the two that ran long before their budgets: a
    # `per` whose Q^e would pass the power budget and a `basis` past the
    # input digit cap
    seeds = [(name, json.loads((FIXTURES / f"{name}.in.json").read_text())) for name in STDIN_CASES]
    seeds.append(("per", TestBudgets._morphism_body(FreeMap.identity(1), slow_infinite_order_matrix())))
    seeds.append(("basis", TestBudgets._big_basis(4000)))
    codes = set()
    for i in range(300):
        name, payload = seeds[i % len(seeds)]
        doc = _mutate(rng, payload)
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


def _in_one_gib(code: str):
    """Run `code` in a child process under a 1 GiB address-space limit, with
    `json`, `time` and `fatf.cli.run` imported, and return the JSON it
    prints."""
    pytest.importorskip("resource")
    child = (
        "import json, resource, sys, time\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "soft = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        "from fatf.cli import run\n"
    ) + code
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def _child_env() -> dict[str, str]:
    """The environment of a child that imports the same fatf as this process:
    the checkout's src/ or an installed copy, whichever the tests were run
    against."""
    import_root = pathlib.Path(fatf.__file__).resolve().parent.parent
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(import_root)] + ([inherited] if inherited else []))
    return env


class TestInstalledEntryPoint:
    def test_subprocess_invocation(self):
        env = _child_env()
        _run_order([sys.executable, "-c", _console_script_wrapper("fatf")], env)
        # python -m fatf.cli, the route from a checkout with no install
        _run_order([sys.executable, "-m", "fatf.cli"], env)

    @pytest.mark.skipif(
        shutil.which("fatf") is None, reason="fatf console script not installed"
    )
    def test_console_script_on_path(self):
        _run_order(["fatf"])
