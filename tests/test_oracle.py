import ast
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import (
    bounded_products,
    brute_elements,
    elements_of,
    letter_map,
    random_element,
    random_finite_order_morphism,
    random_free_aut,
    random_matrix,
    random_morphism,
    random_signed_targets,
    reference_brute_fixed,
    reference_member,
    signed_perm_matrix,
)
from fatf import Ambient, FreeMap, GroupElement, IntMatrix, Lattice, Morphism, SubgroupBasis, budget, cli, fix_tuple, freewords, jsonio, member, oracle, subgroup_basis
from fatf.cli import EXIT_OK, _dump, run
from fatf.fixpoint import FixInput
from fatf.morphisms import power
from fatf.oracle import Bounds, brute_fixed, reduced_words
from make_corpus import _fix_body, _gens, _identity_free
from test_acceptance import finite_order_suite, spiral_morphism, worked_morphism

FIXTURES = Path(__file__).parent / "fixtures"


def box_size(amb: Ambient, bounds: Bounds) -> int:
    """Elements t^a w with |w| <= L and every |a_j| <= c."""
    words = sum(1 for _ in reduced_words(amb.n, bounds.word_len_max))
    return words * (2 * bounds.coord_abs_max + 1) ** amb.m


class TestEnumeration:
    def test_word_counts_match_closed_form(self):
        for n in (1, 2, 3):
            words = list(reduced_words(n, 4))
            assert len(words) == len(set(words))
            by_len = {}
            for w in words:
                by_len[len(w)] = by_len.get(len(w), 0) + 1
            assert by_len[0] == 1
            for ell in range(1, 5):
                assert by_len[ell] == 2 * n * (2 * n - 1) ** (ell - 1)

    def test_element_counts(self):
        # the identity fixes every element of the box
        amb = Ambient(1, 1)
        ident = [Morphism.identity(amb)]
        assert len(brute_elements(ident, Bounds(1, 1))) == 9
        assert len(brute_elements([Morphism.identity(Ambient(0, 2))], Bounds(2, 0))) == 17
        assert brute_fixed(ident, Bounds(0, 0)) == [((), [(0,) * amb.m])]

    def test_deterministic(self):
        # the identity fixes the whole box, listed in the documented order:
        # words shortlex, then vectors ascending
        amb, bounds = Ambient(2, 2), Bounds(2, 1)
        box = list(itertools.product(range(-1, 2), repeat=2))
        want = [GroupElement(amb, a, w) for w in reduced_words(2, 2) for a in box]
        assert brute_elements([Morphism.identity(amb)], bounds) == want


class TestBruteFixed:
    def test_identity_fixes_everything(self):
        amb = Ambient(1, 2)
        bounds = Bounds(2, 1)
        fixed = brute_elements([Morphism.identity(amb)], bounds)
        assert len(fixed) == box_size(amb, bounds)

    def test_spiral_fixes_nothing(self):
        amb = Ambient(1, 2)
        phi = FreeMap([(-1,), (-2,)], [(-1,), (-2,)], 2)
        psi = Morphism(amb, phi, IntMatrix([[-1]]), IntMatrix([[1], [0]]))
        assert brute_fixed([psi], Bounds(4, 2)) == [((), [(0,) * amb.m])]

    def test_set_intersection_law(self):
        rng = random.Random(41)
        for _ in range(10):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 2))
            p1, _, _ = random_finite_order_morphism(rng, amb)
            p2, _, _ = random_finite_order_morphism(rng, amb)
            bounds = Bounds(3, 2)
            both = set(brute_elements([p1, p2], bounds))
            inter = set(brute_elements([p1], bounds)) & set(brute_elements([p2], bounds))
            assert both == inter

    def test_requires_morphisms(self):
        with pytest.raises(ValueError):
            brute_fixed([], Bounds(1, 1))
        for word_len_max, coord_abs_max in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                Bounds(word_len_max, coord_abs_max)


def check_runs(maps, runs) -> int:
    """Check the shape of `brute_fixed`'s runs: words strictly increasing in
    shortlex order, each vector list non-empty and ascending, and one list
    object per stacked shift (w_ab P_1, ..., w_ab P_k). Returns the number
    of runs whose list an earlier run holds too."""
    n = maps[0].ambient.n
    rank = {a: i for i, a in enumerate(freewords.alphabet(n))}
    keys = [(len(w), [rank[a] for a in w]) for w, _ in runs]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    lists = {}
    for w, vecs in runs:
        assert vecs and all(a < b for a, b in zip(vecs, vecs[1:]))
        ab = freewords.abelianize(w, n)
        assert lists.setdefault(tuple(x for psi in maps for x in psi.P.apply_row(ab)), vecs) is vecs
    return len(runs) - len(lists)


def random_tuple_cases(L: int):
    """(maps, bounds): one to three identity, finite-order, unimodular or
    arbitrary morphisms of one ambient, twelve tuples per L."""
    rng = random.Random(100 + L)
    for _ in range(12):
        amb = Ambient(rng.randint(0, 2), rng.randint(1, 3))
        maps = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["identity", "finite", "unimodular", "any"])
            if kind == "identity":
                maps.append(Morphism.identity(amb))
            elif kind == "finite":
                maps.append(random_finite_order_morphism(rng, amb)[0])
            else:
                maps.append(random_morphism(rng, amb, invertible=kind == "unimodular"))
        yield maps, Bounds(L if amb.n < 3 else min(L, 4), rng.randint(0, 2))


class TestAgainstReference:
    """The meet-in-the-middle join returns exactly the list of the exhaustive
    reference, order included, as word runs of the documented shape."""

    @staticmethod
    def same(maps, bounds):
        runs = brute_fixed(maps, bounds)
        check_runs(maps, runs)
        got = elements_of(maps[0].ambient, runs)
        assert got == reference_brute_fixed(maps, bounds)
        return got

    def test_acceptance_suite_one_per_shape(self):
        # the reference costs seconds per hundred morphisms at Bounds(5, 2),
        # so take the first morphism of each (m, n) of the suite
        shapes = {}
        for psi, _, _ in finite_order_suite():
            shapes.setdefault((psi.ambient.m, psi.ambient.n), psi)
        assert len(shapes) == 20
        for psi in [worked_morphism(), spiral_morphism(), *shapes.values()]:
            self.same([psi], Bounds(5, 2))

    @pytest.mark.parametrize("L", range(6))
    def test_identity_fixes_every_word(self, L):
        for m, n, c in [(0, 1, 0), (1, 1, 2), (0, 2, 0), (1, 2, 1), (2, 3, 1)]:
            amb = Ambient(m, n)
            bounds = Bounds(L if n < 3 else min(L, 4), c)
            fixed = self.same([Morphism.identity(amb)], bounds)
            assert len(fixed) == box_size(amb, bounds)

    @pytest.mark.parametrize("L", range(6))
    def test_random_tuples(self, L):
        for maps, bounds in random_tuple_cases(L):
            self.same(maps, bounds)

    def test_runs_share_one_list_per_shift(self):
        # `same` checks every suite's runs against the reference and their
        # shape; here the suites must also hold words that share a list. The
        # identity with P = 0 gives every word the shift 0 and so one list
        identity = [Morphism.identity(Ambient(2, 2))]
        runs = brute_fixed(identity, Bounds(3, 1))
        assert len(runs) == 53 and check_runs(identity, runs) == 52
        shared = sum(check_runs(maps, brute_fixed(maps, bounds)) > 0 for L in (3, 4, 5) for maps, bounds in random_tuple_cases(L))
        assert shared >= 8

    @pytest.mark.parametrize("m", [0, 3, 4, 5])
    def test_split_box(self, m):
        # brute_fixed splits the box into the first ceil(m/2) and the last
        # floor(m/2) coordinates: odd and even halves, the one-vector boxes
        # of m = 0 and of c = 0, with one and two maps. Q = I + N, N strictly
        # upper triangular, ties the halves together, and a - aQ = -aN
        # leaves the last coordinate free; P = -BN makes the shift of w
        # that of a = w_ab B, so most words take 2c + 1 vectors or more. The
        # first map fixes every word
        rng = random.Random(300 + m)

        def unitriangular() -> IntMatrix:
            return IntMatrix([[int(i == j) if j <= i else rng.randint(-1, 1) for j in range(m)] for i in range(m)], cols=m)

        several = 0
        for k in (1, 2):
            for c in (0, 1) if m == 5 else (0, 1, 2):
                amb = Ambient(m, 2)
                Q = unitriangular()
                B = random_matrix(rng, 2, m, bound=1)
                maps = [Morphism(amb, FreeMap.identity(2), Q, B - B * Q)]
                if k == 2:
                    phi = random_free_aut(rng, 2) if c else letter_map(random_signed_targets(rng, 2))
                    Q = IntMatrix.identity(m) if c == 1 else unitriangular()
                    maps.append(Morphism(amb, phi, Q, IntMatrix.zeros(2, m)))
                fixed = self.same(maps, Bounds(2 if c == 2 else 3, c))
                words = [g.w for g in fixed]
                several += len(set(words)) > 1 and len(words) > len(set(words))
        assert several >= (0 if m == 0 else 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rest_filter(self, n):
        # the half-word tables are keyed by F_1 alone, so where the first map
        # fixes more words than the tuple, the join must drop the pairs whose
        # F_2, ..., F_k differ
        rng = random.Random(400 + n)
        dropped = 0
        for m in (0, 1):
            amb = Ambient(m, n)
            identity = Morphism.identity(amb)
            for _ in range(2):
                psi = random_finite_order_morphism(rng, amb)[0]
                square = power(psi, 2)
                for maps in ([identity, psi], [psi, identity], [psi, square], [square, psi]):
                    words = {g.w for g in self.same(maps, Bounds(5, 2))}
                    dropped += len(words) < len({w for w, _ in brute_fixed(maps[:1], Bounds(5, 2))})
        assert dropped >= 1

    def test_random_triples(self):
        # three maps with distinct Q_i solve one stacked system
        # a [I - Q_1 | I - Q_2 | I - Q_3] = (w_ab P_1, w_ab P_2, w_ab P_3).
        # P_i = B - B Q_i with one B per triple makes a = w_ab B a common
        # solution, and each I - Q_i adds solutions of its own that the
        # other maps drop: the list equals the reference and the first map's
        # list filtered by the other two
        rng = random.Random(500)
        shared = narrowed = 0
        for _ in range(40):
            amb = Ambient(rng.randint(1, 3), rng.randint(1, 2))
            m, n = amb.m, amb.n
            B = random_matrix(rng, n, m, bound=1)
            maps = []
            while len(maps) < 3:
                Q = signed_perm_matrix(random_signed_targets(rng, m)) if rng.random() < 0.5 else random_matrix(rng, m, m, bound=1)
                phi = FreeMap.identity(n) if rng.random() < 0.6 else letter_map(random_signed_targets(rng, n))
                if all(Q != psi.Q for psi in maps):
                    maps.append(Morphism(amb, phi, Q, B - B * Q))
            bounds = Bounds(3, 1)
            got = self.same(maps, bounds)
            singles = [brute_elements([psi], bounds) for psi in maps]
            allowed = set(singles[1]) & set(singles[2])
            assert got == [g for g in singles[0] if g in allowed]
            shared += len(got) > 1
            narrowed += len(got) < len(singles[0])
        assert shared >= 15 and narrowed >= 15

    def test_non_finite_order_maps(self):
        rng = random.Random(7)
        for _ in range(20):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 2))
            self.same([random_morphism(rng, amb)], Bounds(5, 2))

    def test_rank_one(self):
        amb = Ambient(1, 1)
        inversion = Morphism(amb, FreeMap([(-1,)], [(-1,)], 1), IntMatrix([[1]]), IntMatrix([[0]]))
        for L in range(8):
            assert len(self.same([Morphism.identity(amb)], Bounds(L, 1))) == 3 * (2 * L + 1)
            assert self.same([inversion], Bounds(L, 1)) == [
                GroupElement(amb, (a,), ()) for a in (-1, 0, 1)
            ]


class TestOutputCaps:
    """The answer's elements and word letters are counted as the join finds
    them; each cap is inclusive. The caps are lowered here so the bounds
    stay small."""

    def test_elements(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_OUTPUT_ELEMENTS", 45)
        ident = [Morphism.identity(Ambient(1, 1))]
        # 3 words times 15 vectors, then 3 times 17
        assert len(brute_elements(ident, Bounds(1, 7))) == 45
        with pytest.raises(ValueError, match="hold more than 45 elements"):
            brute_fixed(ident, Bounds(1, 8))
        # one shift of 125 vectors, counted from halves of 25 and 5
        with pytest.raises(ValueError, match="hold more than 45 elements"):
            brute_fixed([Morphism.identity(Ambient(3, 1))], Bounds(0, 2))
        with pytest.raises(ValueError, match="halves of more than 45 vectors"):
            brute_fixed(ident, Bounds(0, 23))

    def test_solver_room(self, monkeypatch):
        # the solver refuses a shift with more solutions than the element cap
        # and lists it at the cap; TestBudgets::test_oracle_output times the
        # count of a shift too large to list under 1 GiB
        amb = Ambient(3, 1)
        solve = oracle._shift_solver([Morphism.identity(amb)], 2)
        monkeypatch.setattr(oracle, "MAX_OUTPUT_ELEMENTS", 124)
        with pytest.raises(ValueError, match="hold more than 124 elements"):
            solve((0, 0, 0))
        # past the cap a shift's solutions are counted first: this one has none
        assert solve((1, 0, 0)) == []
        monkeypatch.setattr(oracle, "MAX_OUTPUT_ELEMENTS", 125)
        assert len(solve((0, 0, 0))) == 125

    def test_caps_spend_from_the_open_ledger(self):
        # a call joins an open scope: an answer of 9 elements fits in the
        # last 9 of the element cap, and not in the last 8
        cap = oracle.MAX_OUTPUT_ELEMENTS
        ident = [Morphism.identity(Ambient(1, 1))]
        with budget.scope():
            budget.spend("answer elements", cap - 9, cap)
            assert len(brute_elements(ident, Bounds(1, 1))) == 9
        with budget.scope():
            budget.spend("answer elements", cap - 8, cap)
            with pytest.raises(ValueError) as refused:
                brute_fixed(ident, Bounds(1, 1))
        assert str(refused.value) == f"the answer would hold more than {cap} elements"

    def test_library_calls_count_alone(self, monkeypatch):
        # outside a scope each call opens its own: two answers of 45
        # elements, each 60% of the cap, both fit
        monkeypatch.setattr(oracle, "MAX_OUTPUT_ELEMENTS", 75)
        ident = [Morphism.identity(Ambient(1, 1))]
        for _ in range(2):
            assert len(brute_elements(ident, Bounds(1, 7))) == 45

    def test_words_with_no_vector(self, monkeypatch):
        # with Q = I and P = I only the words with w_ab = 0 have a vector:
        # at L = 4, 9 of the 161 fixed words have one and 152 none
        monkeypatch.setattr(oracle, "MAX_OUTPUT_ELEMENTS", 152)
        amb = Ambient(2, 2)
        maps = [Morphism(amb, FreeMap.identity(2), IntMatrix.identity(2), IntMatrix.identity(2))]
        assert len(brute_fixed(maps, Bounds(4, 0))) == 9
        with pytest.raises(ValueError, match="more than 152 fixed words with no vector"):
            brute_fixed(maps, Bounds(5, 0))

    def test_letters(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_OUTPUT_LETTERS", 90)
        # z1^e for |e| <= 9 spell 90 letters, for |e| <= 10 110
        ident = [Morphism.identity(Ambient(0, 1))]
        assert sum(len(w) * len(vecs) for w, vecs in brute_fixed(ident, Bounds(9, 0))) == 90
        with pytest.raises(ValueError, match="spell more than 90 letters"):
            brute_fixed(ident, Bounds(10, 0))
        # letters count once per element: the 20 letters of the words with
        # |e| <= 4 under 3 vectors each spell 60, under 9 each 180
        assert len(brute_elements([Morphism.identity(Ambient(1, 1))], Bounds(4, 1))) == 27
        with pytest.raises(ValueError, match="spell more than 90 letters"):
            brute_fixed([Morphism.identity(Ambient(2, 1))], Bounds(4, 1))


class TestHalfWordTables:
    def test_lookup_only_last_level(self):
        # at odd L = 2H - 1 level H serves only the lookups made with the
        # keys of level H - 1: its table is the one of L = 2H cut to them
        rng = random.Random(600)
        smaller = 0
        for _ in range(12):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 3))
            maps = [random_finite_order_morphism(rng, amb)[0] for _ in range(rng.randint(1, 2))]
            flip = Morphism(amb, letter_map([-1] + list(range(2, amb.n + 1))), IntMatrix.identity(amb.m), IntMatrix.zeros(amb.n, amb.m))
            for psis in (maps, [flip]):
                for H in (1, 2, 3):
                    full = oracle._half_word_tables(psis, 2 * H)
                    lean = oracle._half_word_tables(psis, 2 * H - 1)
                    assert lean[:-1] == full[:-1]
                    assert lean[-1] == {key: xs for key, xs in full[-1].items() if key in full[-2]}
                    smaller += sum(map(len, lean[-1].values())) < sum(map(len, full[-1].values()))
        assert smaller >= 24

    def test_identity_keeps_every_word(self):
        amb = Ambient(1, 2)
        full = oracle._half_word_tables([Morphism.identity(amb)], 6)
        assert oracle._half_word_tables([Morphism.identity(amb)], 5) == full
        assert list(full[-1]) == [()]


class TestOracleCheckReply:
    """`oracle-check` spells each word once per run and tests membership by
    residue; its reply equals one assembled element by element from the
    exhaustive reference."""

    @pytest.mark.parametrize("L", [4, 5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_assembled_reference(self, L, k):
        rng = random.Random(700 + 10 * L + k)
        shared = 0
        for i in range(6):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            psi, basis, _ = random_finite_order_morphism(rng, amb)
            maps, bases = [psi], [basis]
            if k == 2:
                maps.append(Morphism.identity(amb) if i % 2 else _identity_free(rng, amb))
                bases.append(_gens(amb.n))
            body = {**_fix_body(maps, bases), "bounds": {"word_len_max": str(L), "coord_abs_max": "2"}}
            fixed = reference_brute_fixed(maps, Bounds(L, 2))
            res = fix_tuple(FixInput(tuple(maps), tuple(map(tuple, bases))))
            want = {
                "ok": True,
                "fixed": [jsonio.element_to_json(g) for g in fixed],
                "fg": res.finitely_generated,
                "contained": None if res.basis is None else all(reference_member(res.basis, g) for g in fixed),
            }
            assert run(["oracle-check"], json.dumps(body)) == (EXIT_OK, _dump(want))
            shared += len({g.w for g in fixed}) < len(fixed)
        assert shared >= 1

    def test_one_spelling_per_word_run(self, monkeypatch):
        calls = []
        spell = freewords.format_word
        monkeypatch.setattr(freewords, "format_word", lambda w: calls.append(w) or spell(w))
        for name in ("oracle-check", "oracle-check-rich"):
            calls.clear()
            code, out = run(["oracle-check"], (FIXTURES / f"{name}.in.json").read_text())
            assert (code, out) == (EXIT_OK, (FIXTURES / f"{name}.out.json").read_text())
            fixed = json.loads(out)["fixed"]
            heads = [next(es) for _, es in itertools.groupby(fixed, key=lambda e: e["w"])]
            assert [spell(w) for w in calls] == [e["w"] for e in heads]
        assert len(heads) < len(fixed)

    def test_no_element_built(self, monkeypatch):
        # the reply and the membership test work on the word runs: no
        # GroupElement is built, and `members` reduces each distinct vector
        # of a traced run once and each traced run's v once
        built = []
        monkeypatch.setattr(GroupElement, "__post_init__", lambda g: built.append(g))
        monkeypatch.setattr(GroupElement, "_trusted", classmethod(lambda cls, *args: built.append(args)))
        reduced, seen, inside = [], [], []
        real_members, reduce = cli.members, Lattice.reduce

        def spy(H, runs):
            seen.append((H, runs))
            inside.append(True)
            yield from real_members(H, runs)
            inside.clear()

        monkeypatch.setattr(cli, "members", spy)
        monkeypatch.setattr(Lattice, "reduce", lambda L, v: (reduced.append(v) if inside else None) or reduce(L, v))
        for name in ("oracle-check", "oracle-check-rich"):
            reduced.clear(), seen.clear()
            code, out = run(["oracle-check"], (FIXTURES / f"{name}.in.json").read_text())
            assert (code, out) == (EXIT_OK, (FIXTURES / f"{name}.out.json").read_text())
            assert json.loads(out)["contained"] is True and not inside
            [(H, runs)] = seen
            traced = [(w, vecs) for w, vecs in runs if H.projection_word_vector(w) is not None]
            assert len(reduced) == len({a for _, vecs in traced for a in vecs}) + len(traced)
        assert built == [] and len(reduced) < len(json.loads(out)["fixed"])


class TestIndependence:
    """The oracle shares no code with the algorithms it checks: no lattice
    code, no Stallings graph, no membership test and no `FreeMap.apply`."""

    BANNED = {"stallings", "pullback", "StallingsGraph", "Lattice", "member", "members"}

    def test_source(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        modules, names, attrs = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module or "")
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
        assert {"freewords", "_extend"} <= names
        assert "apply_row" in attrs
        assert not any("intlat" in mod.split(".") for mod in modules), modules
        assert not (names | attrs) & self.BANNED
        assert "apply" not in attrs


class TestClosureCheck:
    def test_parallel_generator_example(self):
        amb = Ambient(2, 1)
        gens = [GroupElement(amb, (1, 0), (1,)), GroupElement(amb, (0, 1), (1,))]
        H = subgroup_basis(gens, amb)
        products = bounded_products(gens, amb, 3)
        assert GroupElement(amb, (1, -1), ()) in products
        assert all(member(H, g) for g in products)

    def test_trivial(self):
        amb = Ambient(1, 1)
        H = subgroup_basis([], amb)
        assert member(H, GroupElement(amb, (0,) * amb.m, ()))
        gens = [GroupElement(amb, (1,), ()), GroupElement(amb, (0,), (1,))]
        assert [g for g in bounded_products(gens, amb, 2) if member(H, g)] == [GroupElement(amb, (0,) * amb.m, ())]

    def test_corrupted_basis_detected(self):
        amb = Ambient(2, 1)
        gens = [GroupElement(amb, (1, 0), (1,))]
        good = subgroup_basis(gens, amb)
        bad = SubgroupBasis.from_words(amb, [((0, 1), (1,))], good.abelian_part)
        products = bounded_products(gens, amb, 3)
        assert all(member(good, g) for g in products)
        assert not any(member(bad, g) for g in products if g.w)

    def test_random_subgroups(self):
        rng = random.Random(42)
        for _ in range(10):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 2))
            gens = [random_element(rng, amb, max_len=2, bound=1) for _ in range(2)]
            H = subgroup_basis(gens, amb)
            for g in bounded_products(gens, amb, 3):
                assert member(H, g)
