"""Lattice operations against their worked examples."""

import json
import random
from fractions import Fraction

import pytest

from cubick3 import (
    DegenerateLattice,
    DependentGenerators,
    GramLattice,
    IntMatrix,
    Sublattice,
    ZeroVector,
    direct_sum,
    disc_group,
    divisibility,
    is_primitive,
    orthogonal_complement,
    saturation,
    signature,
    span_sublattice,
)
from cubick3 import intlinalg as la
from cubick3.lattice import as_vector, saturate_rows
from cubick3.standard import (
    EPS1,
    EPS2,
    EPS3,
    H2,
    LAMBDA1,
    LAMBDA2,
    MU1_TILDE,
    MU2_TILDE,
    RANK_BAR,
    _vec,
    gamma_to_gammabar,
    nl_vector,
    polarization_vector,
    standard_lattice,
    unit_vector,
)
from cubick3.verify import gamma_to_lambdatilde
import differential as dt
import oracles
from limits import spy
from oracles import frac_inv

U = standard_lattice("U")
A2 = standard_lattice("A2")


class TestDirectSum:
    def test_two_hyperbolic_planes(self):
        L = direct_sum([U, U])
        assert L.rank == 4
        assert L.abs_det == 1

    def test_block_placement(self):
        L = direct_sum([U, A2, GramLattice.from_rows([[-5]])])
        assert L.gram.to_lists() == [
            [0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 2, -1, 0],
            [0, 0, -1, 2, 0],
            [0, 0, 0, 0, -5],
        ]
        assert L.label is None

    def test_label(self):
        assert direct_sum([U, A2], label="U+A2").label == "U+A2"

    def test_twist(self):
        # a sign-changed part is a lattice of its own, passed like any other
        L = direct_sum([standard_lattice("A2m")])
        assert L.gram.to_lists() == [[-2, 1], [1, -2]]

    def test_parts_are_validated(self):
        # the raw IntMatrix constructor takes any entries, but a lattice on
        # it refuses all but ints, so a part of a sum is checked where it is
        # built; from_rows takes an integral Fraction as its int
        for e in (Fraction(1, 2), Fraction(4, 1)):
            with pytest.raises(ValueError, match="non-integral"):
                GramLattice(IntMatrix(((e,),)))
        whole = GramLattice.from_rows([[Fraction(4, 1)]])
        total = direct_sum([whole, U]).gram.data
        assert total == ((4, 0, 0), (0, 0, 1), (0, 1, 0))
        assert {type(e) for row in total for e in row} == {int}

    def test_label_is_keyword_only(self):
        # a stale positional twist list must not become the label
        with pytest.raises(TypeError):
            direct_sum([U], [1])


class TestIntMatrix:
    def test_is_symmetric(self):
        assert IntMatrix(((1, 2), (2, 3))).is_symmetric()
        assert not IntMatrix(((1, 2), (0, 3))).is_symmetric()
        assert not IntMatrix(((1, 2, 3),)).is_symmetric()
        assert not IntMatrix(((1,), (2,), (3,))).is_symmetric()
        assert IntMatrix(()).is_symmetric()


class TestSignature:
    def test_l14(self):
        L14 = GramLattice.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, -4]])
        assert signature(L14) == (2, 1, 0)

    def test_degenerate(self):
        assert signature(GramLattice.from_rows([[0]])) == (0, 0, 1)


class TestDeterminant:
    def test_k14_cofactor_oracle(self):
        K14 = GramLattice.from_rows([[-3, 1], [1, -5]])
        # cofactor expansion: (-3)(-5) - 1*1
        assert K14.det == (-3) * (-5) - 1 * 1 == 14


class TestDiscGroup:
    def test_k12_cyclic(self):
        dg = disc_group(GramLattice.from_rows([[-3, 0], [0, -4]]))
        assert dg.invariant_factors == (12,)
        assert dg.is_cyclic

    def test_k18_not_cyclic(self):
        dg = disc_group(GramLattice.from_rows([[-3, 0], [0, -6]]))
        assert dg.invariant_factors == (3, 6)
        assert not dg.is_cyclic

    def test_a2_generator_and_q(self):
        dg = disc_group(A2)
        assert dg.invariant_factors == (3,)
        # oracle: the q value of any generator of Z/3 on A2 is 2/3 mod 2Z,
        # computable from the rational Gram inverse
        ginv = frac_inv(A2.gram.to_lists())
        (col,) = dg.columns
        y = [Fraction(e, 3) for e in la.mat_vec(A2.gram.to_lists(), list(col))]
        assert all(f.denominator == 1 for f in y)
        q_dual = sum(a * b for a, b in zip(y, la.mat_vec(ginv, y))) % 2
        assert dg.q_numerators == (2,)  # q = 2/3
        assert q_dual == Fraction(dg.q_numerators[0], 3)

    def test_degenerate(self):
        with pytest.raises(DegenerateLattice):
            disc_group(GramLattice.from_rows([[0]]))

    def test_degenerate_rank_three(self):
        # the third row is the sum of the first two, so the Smith diagonal
        # ends in a zero while no row or entry of the Gram matrix vanishes
        G = [[2, 1, 3], [1, 2, 3], [3, 3, 6]]
        with pytest.raises(DegenerateLattice):
            disc_group(GramLattice.from_rows(G))
        with pytest.raises(DegenerateLattice):
            disc_group(direct_sum([U, GramLattice.from_rows(G)]))

    def test_order_equals_abs_det(self):
        for name in ("A2", "Gamma", "LambdaD(20)"):
            L = standard_lattice(name)
            assert disc_group(L).order == L.abs_det

    def test_q_two_routes_agree(self):
        for name in ("A2", "A2m", "Gamma", "LambdaD(12)"):
            L = standard_lattice(name)
            dg = disc_group(L)
            G = L.gram.to_lists()
            ginv = frac_inv(G)
            for col, n, a in zip(dg.columns, dg.invariant_factors, dg.q_numerators):
                gen = [Fraction(e, n) for e in col]
                q = Fraction(a, n)
                assert 0 <= a < 2 * n
                y = la.mat_vec(G, gen)
                q2 = sum(a * b for a, b in zip(y, la.mat_vec(ginv, y))) % 2
                assert q == q2
                assert q == (sum(c * p for c, p in zip(gen, y)) % 2)

    def test_odd_lattice_has_no_q(self):
        dg = disc_group(GramLattice.from_rows([[-3, 0], [0, -4]]))
        assert dg.q_numerators is None

    def test_generator_orders(self):
        # order of each generator class: the smallest m with m*g integral
        for name in ("A2", "Gamma", "LambdaD(18)", "LambdaD(36)"):
            L = standard_lattice(name)
            dg = disc_group(L)
            for col, d in zip(dg.columns, dg.invariant_factors):
                gen = [Fraction(e, d) for e in col]
                denoms = [c.denominator for c in gen]
                from math import lcm

                assert lcm(*denoms) == d
                # the pairing with every basis vector must be integral
                assert all(
                    p.denominator == 1
                    for p in [
                        sum(Fraction(gij) * ci for gij, ci in zip(row, gen))
                        for row in L.gram.to_lists()
                    ]
                )


class TestSpanAndSaturation:
    def test_k12_span(self):
        gbar = standard_lattice("Gammabar")
        v12 = gamma_to_gammabar(nl_vector(12))
        S = span_sublattice(gbar, [H2, v12])
        assert S.induced_gram.to_lists() == [[-3, 0], [0, -4]]

    def test_isotropic_sum(self):
        S = span_sublattice(U, [(1, 1)])
        assert S.induced_gram.to_lists() == [[2]]

    def test_dependent(self):
        with pytest.raises(DependentGenerators):
            span_sublattice(U, [(1, 0), (2, 0)])

    def test_saturation_rejects_dependent_basis(self):
        # a hand-built Sublattice bypasses span_sublattice's independence check
        S = Sublattice(U, IntMatrix.from_rows([(1, 0), (2, 0)]))
        with pytest.raises(DependentGenerators):
            saturation(S)

    def test_empty_span_saturates_to_rank_zero(self):
        sat, idx = saturation(span_sublattice(U, []))
        assert (sat.rank, idx) == (0, 1)
        assert sat == saturate_rows(U, [(0, 0)])

    def test_saturation_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="ambient rank"):
            saturate_rows(U, [(1, 0, 0)])
        with pytest.raises(ValueError, match="ambient rank"):
            saturation(Sublattice(U, IntMatrix.from_rows([(2, 0, 0)])))

    def test_a2_pair_in_two_planes(self):
        amb = GramLattice.from_rows(  # U + U(-1)
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
        )
        # A2 and A2(-1) bases written in U3+U4 coordinates
        lam1, lam2 = (0, 0, 1, -1), (1, 1, 0, 1)
        mu1, mu2 = (1, -1, 0, 0), (-1, 0, -1, -1)
        _, idx = saturation(span_sublattice(amb, [lam1, lam2, mu1, mu2]))
        assert idx == 3

    def test_content_removal(self):
        S = span_sublattice(U, [(2, 0)])
        sat, idx = saturation(S)
        assert sat.basis.to_lists() == [[1, 0]]
        assert idx == 2

    def test_idempotent(self):
        S = span_sublattice(U, [(2, 4)])
        sat, _ = saturation(S)
        again, idx = saturation(sat)
        assert idx == 1
        assert again.basis == sat.basis


class TestOrthogonalComplement:
    def test_polarization_complement(self):
        lam = standard_lattice("Lambda")
        E = standard_lattice("E").gram.to_lists()
        for d in (8, 12, 14):
            C = orthogonal_complement(lam, [polarization_vector(d)])
            Ld = standard_lattice(f"LambdaD({d})")
            assert C.rank == Ld.rank == 21
            assert C.abs_det == Ld.abs_det == d
            CL = C.as_lattice()
            assert signature(CL) == signature(Ld) == (2, 19, 0)
            assert disc_group(CL).invariant_factors == disc_group(Ld).invariant_factors
            # the canonical kernel basis realizes the block Gram exactly
            g = C.induced_gram.to_lists()
            assert [row[:16] for row in g[:16]] == E
            assert [row[16:] for row in g[16:]] == [
                [0, 1, 0, 0, 0],
                [1, 0, 0, 0, 0],
                [0, 0, -d, 0, 0],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 1, 0],
            ]

    def test_complement_of_nothing_is_the_ambient(self):
        for amb in (U, standard_lattice("LambdaTilde")):
            C = orthogonal_complement(amb, [])
            assert C.basis.to_lists() == la.identity(amb.rank)

    def test_complement_is_saturated(self):
        lt = standard_lattice("LambdaTilde")
        C = orthogonal_complement(lt, [LAMBDA1])
        _, idx = saturation(C)
        assert idx == 1


class TestMembership:
    # Hermite equality: v is in S iff hnf_rows(H + [v]) == H for the Hermite basis H of S

    def test_rank_zero(self):
        S = Sublattice(U, IntMatrix(()))
        assert S.contains((0, 0))
        assert not S.contains((1, 0))
        assert not S.contains((0, -3))

    def test_non_saturated_span(self):
        S = span_sublattice(U, [(2, 0)])
        assert S.contains((2, 0)) and S.contains((-4, 0)) and S.contains((0, 0))
        assert not S.contains((1, 0))
        assert not S.contains((2, 1))
        assert not S.contains((Fraction(1, 2), 0))

    def test_a_marked_basis_is_its_own_hermite_basis(self, monkeypatch):
        # `contains` on a saturation, a `saturate_rows` result or a complement
        # runs no `hnf_rows`, since the basis is its H; an unmarked copy of
        # the same basis runs one, for its own H, and answers alike
        amb = standard_lattice("Gammabar")
        rows = [[1, 2, 0] + [0] * 19 + [3], [0, 0, 4] + [0] * 19 + [1]]
        built = [
            saturation(span_sublattice(amb, rows))[0],
            saturate_rows(amb, rows + [[a + b for a, b in zip(*rows)]]),
            orthogonal_complement(amb, rows),
        ]
        calls = spy(monkeypatch, la, "hnf_rows")
        for X in built:
            v = [sum(r) for r in zip(*X.basis.data)]
            for S, runs in ((X, 0), (Sublattice(amb, X.basis), 1)):
                calls.clear()
                assert S.contains(v) and len(calls) == runs
                assert S.contains([2 * e for e in v]) and not S.contains([Fraction(e, 2) for e in v])
                assert len(calls) == runs  # H is kept


class TestDivisibilityPrimitivity:
    def test_divisibility(self):
        gamma = standard_lattice("Gamma")
        assert divisibility(gamma, nl_vector(14)) == 3
        assert divisibility(gamma, nl_vector(12)) == 1
        assert divisibility(U, (1, 0)) == 1

    def test_divisibility_zero(self):
        with pytest.raises(ZeroVector):
            divisibility(U, (0, 0))

    def test_primitive(self):
        gbar = standard_lattice("Gammabar")
        assert is_primitive(gbar, H2)
        assert not is_primitive(U, (2, 0))
        lt = standard_lattice("LambdaTilde")
        e3_plus_f4 = tuple(
            a + b for a, b in zip(unit_vector(24, 20), unit_vector(24, 23))
        )
        assert is_primitive(lt, e3_plus_f4)

    def test_primitive_zero(self):
        with pytest.raises(ZeroVector):
            is_primitive(U, (0, 0))


class TestInvariants:
    def test_disc_index_squared(self):
        gbar = standard_lattice("Gammabar")
        for d in (8, 14, 20):
            v = gamma_to_gammabar(nl_vector(d))
            S = span_sublattice(gbar, [H2, v])
            sat, idx = saturation(S)
            assert S.det == idx * idx * sat.det

    def test_mu_vectors_match_embeddings(self):
        gbar = standard_lattice("Gammabar")
        lt = standard_lattice("LambdaTilde")
        # in Gammabar, mu1 = eps1 - eps2 and mu2 = eps2 - eps3
        mu_bar = _vec(RANK_BAR, {EPS1: 1, EPS2: -1}), _vec(RANK_BAR, {EPS2: 1, EPS3: -1})
        for mus, L in ((mu_bar, gbar), ((MU1_TILDE, MU2_TILDE), lt)):
            m1, m2 = mus
            assert L.square(m1) == -2 and L.square(m2) == -2
            assert L.pairing(m1, m2) == 1

    def test_embeddings_isometric(self):
        import random

        gamma = standard_lattice("Gamma")
        gbar = standard_lattice("Gammabar")
        lt = standard_lattice("LambdaTilde")
        lam = standard_lattice("Lambda")
        rng = random.Random(5)
        for _ in range(25):
            u = tuple(rng.randint(-3, 3) for _ in range(22))
            v = tuple(rng.randint(-3, 3) for _ in range(22))
            assert gamma.pairing(u, v) == gbar.pairing(
                gamma_to_gammabar(u), gamma_to_gammabar(v)
            )
            assert gamma.pairing(u, v) == lt.pairing(
                gamma_to_lambdatilde(u), gamma_to_lambdatilde(v)
            )
            # Lambda is the first 22 coordinates of LambdaTilde
            assert lam.pairing(u, v) == lt.pairing(u + (0, 0), v + (0, 0))
            # the image of the primitive cubic lattice lands in the
            # complement of the embedded A2
            for lam_vec in (LAMBDA1, LAMBDA2):
                assert lt.pairing(gamma_to_lambdatilde(u), lam_vec) == 0


def test_json_roundtrip():
    L = standard_lattice("Gamma")
    obj = json.loads(json.dumps(L.to_json()))
    back = GramLattice.from_json(obj)
    assert back.gram == L.gram
    assert back.label == "Gamma"


def test_json_big_integers_as_strings():
    big = 2**80
    L = GramLattice.from_rows([[big]])
    obj = L.to_json()
    assert obj["gram"] == [[str(big)]]
    assert GramLattice.from_json(obj).gram.data == ((big,),)


def test_json_round_trip_past_the_digit_limit():
    # the [-d] entry has 5,000 digits, past the interpreter's int-str limit,
    # and comes back from its decimal string at that limit
    L = standard_lattice("LambdaD(" + "2" * 5000 + ")")
    assert GramLattice.from_json(json.loads(json.dumps(L.to_json()))) == L


def _bits(rows):
    return max((abs(e).bit_length() for row in rows for e in row), default=0)


def _row_echelons(monkeypatch, run):
    # every `row_echelon` that run() calls, as (rows, n, output), and the
    # widest entry among the echelon outputs
    echelon = la.row_echelon
    calls, widest = [], [0]

    def tracked(rows, n):
        out = echelon(rows, n)
        widest[0] = max(widest[0], _bits(out[0]))
        calls.append(([list(r) for r in rows], n, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(la, "row_echelon", tracked)
        result = run()
    return result, calls, widest[0]


def test_echelon_coefficients_stay_small_on_c11_sample(monkeypatch):
    # on the C11 sample the saturated outputs have entries of at most 16
    # bits, so intermediate growth past 64 bits means the pivot rule or the
    # triangular solve has regressed.  Saturation echelons U * T = H for T,
    # the rows of S^T that are not zero, on a short suffix of T: k + 3 rows,
    # then 1, 2, 4, ... more while a generator fails to divide exactly, all
    # of T (with its transform) when every suffix fails.  Then comes the
    # forward substitution S[p_i] = sum_{j <= i} H[j][p_i] * W[j] over the
    # pivot columns p_i of H, and the Hermite reduction of W.  Tracked: the
    # entries of every echelon output, every partial remainder of the
    # substitution (rebuilt from S, H and the W handed to `hnf_rows`) and W
    # itself.  Every input runs them, the 22 that are already canonical
    # Hermite bases of index 1 (mostly single rows with a positive first
    # entry) included, since a span built by the caller carries no
    # saturation marker.  The row counts of the echelons are those of
    # `oracles.suffix_echelons`, and every input accepts a suffix: the first
    # on some, a grown one on others.
    widest = hermite = 0
    paths = set()
    sample = dt.draw("c11", 200, *dt.C11)
    for amb, rows in sample:
        k = len(rows)
        S = span_sublattice(amb, rows)
        (sat, index), calls, bits = _row_echelons(monkeypatch, lambda: saturation(S))
        assert [len(A) for A, _, _ in calls] == oracles.suffix_echelons(rows, False)
        paths.add(oracles.suffix_path(*oracles.suffix_rows(rows, False)))
        widest = max(widest, bits)
        if oracles.hermite_pivots(rows) is not None and index == 1:
            hermite += 1
            assert sat.basis.data == tuple(rows)
        *suffixes, (W, n, _) = calls
        assert n == amb.rank and len(W) == k  # the Hermite reduction of W
        H, r = suffixes[-1][2]  # the last suffix echeloned
        assert r == k
        widest = max(widest, _bits(W))
        for i in range(r):
            p = next(c for c, e in enumerate(H[i]) if e)
            w = list(rows[p])
            for j in range(i):
                widest = max(widest, _bits([w]))
                w = [a - H[j][p] * b for a, b in zip(w, W[j])]
            widest = max(widest, _bits([w]))
            assert w == [H[i][p] * e for e in W[i]]
        _, _, bits = _row_echelons(monkeypatch, lambda: orthogonal_complement(amb, rows))
        widest = max(widest, bits)
    assert 0 < hermite < len(sample)
    assert paths == {"first suffix", "grown suffix"}
    assert widest <= 64


Z8 = GramLattice.from_rows(la.identity(8))
G1, G2 = [1, 2, 3, 4, 5, 6, 7, 8], [0, 1, 1, 2, 3, 0, 1, 1]


# written-down generators in Z^8 and the index of their span in the
# saturation, each commented with its path on the schedule of
# `intlinalg.suffix_starts`
@pytest.mark.parametrize(
    "rows, echelons, index",
    [
        (rows, oracles.suffix_echelons(rows, False), index)
        for rows, index in [
            ([[2, 4, 6, 8, 10, 12, 14, 0]], 2),  # first suffix: it spans 2Z
            ([[1, 3, 2, 4, 6, 8, 10, 12]], 1),  # grown suffix: 3 joins last
            ([[1, 2, 2, 4, 6, 8, 10, 12]], 1),  # all rows: no suffix holds the 1
            ([[1] * 8, [1, 2] + [0] * 6], 1),  # all rows: suffix rank 1 < 2
            ([[1, 2, 3, 4, 5, 0, 0, 0], [0, 1, 1, 2, 3, 0, 0, 0]], 1),  # no suffix: m = 5 = k + 3
            ([G1, [0, 3, 0, 3, 3, 0, 6, 3]], 3),  # first suffix: a scaled generator
        ]
    ],
)
def test_saturation_suffix_echelons(monkeypatch, rows, echelons, index):
    # the echelons run in turn, and the saturation against the oracle.  The
    # sublattice is built outside the spy, as `span_sublattice` echelons too
    S = span_sublattice(Z8, rows)
    want = oracles.saturation(S)
    got, calls, _ = _row_echelons(monkeypatch, lambda: saturation(S))
    assert got == want and got[1] == index
    assert [len(A) for A, _, _ in calls] == echelons


def test_saturate_rows_of_a_dependent_list_echelons_all_rows(monkeypatch):
    # three generators of rank 2: every suffix has rank below 3, so all of T
    # is echeloned, and the solve runs on the pivot columns of H
    rows = [G1, G2, [a - 2 * b for a, b in zip(G1, G2)]]
    got, calls, _ = _row_echelons(monkeypatch, lambda: saturate_rows(Z8, rows))
    assert got == oracles.saturate_rows(Z8, rows) and got.rank == 2
    assert [len(A) for A, _, _ in calls] == oracles.suffix_echelons(rows, False)


class TestSaturationAgainstOracles:
    # written-down generator lists through the routes of the table's
    # saturation rows: (saturate_rows, saturation or DependentGenerators),
    # against the double-kernel saturation and the determinant index
    @staticmethod
    def agree(amb, rows):
        got = dt.SATURATIONS[0]((amb, rows))
        assert got == dt.SATURATIONS[1]((amb, rows))
        return got

    def test_no_rows_and_zero_rows(self):
        for amb in (U, standard_lattice("LambdaTilde")):
            sat, indexed = self.agree(amb, [])
            assert sat.rank == 0 and indexed == (sat, 1)
            for rows in ([(0,) * amb.rank], [(0,) * amb.rank] * 3):
                sat, indexed = self.agree(amb, rows)
                assert sat.rank == 0 and indexed is DependentGenerators

    def test_duplicated_and_dependent_rows(self):
        gbar = standard_lattice("Gammabar")
        rng = random.Random(7)
        a, b = ([rng.randint(-5, 5) for _ in range(gbar.rank)] for _ in range(2))
        zero = [0] * gbar.rank
        combo = [3 * x - 2 * y for x, y in zip(a, b)]
        # each dependent list has the saturation of the independent one
        for rows, independent in (
            ([a, a], [a]),
            ([a, zero, b, a], [a, b]),
            ([a, b, combo], [a, b]),
            ([combo, b, a, b], [a, b]),
            ([[2 * x for x in a], [3 * x for x in a]], [a]),
            ([[6 * x for x in a], [4 * x for x in b], [2 * x for x in combo]], [a, b]),
        ):
            sat = self.agree(gbar, independent)[0]
            assert self.agree(gbar, rows)[0] == sat

    def test_full_rank_gives_the_identity(self):
        for name in ("U", "A2", "Gammabar"):
            amb = standard_lattice(name)
            n = amb.rank
            # 2 on the diagonal, 1 above it: determinant 2^n
            rows = [[2 * (i == j) + (j == i + 1) for j in range(n)] for i in range(n)]
            sat, idx = self.agree(amb, rows)[1]
            assert sat.basis.to_lists() == la.identity(n)
            assert idx == 2**n
            assert self.agree(amb, rows + [rows[0]])[0].basis.to_lists() == la.identity(n)

    def test_content_two(self):
        sat, idx = self.agree(U, [(2, 4)])[1]
        assert (sat.basis.to_lists(), idx) == ([[1, 2]], 2)

    def test_h2_v8_index_three(self):
        gbar = standard_lattice("Gammabar")
        v8 = gamma_to_gammabar(nl_vector(8))
        _, idx = self.agree(gbar, [H2, v8])[1]
        assert idx == 3

    def test_dependent_basis_raises_on_both_routes(self):
        gbar = standard_lattice("Gammabar")
        v8 = gamma_to_gammabar(nl_vector(8))
        for amb, rows in ((U, [(1, 0), (2, 0)]), (U, [(0, 0)]),
                          (gbar, [H2, v8, [a + b for a, b in zip(H2, v8)]])):
            assert self.agree(amb, rows)[1] is DependentGenerators


class TestIntegralEntries:
    # a non-integral coordinate is never truncated to an integer: int()
    # truncates 3/2, raises OverflowError on an infinity and TypeError on
    # None, and reads True as 1, which an exact int is not (the contract
    # table holds the errors of each entry point)
    NOT_INTEGERS = (Fraction(3, 2), float("inf"), float("-inf"), float("nan"), None, True)

    def test_divisibility(self):
        # an integral Fraction or float is read as its integer
        assert divisibility(U, (Fraction(4, 2), 1.0)) == divisibility(U, (2, 1))

    def test_gram_matrix(self):
        assert GramLattice.from_rows([[Fraction(4, 2)]]).gram.data == ((2,),)

    def test_contains_is_false_not_an_error(self):
        S = span_sublattice(U, [(1, 0)])
        for x in self.NOT_INTEGERS:
            assert not S.contains((x, 0))
        assert S.contains((Fraction(2, 2), 0))

    def test_as_vector_fast_path_keeps_every_check(self):
        # exact ints come back as they are; anything else takes the full check
        assert as_vector([1, -2, 3]) == (1, -2, 3)
        for x, want in ((Fraction(4, 1), 4), (4.0, 4)):
            got = as_vector((x, 0))
            assert got == (want, 0) and type(got[0]) is int
        for x in (0.5, float("nan"), float("inf"), Fraction(1, 2), True, False):
            with pytest.raises(ValueError, match="non-integral"):
                as_vector((1, x))

