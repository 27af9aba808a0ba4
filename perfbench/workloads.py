"""The three seeded workloads of the cubick3 benchmark.

A workload is a sequence of inputs made from the seed alone, one timed call
into the library per input (an "op"), a correctness check of each op's
output, and a canonical encoding of that output for the run digest.  The
checks use the op's own outputs and small independent arithmetic; the one
library call a check makes (``Sublattice.det``, ``pell_brakkee``) runs
outside the timed op and, in the traced run, with tracing off.

Library functions are always reached through their module (``lat.saturation``
rather than a name bound at import), so the traced run sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from cubick3 import conditions as cond
from cubick3 import lattice as lat
from cubick3 import standard as st
from cubick3.errors import DegenerateLattice


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, int], list]  # (seed, count) -> inputs
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]  # None when the output is correct
    canon: Callable[[Any, Any], bytes]
    max_inputs: int  # inputs generated for a timed run; the run stops when they run out
    fixed_ops: int  # ops in the digest prefix and in each traced-run pass


# --- sublattices: C11-style random sublattices -------------------------------

AMBIENTS = ("Gammabar", "LambdaTilde")
ENTRIES = tuple(range(-5, 6))
_P = (1 << 61) - 1


def _independent(rows) -> bool:
    # full rank modulo a prime implies full rank over Q
    M = [[e % _P for e in row] for row in rows]
    r = 0
    for col in range(len(M[0])):
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][col], -1, _P)
        for i in range(r + 1, len(M)):
            f = M[i][col] * inv % _P
            if f:
                M[i] = [(a - f * b) % _P for a, b in zip(M[i], M[r])]
        r += 1
        if r == len(M):
            return True
    return False


def sublattice_inputs(seed: int, count: int) -> list[tuple[int, tuple]]:
    """(ambient index, generator rows).  Ambients alternate; k cycles through
    1..4 in blocks of eight ops so every block holds each (ambient, k) once,
    which keeps the mix of k, which most sets an op's cost, identical across seeds."""
    rng = random.Random(f"sublattices:{seed}")
    ranks = [st.standard_lattice(a).rank for a in AMBIENTS]
    out = []
    for i in range(count):
        amb = i % 2
        k = 1 + (i // 2) % 4
        while True:
            rows = tuple(tuple(rng.choices(ENTRIES, k=ranks[amb])) for _ in range(k))
            if _independent(rows):
                break
        out.append((amb, rows))
    return out


def sublattice_op(x):
    amb = st.standard_lattice(AMBIENTS[x[0]])
    rows = x[1]
    S = lat.span_sublattice(amb, rows)
    sat, idx = lat.saturation(S)
    again, idx2 = lat.saturation(sat)
    comp = lat.orthogonal_complement(amb, rows)
    _, idx3 = lat.saturation(comp)
    L = sat.as_lattice()
    try:
        order = lat.disc_group(L).order
    except DegenerateLattice:
        order = None
    return S, sat, idx, again, idx2, comp, idx3, L, order


def sublattice_check(x, out) -> str | None:
    S, sat, idx, again, idx2, comp, idx3, L, order = out
    if S.det != idx * idx * L.det:
        return f"det S = {S.det} != idx^2 * det sat = {idx}^2 * {L.det}"
    if idx2 != 1 or again.basis != sat.basis:
        return "saturation is not idempotent"
    if idx3 != 1:
        return f"orthogonal complement has saturation index {idx3}"
    if L.det != 0 and order != L.abs_det:
        return f"|A_L| = {order} != |det| = {L.abs_det}"
    if L.det == 0 and order is not None:
        return "disc_group of a degenerate lattice did not raise DegenerateLattice"
    return None


def sublattice_canon(x, out) -> bytes:
    S, sat, idx, again, idx2, comp, idx3, L, order = out
    return repr((x[0], len(x[1]), idx, sat.basis.data, idx2, comp.basis.data, idx3, L.det, order)).encode()


# --- nl-sweep: the per-d work of `verify --genus-max 600` ---------------------

NL_DS = tuple(d for d in range(8, 601, 2) if d % 6 in (0, 2))


def nl_inputs(seed: int, count: int) -> list[int]:
    """Passes over the 198 special d in [8, 600], each pass in a fresh seeded order."""
    rng = random.Random(f"nl-sweep:{seed}")
    out: list[int] = []
    while len(out) < count:
        p = list(NL_DS)
        rng.shuffle(p)
        out.extend(p)
    return out[:count]


def nl_op(d: int):
    st.hassett_triple.cache_clear()  # as test C5 does: every op computes the triple
    rep = st.hassett_triple(d)
    case, dd = st.classify_nl_vector(rep.v)
    genus = st.genus_compare(d)
    ss = cond.condition_flags(d).starstar
    return rep, case, dd, genus, ss


def nl_check(d: int, out) -> str | None:
    rep, case, dd, genus, ss = out
    want = st.NLCase.SATURATED if d % 6 == 0 else st.NLCase.INDEX_THREE
    if (case, dd) != (want, d) or rep.case != want:
        return f"classify_nl_vector gave ({case}, {dd}), want ({want}, {d})"
    (a, b), (b2, c) = rep.gram_K.data
    if b != b2 or abs(a * c - b * b) != d:
        return f"|det K_d| != d for K = {rep.gram_K.data}"
    if rep.disc_K.is_cyclic != (d % 9 != 0):
        return f"disc K_d cyclic = {rep.disc_K.is_cyclic} but 9 | d is {d % 9 == 0}"
    if genus != ss:
        return f"genus_compare = {genus} but (**) = {ss}"
    return None


def nl_canon(d: int, out) -> bytes:
    rep, case, dd, genus, ss = out
    return repr((
        d, case.value, dd, rep.gram_K.data, rep.gram_L.data, rep.gram_Gamma_d.data,
        rep.disc_K.invariant_factors, rep.disc_Gamma_d.invariant_factors, genus, ss,
    )).encode()


# --- discriminants: `table` rows on a log-uniform sample of d -----------------

LOG2_LO, LOG2_HI = 16, 20


def disc_inputs(seed: int, count: int) -> list[int]:
    """Distinct special even d, log-uniform in [2^16, 2^20), in draw order."""
    rng = random.Random(f"discriminants:{seed}")
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        d = int(2.0 ** rng.uniform(LOG2_LO, LOG2_HI)) & ~1
        if d % 6 in (0, 2) and d not in seen:
            seen.add(d)
            out.append(d)
    return out


def disc_op(d: int):
    flags = cond.condition_flags(d)
    return flags, cond.csv_row(flags)


def disc_check(d: int, out) -> str | None:
    flags, row = out
    if flags.d != d or row[0] != str(d):
        return "row is for another d"
    if not (flags.star and flags.case_mod6 == d % 6):
        return "special d reported as not (*)"
    if flags.starstar and not flags.starstar_prime:
        return "(**) without (**')"
    if (flags.ss_witness is not None) != flags.starstar:
        return "(**) witness does not match the (**) flag"
    if flags.ss_witness is not None:
        n, a = flags.ss_witness
        if a * d != 2 * n * n + 2 * n + 2:
            return f"(**) witness {flags.ss_witness} fails a*d = 2n^2+2n+2"
    if (flags.sss_witness is not None) != flags.starstarstar:
        return "(***) witness does not match the (***) flag"
    if flags.sss_witness is not None:
        n, a = flags.sss_witness
        if a * a * d != 2 * n * n + 2 * n + 2:
            return f"(***) witness {flags.sss_witness} fails a^2*d = 2n^2+2n+2"
        if not flags.starstar:
            return "(***) without (**)"
    tf = {True: "T", False: "F"}
    want = [tf[flags.star], tf[flags.starstar_prime], tf[flags.starstar], tf[flags.starstarstar], str(d % 6)]
    for w in (flags.ss_witness, flags.sss_witness):
        want += [str(v) for v in w] if w else ["", ""]
    want.append("2" if (d // 2) % 4 == 1 else "1")  # boundary components
    if row[1:11] != want:
        return f"csv cells {row[1:11]} disagree with the flags, witnesses or boundary count {want}"
    if d % 6 == 0:
        sol = cond.pell_brakkee(d).solution
        if sol is not None:
            p, q = sol
            if 3 * p * p - (d // 6) * q * q != -1:
                return f"Pell witness {sol} fails 3p^2 - (d/6)q^2 = -1"
        if row[11] != tf[sol is not None]:
            return f"csv Pell cell {row[11]!r} disagrees with pell_brakkee"
    elif row[11] != "":
        return "Pell cell filled for d = 2 (mod 6)"
    return None


def disc_canon(d: int, out) -> bytes:
    return ",".join(out[1]).encode()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sublattices", sublattice_inputs, sublattice_op, sublattice_check,
                 sublattice_canon, max_inputs=12_000, fixed_ops=300),
        Workload("nl-sweep", nl_inputs, nl_op, nl_check, nl_canon,
                 max_inputs=100 * len(NL_DS), fixed_ops=len(NL_DS)),
        Workload("discriminants", disc_inputs, disc_op, disc_check, disc_canon,
                 max_inputs=60_000, fixed_ops=2_000),
    )
}
