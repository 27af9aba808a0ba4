"""Command-line front end.

Subcommands: classify, table, lattice, mukai, verify.  Exit codes: 0 on
success, 1 when `verify` finds failures, 2 on usage errors, and 141
(128 + SIGPIPE, the status a shell gives a process that SIGPIPE ends) when
the reader closes standard output early, as `cubick3 table 100000 | head -1`
does; that exit prints no traceback.  Output is deterministic: identical
invocations produce byte-identical output.

`lattice`, `mukai` and `verify` print through one switch, `_emit`: the JSON
object for `--format json` (spelled `--json` for `verify`), the text
otherwise.  `classify` and `table` render only the format asked for.  Only
`verify` loads `cubick3.verify`.

Integers are written through `_record.int_str` and `json_int`, so a
witness or a determinant of tens of thousands of digits prints at the
interpreter's own int-str digit limit, which the CLI leaves as it is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import conditions as cond
from . import standard as st
from ._record import Record, int_str, json_int
from .errors import CubicK3Error


class Report(Record):
    """Everything the classifier knows about one discriminant."""

    def __init__(self, d: int, flags: cond.ConditionFlags, nl: st.NLVectorReport | None,
                 boundary: int, pell: cond.PellSolution | None, notes: tuple[str, ...]):
        s = self.__dict__
        s["d"] = d
        s["flags"] = flags
        s["nl"] = nl
        s["boundary"] = boundary
        s["pell"] = pell
        s["notes"] = notes

    def to_json(self) -> dict:
        return {
            "d": json_int(self.d),
            "flags": self.flags.to_json(),
            "nl": self.nl.to_json() if self.nl else None,
            "boundary_components": self.boundary,
            "pell": self.pell.to_json() if self.pell else None,
            "notes": list(self.notes),
        }


def build_report(d: int) -> Report:
    flags = cond.condition_flags(d)
    nl = st.hassett_triple(d) if flags.star else None
    pell = None
    if d % 6 == 0:  # pell_brakkee(d), with (**) and (**') read off the flags
        pell = cond._brakkee_solution(d, flags.starstar, flags.starstar_prime)
    notes = ("d excluded from smooth-cubic image",) if d in (2, 6) else ()
    return Report(d, flags, nl, cond.boundary_count(d), pell, notes)


def _render_report_text(r: Report) -> str:
    lines = [f"d = {r.d}"]
    f, tf = r.flags, cond._TF
    lines.append(
        f"conditions: (*)={tf[f.star]} (**')={tf[f.starstar_prime]}"
        f" (**)={tf[f.starstar]} (***)={tf[f.starstarstar]}"
    )
    if r.nl is not None:
        lines.append(f"case: {r.nl.case.value}")
        lines.append(f"v = {list(r.nl.v)}  with square {r.nl.v_square}")
        lines.append(f"K gram: {r.nl.gram_K.to_lists()}")
        lines.append(f"L gram: {r.nl.gram_L.to_lists()}")
        lines.append(f"disc(K) = {list(r.nl.disc_K.invariant_factors)}")
        lines.append(f"disc(Gamma_d) = {list(r.nl.disc_Gamma_d.invariant_factors)}")
    else:
        lines.append("case: not special (no associated lattices)")
    for stars, witness in (("**", f.ss_witness), ("***", f.sss_witness)):
        if witness:
            lines.append(f"witness ({stars}): n={int_str(witness[0])} a={int_str(witness[1])}")
    lines.append(f"boundary components: {r.boundary}")
    if r.pell is not None:
        if r.pell.solution:
            p, q = r.pell.solution
            lines.append(f"pell {r.pell.equation}: p={int_str(p)} q={int_str(q)}")
        else:
            lines.append(f"pell {r.pell.equation}: no solution")
    for note in r.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    if args.d >= cond.CLI_INPUT_CAP:
        print("error: d must be below 2^63 (the library accepts larger values)",
              file=sys.stderr)
        return 2
    report = build_report(args.d)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(_render_report_text(report))
    return 0


def _markdown_table(rows: list[cond.ConditionFlags]) -> str:
    # the classical presentation: one row per condition, one column per
    # special discriminant, a cell filled when the condition holds
    ds = [f.d for f in rows]
    header = "| |" + "|".join(str(d) for d in ds) + "|"
    sep = "|---|" + "|".join("---" for _ in ds) + "|"
    out = [header, sep]
    for label, attr in (
        ("(***)", "starstarstar"),
        ("(**)", "starstar"),
        ("(**')", "starstar_prime"),
        ("(*)", "star"),
    ):
        cells = [str(f.d) if getattr(f, attr) else "" for f in rows]
        out.append(f"|{label}|" + "|".join(cells) + "|")
    return "\n".join(out)


def cmd_table(args) -> int:
    if args.max_d >= cond.CLI_INPUT_CAP:
        print("error: max_d must be below 2^63", file=sys.stderr)
        return 2
    rows = cond.table(args.max_d, start=args.start)
    if args.format == "json":
        print(json.dumps([f.to_json() for f in rows], indent=2))
    elif args.format == "markdown":
        print(_markdown_table(rows))
    else:
        print(",".join(cond.CSV_COLUMNS))
        for f in rows:
            print(",".join(cond.csv_row(f)))
    return 0


def _emit(args, obj, text: str) -> None:
    print(json.dumps(obj, indent=2) if args.format == "json" else text)


def _fraction_str(a: int, n: int) -> str:
    """str(Fraction(a, n)) for n > 0, through `int_str`."""
    g = math.gcd(a, n)
    return int_str(a // g) if g == n else f"{int_str(a // g)}/{int_str(n // g)}"


def cmd_lattice(args) -> int:
    from .lattice import disc_group, signature

    L = st.standard_lattice(args.name)
    if args.disc:
        _emit(args, {"det": json_int(L.det), "abs_det": json_int(L.abs_det)},
              f"det = {int_str(L.det)}, |det| = {int_str(L.abs_det)}")
    elif args.signature:
        sig = signature(L)
        _emit(args, {"signature": list(sig)}, "signature = ({}, {}, {})".format(*sig))
    elif args.disc_group:
        dg = disc_group(L)
        q = None
        if dg.q_numerators is not None:
            q = [_fraction_str(a, n) for a, n in zip(dg.q_numerators, dg.invariant_factors)]
        _emit(args, {"invariant_factors": [json_int(e) for e in dg.invariant_factors],
                     "q_values": q},
              f"invariant factors: [{', '.join(map(int_str, dg.invariant_factors))}]\n"
              f"q values: {'(odd lattice)' if q is None else q}")
    else:
        rows = [" ".join(int_str(e).rjust(3) for e in row) for row in L.gram.data]
        _emit(args, L.to_json(),
              "\n".join([f"{L.label or 'lattice'}: rank {L.rank}, even={L.is_even}", *rows]))
    return 0


def cmd_mukai(args) -> int:
    from . import mukai as mk

    if args.gram:
        g = mk.a2_mukai_gram()
        _emit(args, {"a2_gram": g.to_json()}, f"A2 gram under the Mukai pairing: {g.to_lists()}")
    else:
        obj = mk.mukai_set().to_json()
        _emit(args, obj, "\n".join(f"{key}: ({', '.join(val)})" for key, val in obj.items()))
    return 0


def cmd_verify(args) -> int:
    from . import verify

    summary = verify.run_all(genus_max=args.genus_max)
    lines = [f"ok   {c.check_id}" if c.ok else
             f"FAIL {c.check_id}: expected {c.expected}, got {c.actual}" for c in summary.checks]
    lines.append(f"{summary.checks_run} checks, {len(summary.failures)} failures")
    _emit(args, summary.to_json(), "\n".join(lines))
    return 0 if summary.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubick3",
        description="Exact lattice arithmetic for cubic fourfolds and K3 surfaces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="full report for one discriminant")
    c.add_argument("d", type=int)
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.set_defaults(func=cmd_classify)

    t = sub.add_parser("table", help="condition table for special discriminants")
    t.add_argument("max_d", type=int)
    t.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    t.add_argument("--from", dest="start", type=int, default=8,
                   help="lowest discriminant (default 8)")
    t.set_defaults(func=cmd_table)

    l = sub.add_parser("lattice", help="standard lattice data")
    l.add_argument("name", help='e.g. Gamma, Gammabar, LambdaTilde, "LambdaD(14)"')
    g = l.add_mutually_exclusive_group()
    g.add_argument("--disc", action="store_true", help="determinant")
    g.add_argument("--signature", action="store_true")
    g.add_argument("--disc-group", action="store_true", dest="disc_group")
    l.add_argument("--format", choices=("text", "json"), default="text")
    l.set_defaults(func=cmd_lattice)

    m = sub.add_parser("mukai", help="distinguished Mukai vectors")
    m.add_argument("--gram", action="store_true",
                   help="A2 Gram of the projected basis, in place of the seven classes")
    m.add_argument("--format", choices=("text", "json"), default="text")
    m.set_defaults(func=cmd_mukai)

    v = sub.add_parser("verify", help="run the complete identity suite")
    v.add_argument("--json", dest="format", action="store_const", const="json")
    v.add_argument("--genus-max", type=int, default=200,
                   help="bound of all three per-d sweeps: the closed-form check, "
                        "the genus comparison and (***) => (**) (default 200)")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CubicK3Error as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so that the interpreter's own flush at exit
        # does not fail on the closed pipe too (the SIGPIPE note of the
        # `signal` module's documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
