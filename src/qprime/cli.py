"""Batch command-line front end.

Every subcommand reads a form either from the mini-grammar (see
formspec) or, when the grammar rejects the argument, from a path to a
QuasiForm JSON file, and emits JSON or CSV with all rationals as
"num/den" strings.  Exit codes are a stable contract: 0 success, 1 when
a check's verdict is negative (Not, a failed scan, an unproven finite
check), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__all__ = ["main", "run"]

# Each handler imports the modules it runs, so that a process loads only
# what its subcommand needs: expand, for one, never loads primedetect,
# signstats, decompose or macmahon.


def _load_form(spec: str):
    from .formspec import FormSpecError, parse_form_spec
    from .forms import QuasiForm

    # the grammar first, so that a file named like a form (G4) cannot
    # shadow it; "./G4" is no form spec and reaches the file
    try:
        return parse_form_spec(spec)
    except FormSpecError:
        if not os.path.isfile(spec):
            raise
    with open(spec) as fh:
        return QuasiForm.from_json(fh.read())


def _csv_text(rows) -> str:
    import csv
    import io

    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _field_rows(data: dict) -> list:
    return [["field", "value"]] + [
        [key, json.dumps(value) if isinstance(value, (list, dict)) else value]
        for key, value in data.items()
    ]


def _emit(args, data, to_csv=None) -> None:
    """Write a subcommand's result as JSON or CSV, to --output or stdout.

    JSON is data; CSV is to_csv(), by default one field,value row per entry
    of data.  With data None there is no JSON form and CSV is written
    whatever --format says (--plot-data).  Only the written format is built.
    """
    if data is not None and args.format == "json":
        text = json.dumps(data, indent=2) + "\n"
    else:
        text = to_csv() if to_csv else _csv_text(_field_rows(data))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns its exit code, its JSON data and a callable that
# gives its CSV text (None for the field,value rows of the data)
# ---------------------------------------------------------------------------


def _cmd_expand(args):
    if args.precision < 1:
        raise ValueError(f"--precision must be >= 1, got {args.precision}")
    form = _load_form(args.form)
    data = form.expand(args.precision, constant_sign=args.constant_sign).to_dict()
    return 0, data, lambda: _csv_text([["n", "coefficient"], *enumerate(data["coeffs"])])


def _cmd_decompose(args):
    from .decompose import split_eis_cusp

    if args.precision < 1:
        raise ValueError(f"--precision must be >= 1, got {args.precision}")
    form = _load_form(args.form)
    result = split_eis_cusp(form, certificate_precision=args.precision)

    def rows():
        yield ["part", "weight", "index", "derivative", "coefficient"]
        for (k, l), value in sorted(result.eis_part.eis.items()):
            yield ["eis", k, "", l, str(value)]
        for (m, i, l), value in sorted(result.cusp_part.cusp.items()):
            yield ["cusp", m, i, l, str(value)]

    return 0, result.to_dict(), lambda: _csv_text(rows())


def _cmd_decide(args):
    from .decompose import split_eis_cusp
    from .primedetect import IN_OMEGA_TILDE, omega_scan, omega_tilde_decide

    form = _load_form(args.form)
    decomposition = split_eis_cusp(form)
    verdict = omega_tilde_decide(form)
    scan = omega_scan(
        form,
        args.bound,
        include_small=args.include_small,
        max_violations=args.max_violations,
        constant_sign=args.constant_sign,
    )
    payload = {
        "verdict": verdict.to_dict(),
        "scan": scan.to_dict(),
        "decomposition": decomposition.to_dict(),
    }

    def to_csv():
        return _csv_text(_field_rows({
            "verdict": verdict.verdict,
            "witness": json.dumps(payload["verdict"].get("witness")),
            "nonneg_ok": scan.nonneg_ok,
            "zero_set_equals_primes": scan.zero_set_equals_primes,
            "total_violations": scan.total_violations,
        }))

    return (0 if verdict.verdict == IN_OMEGA_TILDE and scan.passed else 1), payload, to_csv


def _cmd_finite_check(args):
    from .exactnum import first_primes
    from .primedetect import VANISHES_AT_ALL_PRIMES, finite_check, primes_needed

    form = _load_form(args.form)
    if args.primes is not None:
        primes = _int_list("--primes", args.primes)
    elif args.first_primes is not None:
        primes = list(first_primes(args.first_primes))
    else:
        primes = list(first_primes(primes_needed(form)))
    result = finite_check(form, primes)
    return (0 if result.verdict == VANISHES_AT_ALL_PRIMES else 1), result.to_dict(), None


# the largest table the macmahon subcommand builds.  Its time grows about
# as amax * bound^2: --amax 4 --bound 1600 takes 1.4 s, and the largest
# table allowed, --amax 10 --bound 5000, 69 s in 17 MB (Python 3.11, one
# core); memory is no limit before time is
MACMAHON_MAX_AMAX = 10
MACMAHON_MAX_BOUND = 5000


def _cmd_macmahon(args):
    from .macmahon import macmahon_table, prime_identity

    # refused before anything is allocated
    if args.amax > MACMAHON_MAX_AMAX:
        raise ValueError(f"--amax must be at most {MACMAHON_MAX_AMAX}, got {args.amax}")
    if args.bound > MACMAHON_MAX_BOUND:
        raise ValueError(f"--bound must be at most {MACMAHON_MAX_BOUND}, got {args.bound}")
    table = macmahon_table(args.amax, args.bound)
    payload = {
        "a_max": table.a_max,
        "n_max": table.n_max,
        "m": [list(row[1:]) for row in table.values],
    }
    if table.a_max >= 2:
        payload["identity_holds"] = [
            prime_identity(n, table)[0] for n in range(1, table.n_max + 1)
        ]
    return 0, payload, table.to_csv


def _cmd_signstats(args):
    from .signstats import partial_sum_report

    form = _load_form(args.form)
    grid = _int_list("--grid", args.grid) if args.grid else None
    report = partial_sum_report(form, args.bound, grid)
    if args.plot_data:
        if not report.normalized_sq:
            raise ValueError(
                "--plot-data needs a growth profile; the form must be cusp-only and nonzero"
            )
        return 0, None, lambda: _csv_text([["x", "normalized_sq"], *report.normalized_sq])

    def rows():
        yield ["x", "partial_sum", "partial_sum_sq", "normalized_sq"]
        norm = dict(report.normalized_sq)
        for (x, s), (_, sq) in zip(report.partial_sum, report.partial_sum_sq):
            yield [x, str(s), str(sq), norm.get(x, "")]

    return 0, report.to_dict(), lambda: _csv_text(rows())


def _cmd_deligne(args):
    from .signstats import deligne_check

    report = deligne_check(args.weight, args.bound)
    return (0 if report.passed else 1), report.to_dict(), None


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_output_args(p, constant_sign=False):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    if constant_sign:
        p.add_argument(
            "--eisenstein-constant-sign",
            choices=("paper", "classical"),
            default="paper",
            dest="constant_sign",
            help="sign convention for Eisenstein constant terms",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprime",
        description="Exact arithmetic for quasimodular forms and "
        "prime-detecting coefficient combinations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="q-expansion of a form")
    p.add_argument("form", help="form spec or QuasiForm JSON path")
    p.add_argument("--precision", type=int, default=32, metavar="N")
    _add_output_args(p, constant_sign=True)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("decompose", help="Eisenstein/cuspidal split")
    p.add_argument("form")
    p.add_argument("--precision", type=int, default=60, metavar="N",
                   help="certificate precision; the parts sum to the form at any precision")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("decide", help="membership decision plus bounded scan")
    p.add_argument("form")
    p.add_argument("--bound", type=int, default=200, metavar="N", help="scan bound")
    p.add_argument("--include-small", action="store_true",
                   help="also scan n = 0 and n = 1")
    p.add_argument("--max-violations", type=int, default=20, metavar="COUNT")
    _add_output_args(p, constant_sign=True)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("finite-check", help="prime-vanishing check from finitely many primes")
    p.add_argument("form")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--primes", metavar="P1,P2,...", help="explicit primes to test")
    group.add_argument("--first-primes", type=int, metavar="COUNT",
                       help="use the first COUNT primes")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_finite_check)

    p = sub.add_parser("macmahon", help="weighted-partition table and prime identity")
    p.add_argument("--amax", type=int, default=2, metavar="A")
    p.add_argument("--bound", type=int, default=100, metavar="N")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_macmahon)

    p = sub.add_parser("signstats", help="sign changes and prime partial sums")
    p.add_argument("form")
    p.add_argument("--bound", type=int, default=1000, metavar="X")
    p.add_argument("--grid", metavar="X1,X2,...", help="partial-sum evaluation points")
    p.add_argument("--plot-data", action="store_true",
                   help="emit only (x, normalized) pairs as CSV")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_signstats)

    p = sub.add_parser("deligne", help="prime-coefficient bound for an eigenform weight")
    p.add_argument("--weight", type=int, required=True, metavar="M")
    p.add_argument("--bound", type=int, default=1000, metavar="X")
    _add_output_args(p)
    p.set_defaults(handler=_cmd_deligne)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, data, to_csv = args.handler(args)
        _emit(args, data, to_csv)
        return code
    except (ValueError, OSError) as exc:  # a FormSpecError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; ask for a smaller size", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
