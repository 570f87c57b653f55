"""Command-line interface.

All output is deterministic (no timestamps, no environment echo):
identical inputs produce byte-identical output.  Exit status: 0 on
success, 1 when a requested check fails (a theorem's order divisibility
included, or a --bound cap below the quasi-exponent), 2 on malformed or
axiom-violating input.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from math import lcm
from typing import Callable, Iterable

from .hopf import GrouplikeSet, HopfAlgebraData, OrderSearchExhausted, element_order
from .hopf import s2_order as _s2_order
from .hopf import validate as _validate
from .io import (
    SCHEMA,
    SchemaError,
    algebra_chunks,
    dumps,
    read_algebra,
    read_twist,
    write_atomic,
)
from .presets import ZOO, get_preset
from .qexp import quasi_exponent
from .suite import format_suite, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


@cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfqexp",
        description="Exact quasi-exponent computations for finite-dimensional "
                    "Hopf algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *, source: bool = True,
            twist: bool = False, bound: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if source:
            p.add_argument("--preset", help="preset name, e.g. taft:3")
            p.add_argument("--in", dest="input", metavar="FILE",
                           help="algebra JSON file")
        if twist:
            p.add_argument("--twist", required=True, metavar="FILE",
                           help="twist JSON file")
        if bound:
            p.add_argument("--bound", type=int, default=None,
                           help="cap on the quasi-exponent; orders come from "
                                "theorems (default: env HOPFQEXP_BOUND, else none)")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", metavar="FILE", help="write output here")
        return p

    add("validate", "check all Hopf algebra axioms")
    q = add("qexp", "quasi-exponent report", bound=True)
    q.add_argument("--cross-check", action="store_true",
                   help="confirm via the regular representation of u in D(H)")
    add("exponent", "exponent (finite value or 'infinite')", bound=True)
    add("s2-order", "multiplicative order of the antipode squared")
    add("grouplikes", "declared grouplike elements, orders, and exponent")
    add("double", "emit the Drinfeld double with its R-matrix")
    add("twist-check", "verify the twist axioms for a twist file", twist=True)
    add("twist-apply", "emit the twisted Hopf algebra", twist=True)
    add("preset", "emit a preset as JSON, or list all presets")
    s = add("suite", "run the full theorem suite", source=False)
    s.add_argument("--deep", action="store_true",
                   help="include the expensive cross-check items")
    s.add_argument("--max-dim", type=int, default=None,
                   help="skip presets above this dimension")
    return parser


def _emit(args, chunks: Callable[[], Iterable[str]], text: str) -> None:
    """Write text, or the chunks of the JSON document that chunks makes on
    demand.  A --out file is written whole or not at all; on stdout, a
    failure after the first chunk leaves what was written, and exit 2."""
    payload = chunks() if args.format == "json" else (text,)
    if args.out:
        write_atomic(args.out, payload)
    else:
        sys.stdout.writelines(payload)


def _report(doc: dict) -> Callable[[], Iterable[str]]:
    """The chunks of a small report document: `io.dumps` in one piece."""
    return lambda: (dumps(doc),)


def _resolve_bound(args) -> int | None:
    """The --bound value, else HOPFQEXP_BOUND; a positive integer or None."""
    raw = getattr(args, "bound", None)
    if raw is None:
        raw = os.environ.get("HOPFQEXP_BOUND") or None
    if raw is None:
        return None
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise SchemaError(f"the search bound must be a positive integer, got {raw!r}")
    return bound


def _load_algebra(args, check: bool = True) -> HopfAlgebraData:
    if getattr(args, "preset", None) and getattr(args, "input", None):
        raise SchemaError("give either --preset or --in, not both")
    if getattr(args, "preset", None):
        try:
            return get_preset(args.preset)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if getattr(args, "input", None):
        return read_algebra(args.input, check=check)
    raise SchemaError("an algebra is required: use --preset or --in")


def _cmd_validate(args) -> int:
    H = _load_algebra(args, check=False)
    violations = _validate(H)
    doc = {"schema": SCHEMA, "kind": "validation-report", "name": H.name,
           "dim": H.dim, "valid": not violations, "violations": violations}
    if violations:
        text = f"{H.name}: INVALID\n" + "".join(f"  {v}\n" for v in violations)
    else:
        text = f"{H.name}: valid Hopf algebra (dim {H.dim})\n"
    _emit(args, _report(doc), text)
    return EXIT_BAD_INPUT if violations else EXIT_OK


def _qexp_report(args):
    H = _load_algebra(args)
    bound = _resolve_bound(args)
    try:  # --cross-check past the regular route's envelope
        return quasi_exponent(H, cross_check=getattr(args, "cross_check", False), bound=bound)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _cmd_qexp(args) -> int:
    rep = _qexp_report(args)
    doc = {"schema": SCHEMA, "kind": "qexp-report", **rep.to_dict()}
    text = (f"{rep.algebra}:\n"
            f"  qexp             {rep.qexp}\n"
            f"  exponent         {rep.exponent}\n"
            f"  s2_order         {rep.s2_order}\n"
            f"  unipotency_index {rep.unipotency_index}\n"
            f"  route            {rep.route}"
            f"{' (cross-checked)' if rep.cross_checked else ''}\n"
            f"  min poly deg     {rep.min_poly_u.degree}\n")
    _emit(args, _report(doc), text)
    return EXIT_OK


def _cmd_exponent(args) -> int:
    rep = _qexp_report(args)
    doc = {"schema": SCHEMA, "kind": "exponent-report", "name": rep.algebra,
           "exponent": rep.exponent, "qexp": rep.qexp}
    _emit(args, _report(doc), f"{rep.algebra}: exponent {rep.exponent}\n")
    return EXIT_OK


def _cmd_s2_order(args) -> int:
    H = _load_algebra(args)
    order = _s2_order(H)
    doc = {"schema": SCHEMA, "kind": "s2-order-report", "name": H.name,
           "s2_order": order}
    _emit(args, _report(doc), f"{H.name}: s2_order {order}\n")
    return EXIT_OK


def _cmd_grouplikes(args) -> int:
    H = _load_algebra(args)
    if H.grouplike_vectors is None:
        doc = {"schema": SCHEMA, "kind": "grouplike-report", "name": H.name,
               "grouplikes": None}
        _emit(args, _report(doc), f"{H.name}: no grouplike data attached\n")
        return EXIT_OK
    gset = GrouplikeSet.build(H, H.grouplike_vectors)
    orders = [element_order(g) for g in gset.elements]
    exponent = lcm(*orders)
    doc = {"schema": SCHEMA, "kind": "grouplike-report", "name": H.name,
           "count": len(gset), "orders": orders, "exponent": exponent}
    text = (f"{H.name}: {len(gset)} grouplikes, orders {orders}, "
            f"exponent {exponent}\n")
    _emit(args, _report(doc), text)
    return EXIT_OK


def _cmd_double(args) -> int:
    from .double import drinfeld_double

    H = _load_algebra(args)
    qt = drinfeld_double(H)
    text = (f"D({H.name}): dim {qt.algebra.dim}, conductor "
            f"{qt.algebra.conductor}; use --format json for the full data\n")
    _emit(args, lambda: algebra_chunks(qt.algebra, r_matrix=qt.R), text)
    return EXIT_OK


def _checked_twist(args):
    """(T, ok, details): the twist file read without checks, and the verdict
    of `is_twist` on it.  The lenient reader leaves J_inv None only when the
    file has none and it found J singular, so that is not searched again."""
    from .twist import is_twist

    algebra = None
    if getattr(args, "preset", None) or getattr(args, "input", None):
        algebra = _load_algebra(args)
    T = read_twist(args.twist, algebra=algebra, check=False)
    return (T, *is_twist(T.parent, T.J, T.J_inv, singular=T.J_inv is None))


def _cmd_twist_check(args) -> int:
    T, ok, details = _checked_twist(args)
    doc = {"schema": SCHEMA, "kind": "twist-report", "name": T.parent.name,
           "is_twist": ok, "violations": [] if ok else details}
    if ok:
        text = f"{T.parent.name}: valid twist\n"
    else:
        text = (f"{T.parent.name}: NOT a twist\n"
                + "".join(f"  {d}\n" for d in details))
    _emit(args, _report(doc), text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_twist_apply(args) -> int:
    from .twist import twist_hopf

    T, ok, details = _checked_twist(args)
    if not ok:
        sys.stderr.write("cannot apply: not a twist\n"
                         + "".join(f"  {d}\n" for d in details))
        return EXIT_CHECK_FAILED
    # the check passed, so J_inv is set: given, or found by the reader
    twisted = twist_hopf(T)
    text = (f"{twisted.name}: dim {twisted.dim}, conductor "
            f"{twisted.conductor}; use --format json for the full data\n")
    _emit(args, lambda: algebra_chunks(twisted), text)
    return EXIT_OK


def _cmd_preset(args) -> int:
    if not getattr(args, "preset", None) and not getattr(args, "input", None):
        doc = {"schema": SCHEMA, "kind": "preset-list", "presets": list(ZOO)}
        _emit(args, _report(doc), "".join(f"{name}\n" for name in ZOO))
        return EXIT_OK
    H = _load_algebra(args)
    _emit(args, lambda: algebra_chunks(H),
          f"{H.name}: dim {H.dim}, conductor {H.conductor}\n")
    return EXIT_OK


def _cmd_suite(args) -> int:
    if args.max_dim is not None and args.max_dim < 1:
        raise SchemaError(f"--max-dim must be a positive integer, got {args.max_dim}")
    items = run_suite(deep=args.deep, max_dim=args.max_dim)
    all_ok = all(i.passed for i in items)
    doc = {"schema": SCHEMA, "kind": "suite-report", "deep": args.deep,
           "max_dim": args.max_dim, "passed": all_ok,
           "items": [{"label": i.label, "passed": i.passed, "detail": i.detail}
                     for i in items]}
    _emit(args, _report(doc), format_suite(items))
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "validate": _cmd_validate,
    "qexp": _cmd_qexp,
    "exponent": _cmd_exponent,
    "s2-order": _cmd_s2_order,
    "grouplikes": _cmd_grouplikes,
    "double": _cmd_double,
    "twist-check": _cmd_twist_check,
    "twist-apply": _cmd_twist_apply,
    "preset": _cmd_preset,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SchemaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except OrderSearchExhausted as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CHECK_FAILED
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except MemoryError:
        sys.stderr.write(f"error: out of memory running {args.command}; "
                         "the input is too large for the available memory\n")
        return EXIT_BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
