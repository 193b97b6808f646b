"""Command-line interface.

Subcommands: verify, classify, iso, endo, submodules, string-check,
empty-check, canon-sl11.  Human-readable reports go to stdout; machine
output (deterministic JSON, no timestamps) goes to --out.  Exit codes:
0 for pass/success verdicts, 1 for fail verdicts, 2 for usage, file, or
grammar errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .poly import UhfreeError, default_names, format_poly, parse_poly
from .presentation import (
    MAX_SHOWN_VIOLATIONS,
    Presentation,
    PresentationError,
    dump_json,
    parity_check,
    pointwise_check,
    presentation_from_json,
    verified_report,
)
from .normalform import classify_sl11, classify_sl_m1
from .morphisms import (
    MorphismError,
    endo_ring_basis,
    endo_solutions,
    filtration,
    filtration_separators,
    idempotent_scan,
    iso_test,
    resolve_category,
    sl11_submodule_shape,
)
from .stringbridge import StringModule, check_intertwining
from .emptiness import (
    EmptinessError,
    certificate_from_json,
    emptiness_certificate,
    verify_certificate,
)

FIELD_NOTE = "field: exact rationals (complex parameters are taken as rational witnesses)"


class _Failure(Exception):
    """Fail verdict (exit 1) carrying report lines."""

    def __init__(self, lines):
        super().__init__("\n".join(lines))
        self.lines = lines


def _read_input(path: str, error: type[ValueError]) -> str:
    """Text of an input file; bytes that are not UTF-8 raise `error` (exit 2)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_presentation(path: str) -> Presentation:
    return presentation_from_json(_read_input(path, PresentationError))


def _rational(text: str) -> Fraction:
    """A --lambdas entry such as 3, -1/2 or 0.25; anything else exits 2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise MorphismError(f"--lambdas: {text!r} is not a rational number") from None


def _names(p: Presentation):
    return default_names(p.nvars, p.m)


def _violation_lines(texts: list[str], rest: str) -> list[str]:
    """Indented lines for the first MAX_SHOWN_VIOLATIONS texts, then a count of the rest."""
    lines = ["  " + t for t in texts[:MAX_SHOWN_VIOLATIONS]]
    if len(texts) > MAX_SHOWN_VIOLATIONS:
        lines.append(f"  ... and {len(texts) - MAX_SHOWN_VIOLATIONS} more ({rest})")
    return lines


def _require_verified(p: Presentation, lines: list[str]) -> None:
    report = verified_report(p)
    if not report.ok:
        lines.append(f"FAIL: {len(report.violations)} relation(s) violated")
        lines.extend(_violation_lines(report.describe(p.m, p.n), "see uhfree verify --out"))
        raise _Failure(lines)


# -- subcommands ------------------------------------------------------------------

# What each subcommand returns: (exit code, report lines, --out payload or None).
# `main` writes the payload and prints the report.
Outcome = tuple[int, list[str], Optional[dict]]


def cmd_verify(args) -> Outcome:
    if args.pointwise is not None and args.pointwise < 0:
        # checked before any work, so no --out file is left behind
        raise PresentationError(
            f"--pointwise must be non-negative, got {args.pointwise}"
        )
    p = _load_presentation(args.file)
    lines = [f"presentation over sl({p.m}|{p.n}), grading {p.grading}"]
    report = verified_report(p)
    payload = {
        "ok": report.ok,
        "checked": report.checked,
        "violations": report.describe(p.m, p.n),
    }
    parity = parity_check(p) if p.is_graded() else None
    if parity is not None:
        payload["parity_ok"] = parity.ok
        payload["parity_failures"] = list(parity.failures)
    if not report.ok:
        lines.append(f"FAIL: {len(report.violations)} of {report.checked} relations violated")
        lines.extend(_violation_lines(payload["violations"], "see --out"))
        return 1, lines, payload
    lines.append(f"PASS: all {report.checked} generator relations hold")
    if parity is not None:
        if parity.ok:
            lines.append("PASS: grading flag consistent with matrix shapes")
        else:
            lines.append("FAIL: grading flag inconsistent")
            lines.extend("  " + t for t in parity.failures)
            return 1, lines, payload
    if args.pointwise is not None:
        sampled = pointwise_check(p, args.pointwise)
        verdict = "PASS" if sampled.ok else "FAIL"
        lines.append(
            f"{verdict}: pointwise cross-check on {sampled.checked} sampled identities"
        )
        if not sampled.ok:
            return 1, lines, payload
    return 0, lines, payload


def cmd_classify(args) -> Outcome:
    p = _load_presentation(args.file)
    lines = [f"presentation over sl({p.m}|{p.n}), grading {p.grading}", FIELD_NOTE]
    if p.n != 1:
        raise PresentationError(
            "classification applies to sl(m|1); see empty-check for m, n >= 2"
        )
    _require_verified(p, lines)
    names = _names(p)
    if p.m == 1:
        cls = classify_sl11(p)
        payload = {
            "class": f"class-{cls.label}",
            "witness": cls.witness.to_strings(names),
        }
        lines.append(f"class: class-{cls.label}")
    else:
        params, witness = classify_sl_m1(p)
        payload = params.to_dict()
        payload["normalized_a"] = [str(x) for x in params.normalized().a]
        payload["witness"] = witness.to_strings(names)
        lines.append(f"family parameters: {json.dumps(params.to_dict(), sort_keys=True)}")
        lines.append(
            "normalized (first parameter 1): "
            + json.dumps(payload["normalized_a"])
        )
    return 0, lines, payload


def cmd_iso(args) -> Outcome:
    src = _load_presentation(args.src)
    dst = _load_presentation(args.dst)
    lines = [FIELD_NOTE]
    for tag, p in (("left", src), ("right", dst)):
        if not verified_report(p).ok:
            lines.append(f"FAIL: {tag} presentation violates relations")
            raise _Failure(lines)
    category = resolve_category(src, dst, args.category)
    witness = iso_test(src, dst, category=category)
    if witness is None:
        lines.append(f"not isomorphic (category {category})")
        payload = {"isomorphic": False, "category": category}
        return (1 if args.expect_iso else 0), lines, payload
    payload = {
        "isomorphic": True,
        "category": category,
        "gamma": str(witness.gamma),
        "parity": witness.parity,
        "witness": witness.w.to_strings(_names(src)),
    }
    lines.append(
        f"isomorphic in {category} with gamma = {witness.gamma} ({witness.parity} witness)"
    )
    return 0, lines, payload


def cmd_endo(args) -> Outcome:
    p = _load_presentation(args.file)
    lines = [f"endomorphisms up to entry degree {args.bound}"]
    _require_verified(p, lines)
    names = _names(p)
    sols = endo_solutions(p, args.bound)
    basis = endo_ring_basis(p, args.bound)
    idems = idempotent_scan(p, args.bound)
    payload = {
        "solutions": [{"parity": s.parity, "matrix": s.w.to_strings(names)} for s in sols],
        "predicted_basis": [b.to_strings(names) for b in basis],
        "idempotents": [w.to_strings(names) for w in idems],
    }
    lines.append(f"solution space dimension: {len(sols)}")
    for s in payload["solutions"]:
        lines.append(f"  {s['parity']}: {s['matrix']}")
    lines.append(f"idempotents found: {len(idems)} (zero and identity expected)")
    return 0, lines, payload


def cmd_submodules(args) -> Outcome:
    p = _load_presentation(args.file)
    lines = []
    _require_verified(p, lines)
    names = _names(p)
    if p.m == 1 and p.n == 1:
        cls = classify_sl11(p)
        gen = parse_poly(args.gen, ("h1",))
        shapes = sl11_submodule_shape(cls.label, gen)
        payload = {
            "class": f"class-{cls.label}",
            "ideal_generator": format_poly(gen, ("h1",)),
            "shapes": [
                {
                    "label": s.label,
                    "generators": [
                        format_poly(s.g1, ("h1",)),
                        format_poly(s.g2, ("h1",)),
                    ],
                }
                for s in shapes
            ],
        }
        lines.append(f"class-{cls.label}; admissible submodule shapes for J = ({args.gen}):")
        for s in payload["shapes"]:
            g1, g2 = s["generators"]
            lines.append(f"  {s['label']}: {g1} Q[h] (+) {g2} Q[h]")
    else:
        lambdas = (
            [_rational(t) for t in args.lambdas.split(",")]
            if args.lambdas
            else [Fraction(k) for k in range(args.length)]
        )
        chain = filtration(lambdas, args.length)
        seps = filtration_separators(p, chain)
        payload = {
            # ascending coefficient vectors of the F_k
            "filtration": [
                [str(s.f.coeff((k,))) for k in range(max(s.f.total_degree(), 0) + 1)]
                for s in chain
            ],
            "separators": [
                [format_poly(v.f1, names), format_poly(v.f2, names)] for v in seps
            ],
        }
        lines.append(f"strict filtration of length {args.length}:")
        for k, s in enumerate(chain):
            lines.append(f"  F_{k} = {format_poly(s.f, ('X',))}")
        lines.append("each step separated by the recorded vector outside the next layer")
    return 0, lines, payload


def cmd_string_check(args) -> Outcome:
    variants = (1, 2) if args.variant == "both" else (int(args.variant),)
    lines = []
    payload = {}
    ok = True
    for v in variants:
        report = check_intertwining(v, args.n, args.max_deg)
        payload[f"variant{v}"] = {
            "ok": report.ok,
            "checked": report.checked,
            "failures": list(report.failures),
        }
        lines.append(
            f"variant {v}: {'PASS' if report.ok else 'FAIL'} "
            f"({report.checked} identities at N={args.n}, max degree {args.max_deg})"
        )
        ok = ok and report.ok
        if args.adjacency:
            module = StringModule(v, args.n)
            payload[f"variant{v}"]["adjacency"] = [
                list(t) for t in module.adjacency()
            ]
            for i, g, j in module.adjacency():
                lines.append(f"  u{i} -{g}-> u{j}")
    return (0 if ok else 1), lines, payload


def cmd_empty_check(args) -> Outcome:
    if args.verify:
        cert = certificate_from_json(_read_input(args.verify, EmptinessError))
        try:
            report = verify_certificate(cert)
        except EmptinessError as exc:
            raise _Failure([f"FAIL: {exc}"]) from None
        lines = [f"certificate for sl({cert.m}|{cert.n}) re-verified:"]
        lines.extend("  " + t for t in report)
        return 0, lines, None
    if args.m is None or args.n is None:
        raise EmptinessError("empty-check needs --m and --n (or --verify FILE)")
    cert = emptiness_certificate(args.m, args.n, graded=args.graded)
    names = cert.ring().names
    lines = [
        f"category of rank-2 modules over sl({cert.m}|{cert.n}) is empty",
        f"branch combinations examined: {len(cert.branch_log)}; "
        f"surviving to the final contradiction: 1",
        f"surviving branch: {json.dumps(cert.surviving_choices, sort_keys=True)}",
    ]
    for via, route in (("b1", cert.route_a), ("bn", cert.route_b)):
        lines.append(f"route through {via}:")
        lines.extend("    " + str(r) for r in route.num.to_strings(names))
        lines.append(f"  divided by unit monomial exponents {list(route.den)}")
    lines.append(
        f"support witness: {cert.support_witness['monomial']} "
        f"(variable {cert.support_witness['variable']})"
    )
    lines.append("branch log:")
    for outcome in cert.branch_log:
        choices = json.dumps(outcome.choices, sort_keys=True)
        if not outcome.stage1_equal:
            lines.append(f"  {choices}: routes for the raising even matrix differ")
        else:
            lines.append(
                f"  {choices}: survives to the lowering even matrix, "
                "whose two routes are non-proportional"
            )
    if cert.graded:
        lines.append("graded categories annotated empty as well")
    return 0, lines, cert.to_dict()


def cmd_canon_sl11(args) -> Outcome:
    p = _load_presentation(args.file)
    lines = [FIELD_NOTE]
    if (p.m, p.n) != (1, 1):
        raise PresentationError("canon-sl11 expects a presentation with m = n = 1")
    _require_verified(p, lines)
    cls = classify_sl11(p)
    names = ("h1",)
    payload = {
        "class": f"class-{cls.label}",
        "canonical": [mat.to_strings(names) for mat in cls.canonical],
        "witness": cls.witness.to_strings(names),
    }
    lines.append(f"class: class-{cls.label}")
    lines.append(f"canonical pair: {payload['canonical']}")
    lines.append(f"witness: {payload['witness']}")
    return 0, lines, payload


# -- driver -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uhfree",
        description="Exact computations with rank-2 U(h)-free modules over sl(m|n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write machine-readable JSON here")
        sp.add_argument(
            "--stamp",
            action="store_true",
            help="append a timestamp to the human report",
        )

    sp = sub.add_parser("verify", help="check the module relations of a presentation")
    sp.add_argument("file")
    sp.add_argument(
        "--pointwise",
        type=int,
        metavar="DEG",
        help="also sample the relations on monomial vectors up to this degree",
    )
    common(sp)

    sp = sub.add_parser("classify", help="classify a verified sl(m|1) presentation")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("iso", help="decide isomorphism of two presentations")
    sp.add_argument("src")
    sp.add_argument("dst")
    sp.add_argument(
        "--category",
        default="auto",
        choices=["auto", "M2", "M11", "M11even"],
        help="morphism category (default: graded-even for graded inputs)",
    )
    sp.add_argument("--expect-iso", action="store_true")
    common(sp)

    sp = sub.add_parser("endo", help="endomorphism space and idempotents")
    sp.add_argument("file")
    sp.add_argument("--bound", type=int, default=4, help="entry degree bound")
    common(sp)

    sp = sub.add_parser("submodules", help="filtrations / submodule shapes")
    sp.add_argument("file")
    sp.add_argument("--length", type=int, default=10)
    sp.add_argument("--lambdas", help="comma-separated rational roots")
    sp.add_argument("--gen", default="h1", help="ideal generator for rank-2 sl(1|1)")
    common(sp)

    sp = sub.add_parser("string-check", help="string-module intertwining check")
    sp.add_argument("--variant", default="both", choices=["1", "2", "both"])
    sp.add_argument("--N", dest="n", type=int, default=25)
    sp.add_argument("--max-deg", type=int, default=10)
    sp.add_argument("--adjacency", action="store_true", help="emit the arrow diagram")
    common(sp)

    sp = sub.add_parser("empty-check", help="emptiness certificates for m, n >= 2")
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--graded", action="store_true")
    sp.add_argument("--verify", help="re-verify a stored certificate")
    common(sp)

    sp = sub.add_parser("canon-sl11", help="canonical form of an sl(1|1) presentation")
    sp.add_argument("file")
    common(sp)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the handler cmd_<command> is looked up per call, not kept in the parser
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code, lines, payload = command(args)
        if args.out and payload is not None:
            Path(args.out).write_text(dump_json(payload))
    except _Failure as exc:
        print("\n".join(exc.lines))
        return 1
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a directory or an unreadable file given as input or --out
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except UhfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.stamp:
        lines.append(f"generated: {datetime.now(timezone.utc).isoformat()}")
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
