"""Command-line interface.

Subcommands: verify, classify, iso, endo, submodules, string-check,
empty-check, canon-sl11.  Human-readable reports go to stdout; machine
output (deterministic JSON, no timestamps) goes to --out.  Exit codes:
0 for pass/success verdicts, 1 for fail verdicts, 2 for usage, file, or
grammar errors.

Only poly and mat2 load with this module; the layers above them load on
first use, so a process compiles only what its subcommand runs:
presentation (with superlie) for every command that reads a presentation
and for string-check; normalform, which owns the relation verdict, for
verify, classify and canon-sl11; morphisms for iso, endo and submodules;
stringbridge for string-check; emptiness (with superlie) for empty-check.
Likewise a request's parser holds only the invoked subcommand's
subparser and prints that subcommand's help and parse errors itself; the
full parser, with all eight, is built only when no known subcommand is
named.  A request that names one is parsed in one argparse pass, by that
subcommand's subparser alone; the one-command parser parses it again
only to print an "unrecognized arguments" error.  A successful parse
depends on the argv alone, so main keeps it per process for each
distinct argv and hands every call a copy; help and parse errors exit
and are never kept, so they print afresh on every call.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .mat2 import PresentationError, dump_json
from .poly import UhfreeError, default_names, format_poly, format_rational, parse_poly


def _lazy(name: str):
    """The module uhfree.<name>, executed on its first attribute access.

    A module already imported is returned as it is, so a caller that
    imported and patched it before importing cli patches the copy cli uses.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


presentation = _lazy("presentation")
normalform = _lazy("normalform")
morphisms = _lazy("morphisms")
stringbridge = _lazy("stringbridge")
emptiness = _lazy("emptiness")

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


def _load_presentation(path: str) -> presentation.Presentation:
    return presentation.presentation_from_json(_read_input(path, PresentationError))


# an integer, p/q or a decimal; not 1e<k>, for which Fraction builds 10**k however large
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?\s*")


def _rational(text: str) -> Fraction:
    """A --lambdas entry that matches _RATIONAL; anything else exits 2."""
    try:
        if _RATIONAL.fullmatch(text):
            return Fraction(text)
    except ValueError:  # it matches, so a part has more digits than int() converts
        limit = sys.get_int_max_str_digits()
        raise morphisms.MorphismError(f"--lambdas: an entry has more than {limit} digits") from None
    except ZeroDivisionError:
        pass
    raise morphisms.MorphismError(f"--lambdas: {text!r} is not a rational number")


def _names(p: presentation.Presentation):
    return default_names(p.nvars, p.m)


def _violation_lines(texts: list[str], rest: str) -> list[str]:
    """Indented lines for the first MAX_SHOWN_VIOLATIONS texts, then a count of the rest."""
    shown = presentation.MAX_SHOWN_VIOLATIONS
    lines = ["  " + t for t in texts[:shown]]
    if len(texts) > shown:
        lines.append(f"  ... and {len(texts) - shown} more ({rest})")
    return lines


def _require_verified(p: presentation.Presentation, lines: list[str], side: str = "") -> None:
    """Fail (exit 1) with the violation count and list unless p satisfies the relations."""
    report = normalform.verified_report(p)
    if not report.ok:
        where = f"{side} presentation: " if side else ""
        lines.append(f"FAIL: {where}{len(report.violations)} relation(s) violated")
        lines.extend(_violation_lines(report.describe(p.m, p.n), "see uhfree verify --out"))
        raise _Failure(lines)


# -- subcommands ------------------------------------------------------------------

# What each subcommand returns: (exit code, report lines, --out payload or None).
# `main` writes the payload, as it is if it is already text, and prints the report.
Outcome = tuple[int, list[str], Optional[dict | str]]


def cmd_verify(args) -> Outcome:
    if args.pointwise is not None and args.pointwise < 0:
        # checked before any work, so no --out file is left behind
        raise PresentationError(
            f"--pointwise must be non-negative, got {args.pointwise}"
        )
    p = _load_presentation(args.file)
    if args.pointwise is not None:
        presentation.check_pointwise_budget(p, args.pointwise)
    lines = [f"presentation over sl({p.m}|{p.n}), grading {p.grading}"]
    report = normalform.verified_report(p)
    payload = {
        "ok": report.ok,
        "checked": report.checked,
        "violations": report.describe(p.m, p.n),
    }
    parity = presentation.parity_check(p) if p.is_graded() else None
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
        sampled = presentation.pointwise_check(p, args.pointwise)
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
        # empty-check takes m, n >= 2 only
        hint = "; see empty-check for m, n >= 2" if p.m >= 2 else ""
        raise PresentationError(f"classification applies to sl(m|1){hint}")
    _require_verified(p, lines)
    names = _names(p)
    if p.m == 1:
        cls = normalform.classify_sl11(p)
        payload = {
            "class": f"class-{cls.label}",
            "witness": cls.witness.to_strings(names),
        }
        lines.append(f"class: class-{cls.label}")
    else:
        params, witness = normalform.classified_sl_m1(p)
        payload = params.to_dict()
        payload["normalized_a"] = [format_rational(x) for x in params.normalized().a]
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
    _require_verified(src, lines, "left")
    _require_verified(dst, lines, "right")
    category = morphisms.resolve_category(src, dst, args.category)
    witness = morphisms.iso_test(src, dst, category=category)
    if witness is None:
        lines.append(f"not isomorphic (category {category})")
        payload = {"isomorphic": False, "category": category}
        return (1 if args.expect_iso else 0), lines, payload
    payload = {
        "isomorphic": True,
        "category": category,
        "gamma": format_rational(witness.gamma),
        "parity": witness.parity,
        "witness": witness.w.to_strings(_names(src)),
    }
    lines.append(
        f"isomorphic in {category} with gamma = {payload['gamma']} ({witness.parity} witness)"
    )
    return 0, lines, payload


def cmd_endo(args) -> Outcome:
    p = _load_presentation(args.file)
    lines = [f"endomorphisms up to entry degree {args.bound}"]
    _require_verified(p, lines)
    # the frame that endo_ring_basis reads exists over sl(m|1) only: refuse before the solve
    morphisms.check_sl_m1(p)
    names = _names(p)
    sols = morphisms.solve_hom(p, p, args.bound)
    basis = morphisms.endo_ring_basis(p, args.bound)
    idems = morphisms.idempotent_scan(p, sols)
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
    sl11 = (p.m, p.n) == (1, 1)
    # --gen is read for sl(1|1) only, --length and --lambdas for every other input
    given = {"--gen": args.gen, "--length": args.length, "--lambdas": args.lambdas}
    unread = [
        opt for opt, value in given.items() if value is not None and (opt == "--gen") != sl11
    ]
    if unread:
        raise morphisms.MorphismError(
            f"submodules on sl({p.m}|{p.n}) takes no {' or '.join(unread)}"
        )
    lines = []
    _require_verified(p, lines)
    names = _names(p)
    if sl11:
        cls = normalform.classify_sl11(p)
        gen_text = "h1" if args.gen is None else args.gen
        gen = parse_poly(gen_text, ("h1",))
        shapes = morphisms.sl11_submodule_shape(cls.label, gen)
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
        lines.append(f"class-{cls.label}; admissible submodule shapes for J = ({gen_text}):")
        for s in payload["shapes"]:
            g1, g2 = s["generators"]
            lines.append(f"  {s['label']}: {g1} Q[h] (+) {g2} Q[h]")
    else:
        length = 10 if args.length is None else args.length
        morphisms.check_filtration_budget(p, length)
        lambdas = (
            [_rational(t) for t in args.lambdas.split(",")]
            if args.lambdas is not None
            else [Fraction(k) for k in range(length)]
        )
        chain = morphisms.filtration(lambdas, length)
        seps = morphisms.filtration_separators(p, chain)
        payload = {
            # ascending coefficient vectors of the F_k
            "filtration": [
                [format_rational(f.coeff((k,))) for k in range(max(f.total_degree(), 0) + 1)]
                for f in chain
            ],
            "separators": [
                [format_poly(v[0, 0], names), format_poly(v[1, 0], names)] for v in seps
            ],
        }
        lines.append(f"strict filtration of length {length}:")
        for k, f in enumerate(chain):
            lines.append(f"  F_{k} = {format_poly(f, ('X',))}")
        lines.append("each step separated by the recorded vector outside the next layer")
    return 0, lines, payload


def cmd_string_check(args) -> Outcome:
    stringbridge.check_string_budget(args.n, args.max_deg, args.adjacency)
    variants = (1, 2) if args.variant == "both" else (int(args.variant),)
    lines = []
    payload = {}
    ok = True
    for v in variants:
        report = stringbridge.check_intertwining(v, args.n, args.max_deg)
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
            arrows = stringbridge.StringModule(v, args.n).adjacency()
            payload[f"variant{v}"]["adjacency"] = [list(t) for t in arrows]
            lines.extend(f"  u{i} -{g}-> u{j}" for i, g, j in arrows)
    return (0 if ok else 1), lines, payload


def cmd_empty_check(args) -> Outcome:
    if args.verify is not None:
        given = [opt for opt, value in (("--m", args.m), ("--n", args.n)) if value is not None]
        if args.graded:
            given.append("--graded")
        if given:
            raise emptiness.EmptinessError(
                f"--verify takes no {' or '.join(given)}: "
                "the certificate gives m, n and the grading"
            )
        text = _read_input(args.verify, emptiness.EmptinessError)
    elif args.m is None or args.n is None:
        raise emptiness.EmptinessError("empty-check needs --m and --n (or --verify FILE)")
    # generation runs the verification checks too, so both branches can fail one
    try:
        if args.verify is None:
            text, lines = emptiness.certificate_text(args.m, args.n, graded=args.graded)
            return 0, lines, text
        m, n, report = emptiness.verify_text(text)
    except emptiness.CertificateRejected as exc:
        raise _Failure([f"FAIL: {exc}"]) from None
    lines = [f"certificate for sl({m}|{n}) re-verified:"]
    lines.extend("  " + t for t in report)
    return 0, lines, None


def cmd_canon_sl11(args) -> Outcome:
    p = _load_presentation(args.file)
    lines = [FIELD_NOTE]
    if (p.m, p.n) != (1, 1):
        raise PresentationError("canon-sl11 expects a presentation with m = n = 1")
    _require_verified(p, lines)
    cls = normalform.classify_sl11(p)
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


# Each subcommand's help and its arguments, as (name or flag, add_argument keywords).
SUBCOMMANDS = {
    "verify": ("check the module relations of a presentation", (
        ("file", {}),
        ("--pointwise", {
            "type": int,
            "metavar": "DEG",
            "help": "also sample the relations on monomial vectors up to this degree",
        }),
    )),
    "classify": ("classify a verified sl(m|1) presentation", (("file", {}),)),
    "iso": ("decide isomorphism of two presentations", (
        ("src", {}),
        ("dst", {}),
        ("--category", {
            "default": "auto",
            "choices": ["auto", "M2", "M11", "M11even"],
            "help": "morphism category (default: graded-even for graded inputs)",
        }),
        ("--expect-iso", {"action": "store_true"}),
    )),
    "endo": ("endomorphism space and idempotents", (
        ("file", {}),
        ("--bound", {"type": int, "default": 4, "help": "entry degree bound"}),
    )),
    "submodules": ("filtrations / submodule shapes", (
        ("file", {}),
        ("--length", {"type": int, "help": "filtration length (default 10; not for sl(1|1))"}),
        ("--lambdas", {"help": "comma-separated rational roots (not for sl(1|1))"}),
        ("--gen", {"help": "ideal generator for rank-2 sl(1|1) (default h1)"}),
    )),
    "string-check": ("string-module intertwining check", (
        ("--variant", {"default": "both", "choices": ["1", "2", "both"]}),
        ("--N", {"dest": "n", "type": int, "default": 25}),
        ("--max-deg", {"type": int, "default": 10}),
        ("--adjacency", {"action": "store_true", "help": "emit the arrow diagram"}),
    )),
    "empty-check": ("emptiness certificates for m, n >= 2", (
        ("--m", {"type": int}),
        ("--n", {"type": int}),
        ("--graded", {"action": "store_true"}),
        ("--verify", {"help": "re-verify a stored certificate"}),
    )),
    "canon-sl11": ("canonical form of an sl(1|1) presentation", (("file", {}),)),
}

# taken by every subcommand, after its own arguments
COMMON_ARGUMENTS = (
    ("--out", {"help": "write machine-readable JSON here"}),
    ("--stamp", {"action": "store_true", "help": "append a timestamp to the human report"}),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The uhfree parser; given a command, it holds that subcommand's parser only.

    A one-command parser names all subcommands in its usage line, so its
    help and its errors print as the full parser's do.  Its `commands`
    attribute maps each subcommand it holds to that subcommand's parser.
    """
    parser = argparse.ArgumentParser(
        prog="uhfree",
        description="Exact computations with rank-2 U(h)-free modules over sl(m|n).",
    )
    # the full parser's own errors name `command`, so only the other one takes a metavar
    metavar = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    parser.commands = {}
    for name, (text, arguments) in SUBCOMMANDS.items():
        if command in (None, name):
            sp = parser.commands[name] = sub.add_parser(name, help=text)
            for flag, options in arguments + COMMON_ARGUMENTS:
                sp.add_argument(flag, **options)
    return parser


@functools.cache
def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The process's one parser per command; parse_args leaves it unchanged."""
    return build_parser(command)


def _parse_args(argv) -> argparse.Namespace:
    """Parse with the invoked subcommand's parser alone, in one argparse pass.

    The tokens after the command go straight to its subparser, as the
    one-command parser's subparsers action would hand them on; only when
    some are left over does that parser run, to print its "unrecognized
    arguments" error.  The full parser handles no command or an unknown one.
    """
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    parser = _parser(command)
    if command is not None:
        args, extras = parser.commands[command].parse_known_args(
            argv[1:], argparse.Namespace(command=command)
        )
        if not extras:
            return args
    return parser.parse_args(argv)


@functools.lru_cache(maxsize=128)
def _parsed(argv: tuple) -> argparse.Namespace:
    """_parse_args' namespace for argv, kept; a SystemExit is raised, never kept."""
    return _parse_args(argv)


def main(argv=None) -> int:
    # a copy, so that a handler cannot alter the kept namespace
    args = argparse.Namespace(**vars(_parsed(tuple(sys.argv[1:] if argv is None else argv))))
    # the handler cmd_<command> is looked up per call, not kept in the parser
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code, lines, payload = command(args)
        if args.out is not None and payload is not None:
            Path(args.out).write_text(payload if type(payload) is str else dump_json(payload))
        if args.stamp:
            from datetime import datetime, timezone

            lines.append(f"generated: {datetime.now(timezone.utc).isoformat()}")
    except _Failure as exc:
        code, lines = 1, exc.lines
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
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`uhfree verify ... | head -1`); point
        # stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
