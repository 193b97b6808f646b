"""Per-layer tracing installed from outside the program.

The tracer wraps the public functions of each uhfree layer wherever they
are bound: modules import helpers with ``from ... import``, so a name is
patched in every ``uhfree.*`` module and class that holds the same
object.  Layer calls (verification, classification, hom solving,
certificates, ...) are recorded as spans; the hot polynomial and bracket
methods only feed aggregated counters.  Both share one stack, so every
wrapped call reports its self time: its duration minus the time covered
by the wrapped calls it made.  Everything stays in memory until export.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (stat name, dotted path inside uhfree, records a span).  Stats that no
# per-layer metric reports still take their self time out of the caller's;
# every poly.* stat adds to poly.self_s.
TARGETS = (
    ("presentation.verify", "presentation.verify_relations", True),
    ("presentation.parse", "presentation.presentation_from_json", True),
    ("presentation.conjugate", "presentation.conjugate", True),
    ("presentation.derive_even", "presentation.derive_even", False),
    ("normalform.classify", "normalform.classify_sl_m1", True),
    ("normalform.classify", "normalform.classify_sl11", True),
    ("normalform.canonicalize", "normalform.canonicalize_pair", True),
    ("morphisms.iso", "morphisms.iso_test", True),
    ("morphisms.solve_hom", "morphisms.solve_hom", True),
    ("morphisms.check_intertwiner", "morphisms.check_intertwiner", True),
    ("morphisms.endo", "morphisms.idempotent_scan", True),
    ("morphisms.endo", "morphisms.endo_ring_basis", True),
    ("morphisms.submodules", "morphisms.filtration", True),
    ("morphisms.submodules", "morphisms.filtration_separators", True),
    ("stringbridge.check", "stringbridge.check_intertwining", True),
    ("emptiness.certificate", "emptiness.emptiness_certificate", True),
    ("emptiness.verify", "emptiness.verify_certificate", True),
    ("superlie.bracket", "superlie.SuperAlgebra.super_bracket", False),
    ("superlie.weight_shift", "superlie.SuperAlgebra.weight_shift", False),
    ("poly.mul", "poly.Poly.__mul__", False),
    ("poly.add", "poly.Poly.__add__", False),
    ("poly.sub", "poly.Poly.__sub__", False),
    ("poly.sub", "poly.Poly.__rsub__", False),
    ("poly.neg", "poly.Poly.__neg__", False),
    ("poly.pow", "poly.Poly.__pow__", False),
    ("poly.evaluate", "poly.Poly.evaluate", False),
    ("poly.shift", "poly.apply_shift", False),
    ("poly.gcd", "poly.poly_gcd", False),
    ("poly.divide", "poly.divides_exactly", False),
    ("poly.compose", "poly.compose_univariate", False),
    ("poly.parse", "poly.parse_poly", False),
    ("poly.format", "poly.format_poly", False),
)


def _resolve(path: str):
    module, _, attr = path.rpartition(".")
    owner = sys.modules.get(f"uhfree.{module}")
    if owner is None:
        # class attribute: uhfree.<module>.<Class>.<name>
        module, _, cls = module.rpartition(".")
        owner = getattr(sys.modules[f"uhfree.{module}"], cls)
    return owner.__dict__[attr]


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Spans and counters for one process; install() patches, uninstall() restores."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple] = []  # (request, span id, parent id, name, start, end)
        # frames: [time covered by children, id of the innermost span]
        self.stack: list[list] = [[0.0, 0]]
        self.request_id = 0
        self.next_span = 1
        self.patches: list[tuple] = []
        self.new_calls = 0
        self.peak_terms = 0
        self.peak_degree = 0
        self.bracket_keys: set = set()
        self.shift_keys: set = set()
        self.relations = 0
        self.verify_repeats = 0
        self.verified: list = []
        self.branches = 0

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool, after=None):
        stat = self.stats[name]
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                sid = tracer.next_span
                tracer.next_span += 1
                stack.append([0.0, sid])
            else:
                stack.append([0.0, parent[1]])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()[0]
                d = t1 - t0
                stat.calls += 1
                stat.self_s += d - child
                parent[0] += d
                if span:
                    spans.append((tracer.request_id, sid, parent[1], name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_verify(self, args, report):
        self.relations += report.checked
        p = args[0]
        if any(p is q or p == q for q in self.verified):
            self.verify_repeats += 1
        else:
            self.verified.append(p)

    def _after_certificate(self, args, cert):
        self.branches += len(cert.branch_log)

    def _after_bracket(self, args, result):
        alg, b1, b2 = args
        self.bracket_keys.add((alg.m, alg.n, b1, b2))

    def _after_shift(self, args, result):
        alg, b = args
        self.shift_keys.add((alg.m, alg.n, b))

    def _after_mul(self, args, result):
        terms = getattr(result, "terms", None)
        if terms:
            d = max(map(sum, terms))
            if d > self.peak_degree:
                self.peak_degree = d

    def _counting_init(self, init):
        tracer = self

        def __init__(poly, nvars, terms):
            init(poly, nvars, terms)
            tracer.new_calls += 1
            n = len(poly.terms)
            if n > tracer.peak_terms:
                tracer.peak_terms = n

        __init__.__wrapped__ = init
        return __init__

    def _patch_everywhere(self, original, replacement) -> None:
        from uhfree import poly, superlie

        owners = [mod for key, mod in list(sys.modules.items()) if key.startswith("uhfree") and mod]
        owners += [poly.Poly, superlie.SuperAlgebra]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self.patches.append((owner, attr, value))
                    setattr(owner, attr, replacement)

    def install(self) -> None:
        from uhfree import poly

        hooks = {
            "presentation.verify": self._after_verify,
            "emptiness.certificate": self._after_certificate,
            "superlie.bracket": self._after_bracket,
            "superlie.weight_shift": self._after_shift,
            "poly.mul": self._after_mul,
        }
        for name, path, span in TARGETS:
            original = _resolve(path)
            self._patch_everywhere(original, self._wrap(name, original, span, hooks.get(name)))
        self._patch_everywhere(poly.Poly.__init__, self._counting_init(poly.Poly.__init__))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.patches):
            setattr(owner, attr, value)
        self.patches.clear()

    # -- requests ------------------------------------------------------------------

    def request(self, main, argv):
        """Run one CLI request as the root span; returns main's result."""
        self.request_id += 1
        self.verified = []
        self.stack[:] = [[0.0, 0]]
        try:
            return self._wrap("cli.main", main, True)(argv)
        finally:
            self.stack[:] = [[0.0, 0]]

    # -- export ----------------------------------------------------------------------

    def export(self) -> dict:
        """Plain-data summary; summaries of several processes merge with merge()."""
        return {
            "stats": {k: [s.calls, s.self_s] for k, s in self.stats.items()},
            "new_calls": self.new_calls,
            "peak_terms": self.peak_terms,
            "peak_degree": self.peak_degree,
            "bracket_distinct": len(self.bracket_keys),
            "shift_distinct": len(self.shift_keys),
            "relations": self.relations,
            "verify_repeats": self.verify_repeats,
            "branches": self.branches,
            "spans": len(self.spans),
        }


def merge(summaries) -> dict:
    """Sum the counters of several summaries; peaks take the maximum."""
    out: dict = {"stats": {}}
    for s in summaries:
        for k, (calls, self_s) in s["stats"].items():
            c0, s0 = out["stats"].get(k, (0, 0.0))
            out["stats"][k] = (c0 + calls, s0 + self_s)
        for k, v in s.items():
            if k == "stats":
                continue
            out[k] = max(out.get(k, 0), v) if k.startswith("peak") else out.get(k, 0) + v
    return out


def layer_metrics(summary: dict, scale: float = 1.0) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json, from a (merged) summary.

    Self times are multiplied by `scale`.
    """
    stats = summary["stats"]

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def self_s(name):
        return scale * stats.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "superlie.bracket.calls": calls("superlie.bracket"),
        "superlie.bracket.self_s": self_s("superlie.bracket"),
        "superlie.bracket.distinct_ratio": ratio(summary.get("bracket_distinct", 0), calls("superlie.bracket")),
        "superlie.weight_shift.calls": calls("superlie.weight_shift"),
        "superlie.weight_shift.distinct_ratio": ratio(
            summary.get("shift_distinct", 0), calls("superlie.weight_shift")
        ),
        "presentation.verify.calls": calls("presentation.verify"),
        "presentation.verify.self_s": self_s("presentation.verify"),
        "presentation.verify.relations": summary.get("relations", 0),
        "presentation.verify.repeat_ratio": ratio(summary.get("verify_repeats", 0), calls("presentation.verify")),
        "presentation.parse.self_s": self_s("presentation.parse"),
        "presentation.conjugate.self_s": self_s("presentation.conjugate"),
        "presentation.derive_even.calls": calls("presentation.derive_even"),
        "normalform.classify.calls": calls("normalform.classify"),
        "normalform.classify.self_s": self_s("normalform.classify"),
        "normalform.canonicalize.self_s": self_s("normalform.canonicalize"),
        "morphisms.iso.self_s": self_s("morphisms.iso"),
        "morphisms.solve_hom.self_s": self_s("morphisms.solve_hom"),
        "morphisms.check_intertwiner.calls": calls("morphisms.check_intertwiner"),
        "emptiness.certificate.self_s": self_s("emptiness.certificate"),
        "emptiness.verify.self_s": self_s("emptiness.verify"),
        "emptiness.branches": summary.get("branches", 0),
        "poly.evaluate.calls": calls("poly.evaluate"),
        "poly.evaluate.self_s": self_s("poly.evaluate"),
        "poly.mul.calls": calls("poly.mul"),
        "poly.mul.self_s": self_s("poly.mul"),
        "poly.shift.calls": calls("poly.shift"),
        "poly.shift.self_s": self_s("poly.shift"),
        "poly.gcd.calls": calls("poly.gcd"),
        "poly.new.calls": summary.get("new_calls", 0),
        "poly.self_s": scale * sum(s for k, (_, s) in stats.items() if k.startswith("poly.")),
        "poly.peak_terms": summary.get("peak_terms", 0),
        "poly.peak_degree": summary.get("peak_degree", 0),
        "stringbridge.check.self_s": self_s("stringbridge.check"),
        "cli.main.self_s": self_s("cli.main"),
    }
