"""Seeded request cycles for the benchmark, each request with the answer it must get.

Presentations are built here with a small exact polynomial helper of the
benchmark's own, so the input files and their ground truth never pass
through the program under test.  A cycle is a fixed mix of request slots;
the seed and the cycle index decide every parameter inside the slots (the
family parameters a and S, the conjugating matrix, which inputs are
perturbed or tampered), so the same seed gives the same requests and every
cycle carries the same mix.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional

# -- exact polynomials: {exponent tuple: nonzero Fraction} -------------------------


def p_const(nv: int, c) -> dict:
    c = Fraction(c)
    return {(0,) * nv: c} if c else {}


def p_var(nv: int, i: int, c=1) -> dict:
    exps = tuple(1 if j == i else 0 for j in range(nv))
    return {exps: Fraction(c)}


def p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_scale(a: dict, c) -> dict:
    c = Fraction(c)
    return {e: v * c for e, v in a.items()} if c else {}


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def p_shift(a: dict, s: tuple) -> dict:
    """The substitution h_v -> h_v - s_v, expanded binomially."""
    out: dict = {}
    for exps, c in a.items():
        partial = {(): c}
        for e, sv in zip(exps, s):
            nxt: dict = {}
            for pre, pc in partial.items():
                for k in range(e + 1):
                    coef = comb(e, k) * (-sv) ** (e - k)
                    if coef:
                        key = pre + (k,)
                        nxt[key] = nxt.get(key, 0) + pc * coef
            partial = nxt
        for e, v in partial.items():
            out[e] = out.get(e, 0) + v
    return {e: c for e, c in out.items() if c}


def p_format(a: dict, names) -> str:
    """The documented canonical text: graded-lex descending, h1 largest."""
    if not a:
        return "0"
    pieces = []
    for k, (exps, c) in enumerate(sorted(a.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)):
        sign = ("-" if c < 0 else "") if k == 0 else (" - " if c < 0 else " + ")
        mag = abs(c)
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(sign + body)
    return "".join(pieces)


# 2x2 matrices are ((p00, p01), (p10, p11)).


def m_mul(x, y):
    return tuple(
        tuple(p_add(p_mul(x[r][0], y[0][c]), p_mul(x[r][1], y[1][c])) for c in range(2))
        for r in range(2)
    )


def m_shift(x, s):
    return tuple(tuple(p_shift(q, s) for q in row) for row in x)


def m_scale(x, c):
    return tuple(tuple(p_scale(q, c) for q in row) for row in x)


def weight_shift(m: int, n: int, row: int, col: int) -> tuple:
    """Shift vector of the root vector e at (row, col) of sl(m|n).

    The Cartan element h_v is e_vv + e_{bn,bn} for v < m and e_vv + e_mm
    for a barred v; root vector e_IJ acts with h_v -> h_v - (d_v[I] - d_v[J]).
    """
    dim = m + n
    shifts = []
    for v in range(dim - 1):
        pair = (v, dim - 1) if v < m else (v, m - 1)
        shifts.append(int(row in pair) - int(col in pair))
    return tuple(shifts)


# -- the M(a, S) family and its conjugates -------------------------------------------


def family_matrices(m: int, a, s, bar: bool) -> dict:
    """Odd generator matrices of M(a, S), or of Mbar(a, S) when bar is set."""
    mats = {}
    for i in range(1, m + 1):
        hi = p_var(m, i - 1)
        ai = Fraction(a[i - 1])
        if i in s:
            big, small = p_scale(hi, ai), p_const(m, 1 / ai)
        else:
            big, small = p_const(m, ai), p_scale(hi, 1 / ai)
        upper = ((p_const(m, 0), big), ({}, {}))
        lower = (({}, {}), (small, {}))
        if bar:
            upper = (({}, {}), (big, {}))
            lower = (({}, small), ({}, {}))
        mats[(i - 1, m)] = upper
        mats[(m, i - 1)] = lower
    return mats


def random_unimodular(rng: random.Random, nv: int, degree: int):
    """A unimodular W whose entries have the given degree (0, 1 or 2).

    W = D, D * L or D * L * U, with D constant diagonal and L, U
    elementary with one linear off-diagonal entry c * h_j + d, j = 1 in L
    and j = m in U.  Only the constants are random: which variables occur
    changes the cost of a request, and the mix should cost the same for
    every seed.
    """
    c1, c2 = (rng.choice((1, 2, 3, -1, -2)) for _ in range(2))
    w = ((p_const(nv, c1), {}), ({}, p_const(nv, c2)))
    one = p_const(nv, 1)
    for k in range(degree):
        j = 0 if k == 0 else nv - 1
        f = p_add(p_var(nv, j, rng.choice((1, -1, 2, -2))), p_const(nv, rng.choice((1, -1, 2))))
        elementary = ((one, {}), (f, one)) if k == 0 else ((one, f), ({}, one))
        w = m_mul(w, elementary)
    return w


def inverse_unimodular(w):
    (a, b), (c, d) = w
    det = p_add(p_mul(a, d), p_scale(p_mul(b, c), -1))
    if len(det) != 1 or any(next(iter(det))):
        raise ValueError("not unimodular")
    inv = 1 / next(iter(det.values()))
    return ((p_scale(d, inv), p_scale(b, -inv)), (p_scale(c, -inv), p_scale(a, inv)))


@dataclass
class Module:
    """A generated presentation with the facts known about it by construction."""

    m: int
    a: tuple
    s: frozenset
    bar: bool
    graded: bool
    perturbed: bool
    text: str


def make_module(rng: random.Random, m: int, a, s, bar: bool, degree: int, perturb: bool) -> Module:
    """Conjugate of M(a, S) / Mbar(a, S) by a random unimodular W: E -> W^-1 E tau(W).

    A constant diagonal W keeps the grading; any other W leaves an
    ungraded presentation.  A perturbed module has one odd generator
    scaled by c != 1, which breaks its bracket with the partner generator
    (that bracket is a nonzero Cartan element).
    """
    w = random_unimodular(rng, m, degree)
    winv = inverse_unimodular(w)
    names = tuple(f"h{i + 1}" for i in range(m))
    mats = family_matrices(m, a, s, bar)
    keys = sorted(mats)
    bad = keys[rng.randrange(len(keys))] if perturb else None
    out = {}
    for (row, col), mat in mats.items():
        conj = m_mul(m_mul(winv, mat), m_shift(w, weight_shift(m, 1, row, col)))
        if (row, col) == bad:
            conj = m_scale(conj, rng.choice((2, 3, -1, Fraction(1, 2))))
        label = f"e[{row + 1},b1]" if row < m else f"e[b1,{col + 1}]"
        out[label] = [[p_format(q, names) for q in r] for r in conj]
    graded = degree == 0
    doc = {
        "format": "uhfree-presentation/1",
        "m": m,
        "n": 1,
        "grading": ("g11bar" if bar else "g11") if graded else "ungraded",
        "E": out,
    }
    return Module(m, tuple(a), frozenset(s), bar, graded, perturb, json.dumps(doc, indent=2, sort_keys=True))


def random_params(rng: random.Random, m: int):
    a = tuple(
        Fraction(rng.choice((1, 2, 3, 4, 5, 7)) * rng.choice((1, -1)), rng.choice((1, 1, 2, 3)))
        for _ in range(m)
    )
    s = frozenset(i for i in range(1, m + 1) if rng.random() < 0.5)
    return a, s


# -- requests -----------------------------------------------------------------------


@dataclass
class Request:
    """One CLI invocation; argv names its files (in.json, out.json, ...) by bare name.

    check(exit_code, payload) returns None when the answer is right and a
    short description of the mismatch otherwise; payload is the parsed
    --out JSON or None when no --out file was written.
    """

    command: str
    argv: list
    files: dict
    check: Callable[[int, Optional[object]], Optional[str]]
    deterministic: bool = True
    mutate: Optional[Callable[[str], str]] = None


def _expect(cond: bool, what: str) -> Optional[str]:
    return None if cond else what


def _perturbed_check(code, payload):
    return _expect(code == 1 and payload is None, f"perturbed input gave exit {code}")


def verify_request(mod: Module) -> Request:
    roots = (mod.m + 1) * mod.m
    relations = roots * (roots + 1) // 2

    def check(code, payload):
        if payload is None:
            return "no --out payload"
        if mod.perturbed:
            return _expect(code == 1 and payload["ok"] is False and payload["violations"],
                           f"perturbed presentation: exit {code}, ok {payload.get('ok')}")
        if code != 0 or payload["ok"] is not True or payload["violations"]:
            return f"valid presentation rejected (exit {code})"
        if payload["checked"] != relations:
            return f"checked {payload['checked']} relations, expected {relations}"
        if mod.graded and payload.get("parity_ok") is not True:
            return "graded presentation failed its parity check"
        return None

    return Request("verify", ["verify", "in.json", "--out", "out.json"], {"in.json": mod.text}, check)


def _normalized(a) -> list:
    return [str(x / a[0]) for x in a]


def classify_request(mod: Module) -> Request:
    def check(code, payload):
        if mod.perturbed:
            return _perturbed_check(code, payload)
        if code != 0 or payload is None:
            return f"classify exit {code}"
        if mod.m == 1:
            want = "class-2" if mod.s else "class-1"
            return _expect(payload["class"] == want, f"class {payload['class']} != {want}")
        if payload["S"] != sorted(mod.s):
            return f"S {payload['S']} != {sorted(mod.s)}"
        if payload["normalized_a"] != _normalized(mod.a):
            return f"normalized a {payload['normalized_a']} != {_normalized(mod.a)}"
        want_bar = mod.bar and mod.graded
        return _expect(payload["bar"] is want_bar, f"bar {payload['bar']} != {want_bar}")

    return Request("classify", ["classify", "in.json", "--out", "out.json"], {"in.json": mod.text}, check)


def iso_request(src: Module, dst: Module) -> Request:
    category = "M11even" if src.graded and dst.graded else "M2"
    ratio = src.a[0] / dst.a[0]
    proportional = all(x == ratio * y for x, y in zip(src.a, dst.a))
    iso = src.s == dst.s and proportional and (category == "M2" or src.bar == dst.bar)

    def check(code, payload):
        if src.perturbed or dst.perturbed:
            return _perturbed_check(code, payload)
        if payload is None:
            return f"iso exit {code} without payload"
        if payload["isomorphic"] is not iso or payload["category"] != category:
            return f"iso verdict {payload['isomorphic']} in {payload['category']}, expected {iso} in {category}"
        return _expect(code == (0 if iso else 1), f"iso exit {code}")

    return Request(
        "iso",
        ["iso", "src.json", "dst.json", "--expect-iso", "--out", "out.json"],
        {"src.json": src.text, "dst.json": dst.text},
        check,
    )


def endo_request(mod: Module, bound: int) -> Request:
    """End(M(a, S)) = {diag(F(c+m-1), F(c))}: bound + 1 solutions, idempotents 0 and 1.

    The generator passes graded M(a, S) inputs only (constant diagonal
    conjugates).  The program's endo assumes that form: on Mbar(a, S) with
    m >= 2 and on some polynomial conjugates it raises an uncaught
    InvariantBreach, a defect left for the program to fix.
    """

    def check(code, payload):
        if mod.perturbed:
            return _perturbed_check(code, payload)
        if code != 0 or payload is None:
            return f"endo exit {code}"
        dims = (len(payload["solutions"]), len(payload["predicted_basis"]), len(payload["idempotents"]))
        return _expect(dims == (bound + 1, bound + 1, 2), f"endo dimensions {dims}")

    return Request(
        "endo", ["endo", "in.json", "--bound", str(bound), "--out", "out.json"], {"in.json": mod.text}, check
    )


def submodules_request(rng: random.Random, mod: Module) -> Request:
    if mod.m == 1:
        k = rng.randint(-3, 3)
        gen = p_add(p_var(1, 0), p_const(1, k))
        genh = p_mul(gen, p_var(1, 0))
        g, gh = p_format(gen, ("h1",)), p_format(genh, ("h1",))
        label = 2 if mod.s else 1
        want = (
            [["J+J", [g, g]], ["J+hJ", [g, gh]]] if label == 1 else [["J+J", [g, g]], ["hJ+J", [gh, g]]]
        )

        def check(code, payload):
            if mod.perturbed:
                return _perturbed_check(code, payload)
            if code != 0 or payload is None:
                return f"submodules exit {code}"
            got = [[s["label"], s["generators"]] for s in payload["shapes"]]
            if payload["class"] != f"class-{label}" or got != want:
                return f"sl(1|1) shapes {payload['class']} {got} != class-{label} {want}"
            return None

        argv = ["submodules", "in.json", "--gen", g, "--out", "out.json"]
        return Request("submodules", argv, {"in.json": mod.text}, check)

    length = rng.randint(3, 6)
    lambdas = [Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for _ in range(length)]
    x = p_var(1, 0)
    f = p_const(1, 1)
    want = []
    for k in range(length + 1):
        want.append([str(f.get((d,), Fraction(0))) for d in range(max(max((e[0] for e in f)), 0) + 1)])
        if k < length:
            f = p_mul(f, p_add(x, p_const(1, -lambdas[k])))

    def check(code, payload):
        if mod.perturbed:
            return _perturbed_check(code, payload)
        if code != 0 or payload is None:
            return f"submodules exit {code}"
        if payload["filtration"] != want:
            return "filtration differs from the expanded products"
        return _expect(len(payload["separators"]) == length, "wrong separator count")

    argv = [
        "submodules", "in.json", "--length", str(length),
        "--lambdas=" + ",".join(str(q) for q in lambdas), "--out", "out.json",
    ]
    return Request("submodules", argv, {"in.json": mod.text}, check)


CANONICAL_SL11 = {
    1: [[["0", "1"], ["0", "0"]], [["0", "0"], ["h1", "0"]]],
    2: [[["0", "h1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
}


def canon_request(mod: Module) -> Request:
    label = 2 if mod.s else 1

    def check(code, payload):
        if mod.perturbed:
            return _perturbed_check(code, payload)
        if code != 0 or payload is None:
            return f"canon-sl11 exit {code}"
        if payload["class"] != f"class-{label}" or payload["canonical"] != CANONICAL_SL11[label]:
            return f"canonical form {payload['class']} != class-{label}"
        return None

    return Request("canon-sl11", ["canon-sl11", "in.json", "--out", "out.json"], {"in.json": mod.text}, check)


def string_request(rng: random.Random) -> Request:
    variant = rng.choice(("1", "2", "both"))
    max_deg = rng.randint(4, 12)
    # Images of degree max_deg + 1 need N >= 2 * max_deg + 4.  The program
    # accepts N = 2 * max_deg + 3 and then exits 2 on variant 1 (truncation
    # overflow), a defect left for the program to fix.
    n = 2 * max_deg + 4 + rng.randint(0, 6)
    variants = ("1", "2") if variant == "both" else (variant,)
    checked = (max_deg + 1) * 2 * 3

    def check(code, payload):
        if code != 0 or payload is None:
            return f"string-check exit {code}"
        for v in variants:
            rep = payload.get(f"variant{v}")
            if not rep or rep["ok"] is not True or rep["checked"] != checked or rep["failures"]:
                return f"string-check variant {v}: {rep and (rep['ok'], rep['checked'])}"
        return _expect(len(payload) == len(variants), "unexpected variants in payload")

    argv = ["string-check", "--variant", variant, "--N", str(n), "--max-deg", str(max_deg), "--out", "out.json"]
    return Request("string-check", argv, {}, check)


# -- emptiness certificates ------------------------------------------------------------


def cert_request(m: int, n: int, graded: bool) -> Request:
    def check(code, payload):
        if code != 0 or payload is None:
            return f"empty-check {m}x{n} exit {code}"
        shape = (payload.get("format"), payload.get("m"), payload.get("n"), payload.get("graded"))
        if shape != ("uhfree-emptiness-cert/1", m, n, graded):
            return f"certificate header {shape}"
        log = payload["branch_log"]
        combos = {tuple(sorted(o["choices"].items())) for o in log}
        survivors = [o for o in log if o["stage1"]["equal"]]
        if len(log) != 16 or len(combos) != 16 or len(survivors) != 1:
            return "branch log does not cover the 16 combinations with one survivor"
        if survivors[0]["choices"] != payload["surviving"]["choices"]:
            return "surviving choices disagree with the branch log"
        return None

    argv = ["empty-check", "--m", str(m), "--n", str(n), "--out", "cert.json"]
    if graded:
        argv.insert(-2, "--graded")
    return Request("empty-check", argv, {}, check, deterministic=False)


def _tamper_route(cert: dict, rng: random.Random) -> None:
    route = cert["surviving"][rng.choice(("routeA", "routeB"))]["mat"]
    r, c = rng.randrange(2), rng.randrange(2)
    route[r][c] = route[r][c] + " + 1" if route[r][c] != "0" else "1"


def _tamper_point(cert: dict, rng: random.Random) -> None:
    point = cert["surviving"]["eval_witness"]["point"]
    name = rng.choice(sorted(point))
    point[name] = str(int(point[name]) + rng.randint(1, 3))


def _tamper_branch(cert: dict, rng: random.Random) -> None:
    killed = [o for o in cert["branch_log"] if o["stage1"]["detail"] and "lhs" in o["stage1"]["detail"]]
    detail = rng.choice(killed)["stage1"]["detail"]
    detail["rhs"] = detail["lhs"]


TAMPERS = (_tamper_route, _tamper_point, _tamper_branch)


def cert_verify_request(m: int, n: int, tamper: Optional[random.Random]) -> Request:
    """Re-verification of the certificate the preceding request wrote.

    A tampered certificate changes a route entry, the evaluation point or
    a branch-killing identity; it must be rejected with exit 1.
    """
    mutate = None
    if tamper is not None:
        how = tamper.choice(TAMPERS)

        def mutate(text: str) -> str:
            cert = json.loads(text)
            how(cert, tamper)
            return json.dumps(cert, indent=2, sort_keys=True)

    def check(code, payload):
        want = 1 if tamper is not None else 0
        return _expect(code == want, f"verify {m}x{n} {'tampered' if tamper else 'intact'}: exit {code}")

    return Request("empty-check-verify", ["empty-check", "--verify", "cert.json"], {}, check, mutate=mutate)


# -- cycles ------------------------------------------------------------------------------


def _spread(rng: random.Random, total: int, share: float) -> set:
    """Exactly round(share * total) slot indices, chosen by the rng."""
    return set(rng.sample(range(total), round(share * total)))


# (command, m, degree of the conjugating matrix; a pair for iso).  Degrees
# are fixed per slot so that every cycle costs about the same; degree 0
# keeps the grading, so graded and ungraded inputs both appear.
FAMILY_SLOTS = (
    ("verify", 1, 2), ("classify", 1, 1), ("iso", 1, (2, 1)), ("submodules", 1, 1),
    ("endo", 1, 0), ("canon-sl11", 1, 2), ("string-check", 1, None),
    ("verify", 2, 2), ("classify", 2, 2), ("iso", 2, (0, 0)), ("submodules", 2, 1), ("endo", 2, 0),
    ("verify", 3, 2), ("classify", 3, 1), ("iso", 3, (2, 1)), ("submodules", 3, 2), ("endo", 3, 0),
    ("verify", 4, 2), ("classify", 4, 1), ("iso", 4, (0, 0)), ("submodules", 4, 1),
    ("verify", 5, 1), ("classify", 5, 1), ("iso", 5, (1, 0)), ("submodules", 5, 0),
    ("verify", 6, 1), ("classify", 6, 0), ("submodules", 6, 0),
)


def family_cycle(rng: random.Random, max_m: int) -> list:
    """One cycle of FAMILY_SLOTS with m <= max_m, in a seeded order.

    About one request in ten gets a perturbed presentation, and half of
    the iso pairs are isomorphic: same S, proportional a and, for a graded
    pair, the same parity convention.  Perturbed inputs are drawn from the
    cheap slots with m <= 2: a perturbed request stops at its first failed
    check, so perturbing costlier slots would change which requests make up
    the median and the tail from seed to seed.
    """
    slots = [slot for slot in FAMILY_SLOTS if slot[1] <= max_m]
    with_input = [k for k, slot in enumerate(slots) if slot[0] != "string-check"]
    cheap = [k for k in with_input if slots[k][1] <= 2]
    perturbed = set(rng.sample(cheap, round(0.1 * len(with_input))))
    isos = [k for k, slot in enumerate(slots) if slot[0] == "iso"]
    iso_positive = {isos[k] for k in _spread(rng, len(isos), 0.5)}

    def module(m, degree, perturb, params=None, bar=None):
        a, s = params or random_params(rng, m)
        bar = rng.random() < 0.5 if bar is None else bar
        return make_module(rng, m, a, s, bar, degree, perturb)

    requests = []
    for k, (cmd, m, degree) in enumerate(slots):
        bad = k in perturbed
        if cmd == "verify":
            requests.append(verify_request(module(m, degree, bad)))
        elif cmd == "classify":
            requests.append(classify_request(module(m, degree, bad)))
        elif cmd == "iso":
            a, s = random_params(rng, m)
            gamma = Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, 3)))
            a2, s2 = tuple(gamma * x for x in a), s
            bar = rng.random() < 0.5
            bar2 = bar if k in iso_positive or rng.random() < 0.5 else not bar
            if k not in iso_positive:
                if m == 1 or rng.random() < 0.5:
                    s2 = frozenset(set(s) ^ {rng.randint(1, m)})
                else:
                    j = rng.randrange(m)
                    a2 = a2[:j] + (a2[j] * rng.choice((2, 3, -1)),) + a2[j + 1 :]
            side = rng.random() < 0.5
            src = module(m, degree[0], bad and side, (a, s), bar)
            dst = module(m, degree[1], bad and not side, (a2, s2), bar2)
            requests.append(iso_request(src, dst))
        elif cmd == "endo":
            requests.append(endo_request(module(m, degree, bad, bar=False), 2))
        elif cmd == "submodules":
            requests.append(submodules_request(rng, module(m, degree, bad)))
        elif cmd == "canon-sl11":
            requests.append(canon_request(module(m, degree, bad)))
        else:
            requests.append(string_request(rng))
    rng.shuffle(requests)
    return requests


def emptiness_cycle(rng: random.Random, sizes) -> list:
    """Generate-then-verify for every (m, n) in sizes^2; about 10 % tampered."""
    shapes = list(itertools.product(sizes, repeat=2))
    rng.shuffle(shapes)
    tampered = _spread(rng, len(shapes), 0.1)
    requests = []
    for k, (m, n) in enumerate(shapes):
        requests.append(cert_request(m, n, rng.random() < 0.5))
        tamper = random.Random(rng.random()) if k in tampered else None
        requests.append(cert_verify_request(m, n, tamper))
    return requests


def cold_cycle(rng: random.Random) -> list:
    """Both mixes at small sizes: family m <= 3 and emptiness m, n <= 3."""
    return family_cycle(rng, 3) + emptiness_cycle(rng, (2, 3))


# name -> (one cycle of requests from an rng, the (m, n) shapes set-up builds)
WORKLOADS = {
    "family": (lambda rng: family_cycle(rng, 6), [(m, 1) for m in range(1, 7)]),
    "emptiness": (lambda rng: emptiness_cycle(rng, range(2, 8)), list(itertools.product(range(2, 8), repeat=2))),
    "cli-cold": (cold_cycle, [(m, 1) for m in range(1, 4)] + list(itertools.product((2, 3), repeat=2))),
}
