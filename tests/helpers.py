"""Shared random generators and guards for the test suite."""

import contextlib
import signal
import time
from fractions import Fraction

from uhfree.poly import Poly, apply_shift, compose_univariate, default_names, divides_exactly
from uhfree.mat2 import Mat2, dump_json
from uhfree.presentation import FORMAT_PRESENTATION, _gen_label, build_mas, conjugate


def build_mas_bar(m, a, s):
    """The parity-swapped family Mbar(a, S): M(a, S) conjugated by the swap.

    The constant antidiagonal swap moves every entry to the opposite
    corner and turns the grading g11 into g11bar.
    """
    return conjugate(build_mas(m, a, s), Mat2.swap(m))


def apply_witness_pair(p, q, sigma, w):
    """The twisted conjugation action (W^{-1} P sigma(W), W^{-1} Q sigma^{-1}(W))
    of a witness on a (P, Q) pair."""
    winv = w.inverse_unimodular()
    return winv * p * w.shifted(sigma), winv * q * w.shifted(tuple(-x for x in sigma))


def reconstruct_nil(params, tau):
    """theta * tau(k) r, the matrix `nil_factor` factors, with k = (alpha, beta) and r = (beta, -alpha)."""
    theta, alpha, beta = params
    ta = apply_shift(tau, alpha)
    tb = apply_shift(tau, beta)
    return Mat2(
        (
            (theta * beta * ta, -theta * alpha * ta),
            (theta * beta * tb, -theta * alpha * tb),
        )
    )


def presentation_to_dict(p):
    """The presentation file's data for p, as `presentation_from_dict` reads it."""
    alg = p.algebra
    names = default_names(alg.nvars, p.m)
    return {
        "format": FORMAT_PRESENTATION,
        "m": p.m,
        "n": p.n,
        "grading": p.grading,
        "E": {_gen_label(alg, *pos): mat.to_strings(names) for pos, mat in p.odd},
    }


def presentation_to_json(p):
    """The presentation file text of p, as `presentation_from_json` reads it."""
    return dump_json(presentation_to_dict(p))


def random_poly(rng, nvars, max_deg, max_terms=4, coeff_range=3, allow_zero=True):
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        c = Fraction(rng.randint(-coeff_range, coeff_range))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    return Poly(nvars, terms)


def random_unimodular(rng, nvars, factor_deg=1):
    """L * D * U with constant nonzero determinant; entries of degree <= 2*factor_deg."""
    lower = Mat2.of(nvars, ((1, 0), (random_poly(rng, nvars, factor_deg), 1)))
    upper = Mat2.of(nvars, ((1, random_poly(rng, nvars, factor_deg)), (0, 1)))
    units = [Fraction(c) for c in (1, -1, 2, -2, 3, Fraction(1, 2))]
    diag = Mat2.of(nvars, ((rng.choice(units), 0), (0, rng.choice(units))))
    return lower * diag * upper


def random_nonzero_fraction(rng, lim=4):
    num = rng.choice([k for k in range(-lim, lim + 1) if k])
    den = rng.randint(1, lim)
    return Fraction(num, den)


def scaled_conjugates(m):
    """Non-modules near M(a, S) over sl(m|1): each odd generator of its conjugate in turn times 2.

    The conjugate is by [[1, h1], [0, 1]], with a = (1, ..., m) and
    S = {1}.  Yields (scaled position, odd matrices by position).
    """
    w = Mat2.of(m, ((1, Poly.var(m, 0)), (0, 1)))
    base = conjugate(build_mas(m, range(1, m + 1), (1,)), w)
    for pos, _ in base.odd:
        yield pos, {q: 2 * mat if q == pos else mat for q, mat in base.odd}


def family_entries(f, m, offset):
    """(F(c + offset), F(c)) over m variables, c = h_1 + ... + h_m: the diagonal of D_F."""
    c = sum((Poly.var(m, j) for j in range(m)), Poly.zero(m))
    return compose_univariate(f, c + offset), compose_univariate(f, c)


def in_layer(g1, g2, v):
    """Membership oracle: every column of v lies in g1 Q[h] (+) g2 Q[h].

    A zero generator admits only zero entries.
    """

    def divides(g, entry):
        return entry.is_zero if g.is_zero else divides_exactly(g, entry) is not None

    return all(divides(g1, v[0, col]) and divides(g2, v[1, col]) for col in (0, 1))


class Foreign:
    """An operand no uhfree type knows; it answers reflected arithmetic and == itself."""

    def __radd__(self, other):
        return "radd"

    def __rsub__(self, other):
        return "rsub"

    def __rmul__(self, other):
        return "rmul"

    def __eq__(self, other):
        return True


class Expired(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds):
    """Raise Expired inside the block once `seconds` of wall time have passed.

    An enclosing limit (the per-test one of conftest.py) gets its handler
    back on exit, with its timer rearmed for the time it has left.
    """

    def expire(signum, frame):
        raise Expired(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            # an outer limit that ran out inside the block fires at once
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))
