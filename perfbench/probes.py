"""Cliff probes: single library calls at sizes where the seed is known or
suspected to fall off a cliff.  They run only in the traced run, untraced,
each under its own timeout, and are reported as per-layer metrics (a probe
that times out reports the time it ran), never as gates."""

from __future__ import annotations

import random

import intmath as im
from harness import Timeout, timed_call
from workloads import VARS, triangular_ideal

# Seconds each probe may run.  poly_invariant_factors took 438 s at n = 16 on
# the seed, so that probe is expected to stop at its timeout.
TIMEOUTS = {
    "probe.poly_invariant_factors.n12_s": 10.0,
    "probe.poly_invariant_factors.n14_s": 20.0,
    "probe.poly_invariant_factors.n16_s": 5.0,
    "probe.constructible_family.d6_s": 10.0,
    "probe.charpoly_q.dim27_s": 10.0,
    "probe.snf.rank3_chain_s": 3.0,
    "probe.commalg_conditions.no_witness_s": 20.0,
}


def _invariant_factors(algact, rng, n):
    m = algact.matrices.Matrix([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])
    return lambda: algact.matrices.poly_invariant_factors(m)


def _family_depth6(algact, rng):
    # The free rank-2 action s = diag(2, 1), t = [[1, 1], [0, 3]].
    Matrix = algact.matrices.Matrix
    action = algact.actions.AlgebraicAction(
        2, [("s", Matrix([[2, 0], [0, 1]])), ("t", Matrix([[1, 1], [0, 3]]))], "free"
    )
    return lambda: algact.actions.constructible_family(action, 6)


def _charpoly_dim27(algact, rng):
    pr = algact.polyring
    gens = [
        pr.parse_poly(im.format_mpoly(g, VARS), VARS)
        for g in triangular_ideal(rng, (3, 3, 3))
    ]
    qa = pr.quotient_algebra(pr.buchberger(gens), 3)
    m = qa.mult_matrix(pr.MPoly.variable(3, 0))
    return lambda: algact.matrices.charpoly(m)


def _snf_rank3_chain(algact, rng):
    # Quotient levels M^j Z^3 of conjugates M of the companion matrix of
    # z^3 - 2: snf does not terminate on some of these, which is why the
    # level workload stays on rank 2.
    Matrix, lat = algact.matrices.Matrix, algact.lattices
    base = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]
    pairs = []
    for _ in range(12):
        u, u_inv = im.random_unimodular(3, rng)
        m = im.conjugate(u, base, u_inv)
        for j in (2, 3, 11, 12):
            pairs.append((Matrix(m), lat.Lattice(Matrix(im.transpose(im.matpow(m, j))))))
    return lambda: [(lat.quotient(level), lat.quotient(lat.preimage(m, level))) for m, level in pairs]


def _no_witness(algact, rng):
    # A transformed 3x3 triangular ideal through (1, 1): no monomial f has
    # id - f injective, so condition (c) searches every monomial up to
    # degree 2 dim = 18.  The ideal workload avoids such ideals by
    # construction; an ideal of dimension 15 like this took minutes.
    pr = algact.polyring
    names = VARS[:2]
    gens = [
        pr.parse_poly(im.format_mpoly(g, names), names)
        for g in triangular_ideal(rng, (3, 3), through_ones=True)
    ]
    return lambda: pr.commalg_conditions(gens, names)


def run_probes(algact, seed, timeout_scale=1.0):
    """Returns {metric name: seconds} for every probe."""
    builders = {
        "probe.poly_invariant_factors.n12_s": lambda rng: _invariant_factors(algact, rng, 12),
        "probe.poly_invariant_factors.n14_s": lambda rng: _invariant_factors(algact, rng, 14),
        "probe.poly_invariant_factors.n16_s": lambda rng: _invariant_factors(algact, rng, 16),
        "probe.constructible_family.d6_s": lambda rng: _family_depth6(algact, rng),
        "probe.charpoly_q.dim27_s": lambda rng: _charpoly_dim27(algact, rng),
        "probe.snf.rank3_chain_s": lambda rng: _snf_rank3_chain(algact, rng),
        "probe.commalg_conditions.no_witness_s": lambda rng: _no_witness(algact, rng),
    }
    out = {}
    for name, build in builders.items():
        call = build(random.Random(f"{name}:{seed}"))
        seconds, _, error = timed_call(call, TIMEOUTS[name] * timeout_scale)
        if error is not None and not isinstance(error, Timeout):
            raise RuntimeError(f"{name} failed: {error!r}") from error
        out[name] = seconds
    return out
