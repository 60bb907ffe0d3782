"""Exact integer helpers the input generators use to build documents and
their expected answers.  Nothing here imports algact: an expected answer
must follow from how an input was built, not from the program under test.
"""

from __future__ import annotations

import math
from fractions import Fraction


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matpow(m, k):
    out = identity(len(m))
    for _ in range(k):
        out = matmul(out, m)
    return out


def transpose(m):
    return [list(col) for col in zip(*m)]


def flat(m):
    return [x for row in m for x in row]


def det(m):
    """Determinant by Gaussian elimination over Q (exact)."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(out)


def adjugate(m):
    n = len(m)
    if n == 1:
        return [[1]]
    return [
        [(-1) ** (i + j) * det([row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j]) for j in range(n)]
        for i in range(n)
    ]


def in_column_lattice(adj_p, det_p, v):
    """Is the integer vector v in the lattice spanned by the columns of a
    matrix P with adjugate adj_p and determinant +-det_p?"""
    return all(sum(a * x for a, x in zip(row, v)) % det_p == 0 for row in adj_p)


def random_unimodular(n, rng):
    """A random unimodular integer matrix and its inverse: a random signed
    permutation followed by n + 1 elementary operations row_i += c * row_j.
    c is +-1, or +-1, +-2 on rank 2, where +-1 alone gives too few distinct
    matrices for a run's worth of inputs."""
    perm = rng.sample(range(n), n)
    u = [[rng.choice((1, -1)) * int(j == perm[i]) for j in range(n)] for i in range(n)]
    u_inv = transpose(u)
    coeffs = (1, -1, 2, -2) if n == 2 else (1, -1)
    for _ in range(n + 2 if n == 2 else n + 1):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    assert matmul(u, u_inv) == identity(n)
    return u, u_inv


def mixing_unimodular(n, rng):
    """L * R with L unit lower and R unit upper triangular, off-diagonal
    entries +-1: a unimodular matrix in which every variable mixes with the
    others."""
    lower = [[int(i == j) if i <= j else rng.choice((1, -1)) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) if i >= j else rng.choice((1, -1)) for j in range(n)] for i in range(n)]
    return matmul(lower, upper)


def conjugate(u, m, u_inv):
    return matmul(matmul(u, m), u_inv)


# -- monomial matrices --------------------------------------------------------
#
# A monomial matrix (perm, mult) sends e_j to mult[j] * e_perm[j].  Images,
# preimages and meets of coordinate lattices m_0 Z + ... + m_{n-1} Z under
# such matrices are again coordinate lattices, which gives a closed-form
# model of the constructible family.


def monomial_matrix(perm, mult):
    n = len(perm)
    m = [[0] * n for _ in range(n)]
    for j, (i, c) in enumerate(zip(perm, mult)):
        m[i][j] = c
    return m


def monomial_det(perm, mult):
    sign, seen = 1, set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        sign *= (-1) ** (length - 1)
    return sign * math.prod(mult)


def _cycle_products(perm, mult):
    seen, out = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        prod, j = 1, start
        while j not in seen:
            seen.add(j)
            prod *= mult[j]
            j = perm[j]
        out.append(prod)
    return out


def _image(gen, lat):
    perm, mult = gen
    out = [0] * len(lat)
    for j, (i, c) in enumerate(zip(perm, mult)):
        out[i] = abs(c) * lat[j]
    return tuple(out)


def _preimage(gen, lat):
    perm, mult = gen
    return tuple(lat[i] // math.gcd(lat[i], abs(c)) for i, c in zip(perm, mult))


def _meet(a, b):
    return tuple(math.lcm(x, y) for x, y in zip(a, b))


def _step(gens, current):
    out = set(current)
    for lat in current:
        for g in gens:
            out.add(_image(g, lat))
            out.add(_preimage(g, lat))
    ordered = sorted(current)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            out.add(_meet(a, b))
    return out


def monomial_family(gens, n, depth):
    """Constructible family of a monomial action, as algact defines it: start
    from {Z^n}; each of `depth` rounds adds the images and preimages of the
    current members under every generator and the meets of every pair; the
    family is saturated when a round adds nothing.  Returns the sorted member
    indices, the saturated flag, the index of the meet of each round's
    members, and the exactness verdict that follows."""
    current = {(1,) * n}
    snapshots = [current]
    saturated = False
    for _ in range(depth):
        new = _step(gens, current)
        if new == current:
            saturated = True
            snapshots.append(current)
            break
        current = new
        snapshots.append(current)
    else:
        saturated = _step(gens, current) == current
    totals = []
    for snap in snapshots:
        meet = (1,) * n
        for lat in snap:
            meet = _meet(meet, lat)
        totals.append(math.prod(meet))
    if saturated:
        verdict = "not_exact"
    elif len(gens) > 1:
        verdict = "undecided"
    elif any(abs(p) == 1 for p in _cycle_products(*gens[0])):
        # A cycle with unit product gives a root-of-unity eigenvalue, or the
        # generator itself is an automorphism.
        verdict = "not_exact"
    else:
        verdict = "exact"
    return {
        "indices": sorted(math.prod(lat) for lat in current),
        "saturated": saturated,
        "empirical_indices": totals,
        "exactness": verdict,
    }


# -- polynomials -------------------------------------------------------------


def taylor_shift(coeffs, k):
    """Coefficients (constant first) of f(z + k)."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * k ** (i - j)
    return out


def format_univariate(coeffs, var="z"):
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            terms.append((coeffs[i], (i,)))
    return _format_terms(terms, [var])


def mpoly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


def mpoly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def mpoly_pow(a, k, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = mpoly_mul(out, a)
    return out


def mpoly_substitute(poly, images, nvars):
    """poly(images[0], ..., images[m-1]) with each image a polynomial in
    `nvars` variables."""
    out = {}
    for exp, c in poly.items():
        term = {(0,) * nvars: c}
        for img, e in zip(images, exp):
            term = mpoly_mul(term, mpoly_pow(img, e, nvars))
        out = mpoly_add(out, term)
    return out


def format_mpoly(poly, names):
    # Graded order, so the text reads like a hand-written input.
    terms = sorted(poly.items(), key=lambda t: (-sum(t[0]), [-x for x in t[0]]))
    return _format_terms([(c, e) for e, c in terms], names)


def _format_terms(terms, names):
    parts = []
    for c, exp in terms:
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e
        )
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        parts.append((sign, body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f"{s}{b}" for s, b in parts[1:])
