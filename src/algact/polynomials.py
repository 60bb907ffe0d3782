"""Univariate polynomials over exact scalars (int / Fraction).

Coefficients are stored low-degree first; the zero polynomial keeps an empty
tuple.  Scalars are Python ints whenever integral and Fractions otherwise, so
every operation is exact.  Floats are rejected outright.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from .arith import divisors, euler_phi


def _scalar(x):
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact scalar required, got {type(x).__name__}")
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


class Poly:
    """A dense univariate polynomial with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        lead = Fraction(other.coeffs[-1])
        quot = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + other.degree]
            if c:
                q = _scalar(Fraction(c) / lead)
                quot[i] = q
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= q * oc
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return not self.is_zero() and (other % self).is_zero()

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = Fraction(self.leading())
        return Poly(tuple(_scalar(Fraction(c) / lead) for c in self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd over Q."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def is_squarefree(self) -> bool:
        g = self.gcd(self.derivative())
        return g.degree <= 0

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return _scalar(Fraction(out)) if isinstance(out, Fraction) else out

    def denominator_lcm(self) -> int:
        out = 1
        for c in self.coeffs:
            if isinstance(c, Fraction):
                d = c.denominator
                out = out * d // gcd(out, d)
        return out

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


def format_poly(p: Poly, var: str = "z") -> str:
    """Render a polynomial the way a human would write it, e.g. 'z^2 - z - 1'."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            xpart = var if i == 1 else f"{var}^{i}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


@functools.lru_cache(maxsize=None)
def cyclotomic(k: int) -> Poly:
    """The k-th cyclotomic polynomial, by dividing z^k - 1 by the proper ones."""
    if k < 1:
        raise ValueError("cyclotomic index must be >= 1")
    f = Poly((-1,) + (0,) * (k - 1) + (1,))
    for d in divisors(k):
        if d < k:
            f, rem = divmod(f, cyclotomic(d))
            assert rem.is_zero()
    return f


def cyclotomic_indices(max_phi: int) -> list[int]:
    """All k with euler_phi(k) <= max_phi.

    phi(k) >= sqrt(k/2), so k <= 2*max_phi^2 is a complete scan bound.
    """
    return [k for k in range(1, 2 * max_phi * max_phi + 1) if euler_phi(k) <= max_phi]


def cyclotomic_divisor(f: Poly) -> int | None:
    """The smallest k with Phi_k | f, or None.

    Complete: Phi_k has degree phi(k), so only k with phi(k) <= deg f can
    divide f.  Since Phi_k is irreducible over Q, Phi_k | f exactly when f
    has a primitive k-th root of unity as a root.
    """
    return next(
        (k for k in cyclotomic_indices(max(f.degree, 1)) if cyclotomic(k).divides(f)),
        None,
    )
