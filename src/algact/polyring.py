"""Multivariate polynomials over Q, Buchberger's algorithm, and the finite
quotient algebras that turn zero-dimensional ideals into commuting matrix
actions.

Everything is exact and desk-scale: a handful of variables, reduced Groebner
bases over Q, staircase monomial bases, and multiplication matrices whose
characteristic polynomials and determinants carry the arithmetic content.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import FACTOR_BOUND, prime_factors
from .matrices import Matrix, charpoly, power_products
from .polynomials import Poly, _scalar, format_poly, format_terms

DEGREVLEX = "degrevlex"
LEX = "lex"
ORDERS = (DEGREVLEX, LEX)


def order_key(order: str):
    if order == LEX:
        return lambda e: e
    if order == DEGREVLEX:
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    raise ValueError(f"unsupported monomial order {order!r}")


class MPoly:
    """Sparse multivariate polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if any(isinstance(e, bool) or not isinstance(e, int) for e in exp):
                raise TypeError(f"integer exponents required, got {exp!r}")
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError("bad exponent vector")
            c = _scalar(coeff)
            if c:
                clean[exp] = clean.get(exp, 0) + c
                if not clean[exp]:
                    del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    @classmethod
    def constant(cls, nvars: int, c) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MPoly":
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exp: 1})

    @classmethod
    def monomial(cls, nvars: int, exp, coeff=1) -> "MPoly":
        return cls(nvars, {tuple(exp): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.nvars, out)

    def __sub__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MPoly(self.nvars, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def leading(self, key) -> tuple[tuple, Fraction | int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=key)
        return exp, self.terms[exp]

    def monic(self, key) -> "MPoly":
        _, lc = self.leading(key)
        return self * (Fraction(1) / Fraction(lc))

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def format(self, names) -> str:
        order = sorted(self.terms, key=lambda t: (-sum(t), tuple(-x for x in t)))
        return format_terms(
            (self.terms[e], "*".join(f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k))
            for e in order
        )

    def __repr__(self):
        names = [f"u{i+1}" for i in range(self.nvars)]
        return f"MPoly({self.format(names)})"


def mpoly_to_poly(f: MPoly) -> Poly:
    """Collapse a univariate MPoly to a dense Poly."""
    if f.nvars != 1:
        raise ValueError("univariate polynomial required")
    coeffs = [0] * (f.total_degree() + 1 if not f.is_zero() else 0)
    for (e,), c in f.terms.items():
        coeffs[e] = c
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class PolyParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def parse_poly(text: str, names) -> MPoly:
    """Parse '+', '-', '*', '^', parentheses, integer/rational literals and
    the given variable names into an exact MPoly.  Unknown names and syntax
    errors carry the offending offset.
    """
    names = list(names)
    return _Parser(text.replace("−", "-"), names).parse()


class _Parser:
    def __init__(self, text: str, names):
        self.text = text
        self.names = names
        self.nvars = len(names)
        self.pos = 0

    def parse(self) -> MPoly:
        out = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise PolyParseError("unexpected input", self.pos)
        return out

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> MPoly:
        out = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                out = out + self._term()
            elif ch == "-":
                self.pos += 1
                out = out - self._term()
            else:
                return out

    def _term(self) -> MPoly:
        out = self._factor()
        while self._peek() == "*":
            self.pos += 1
            out = out * self._factor()
        return out

    def _factor(self) -> MPoly:
        ch = self._peek()
        sign = 1
        while ch and ch in "+-":
            if ch == "-":
                sign = -sign
            self.pos += 1
            ch = self._peek()
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            exp = self._integer("exponent expected")
            if exp < 0:
                raise PolyParseError("negative exponent", self.pos)
            base = base**exp
        return base if sign == 1 else -base

    def _atom(self) -> MPoly:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise PolyParseError("unexpected end of input", self.pos)
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            out = self._expr()
            if self._peek() != ")":
                raise PolyParseError("missing closing parenthesis", self.pos)
            self.pos += 1
            return out
        if ch.isdigit():
            num = self._integer("number expected")
            if self._peek() == "/":
                self.pos += 1
                den = self._integer("denominator expected")
                if den == 0:
                    raise PolyParseError("zero denominator", self.pos)
                return MPoly.constant(self.nvars, Fraction(num, den))
            return MPoly.constant(self.nvars, num)
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in self.names:
                raise PolyParseError(f"unknown variable {name!r}", start)
            return MPoly.variable(self.nvars, self.names.index(name))
        raise PolyParseError(f"unexpected character {ch!r}", self.pos)

    def _integer(self, message: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise PolyParseError(message, self.pos)
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # longer than the interpreter converts (Python 3.11+)
            raise PolyParseError(f"integer literal of {self.pos - start} digits is too long", start) from exc


# ---------------------------------------------------------------------------
# Groebner bases
# ---------------------------------------------------------------------------


def _divides(ea, eb) -> bool:
    return all(x <= y for x, y in zip(ea, eb))


def _exp_sub(ea, eb):
    return tuple(x - y for x, y in zip(ea, eb))


def _exp_lcm(ea, eb):
    return tuple(max(x, y) for x, y in zip(ea, eb))


def normal_form(f: MPoly, basis, key) -> MPoly:
    """Remainder of multivariate division of f by the basis.

    The working polynomial is one term dict, reduced in place: its leading
    term is cancelled by the first basis member whose leading exponent
    divides it, or else moves to the remainder.  Each exponent's order key is
    computed once per call, and only the remainder becomes an MPoly.
    """
    leads = []
    for g in basis:
        if g.is_zero():
            continue
        lexp, lc = g.leading(key)
        leads.append((lexp, Fraction(lc), [(e, c) for e, c in g.terms.items() if e != lexp]))
    work = dict(f.terms)
    rank = {e: key(e) for e in work}
    rem: dict = {}
    while work:
        exp = max(work, key=rank.__getitem__)
        coeff = work.pop(exp)
        hit = next((t for t in leads if _divides(t[0], exp)), None)
        if hit is None:
            # every term added later lies below exp in the monomial order
            rem[exp] = coeff
            continue
        lexp, lc, tail = hit
        q = Fraction(coeff) / lc
        shift = _exp_sub(exp, lexp)
        for e, c in tail:
            e = tuple(x + y for x, y in zip(e, shift))
            c = work.get(e, 0) - q * c
            if c:
                work[e] = c
                if e not in rank:
                    rank[e] = key(e)
            else:
                del work[e]
    return MPoly(f.nvars, rem)


def s_polynomial(f: MPoly, ef, g: MPoly, eg) -> MPoly:
    """S-polynomial of f and g, given their leading exponents ef and eg."""
    cf, cg = f.terms[ef], g.terms[eg]
    lcm = _exp_lcm(ef, eg)
    mf = MPoly.monomial(f.nvars, _exp_sub(lcm, ef), Fraction(1) / Fraction(cf))
    mg = MPoly.monomial(g.nvars, _exp_sub(lcm, eg), Fraction(1) / Fraction(cg))
    return mf * f - mg * g


def buchberger(gens, order: str = DEGREVLEX) -> list[MPoly]:
    """Reduced Groebner basis by Buchberger's algorithm.

    Pairs are processed smallest-lcm first (normal selection); the coprime
    leading-term criterion and the chain criterion prune the queue.  The
    result is the canonical reduced, monic, autoreduced basis for the order.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    key = order_key(order)
    basis = [g.monic(key) for g in gens]
    leads = [g.leading(key)[0] for g in basis]  # computed once per member, as it joins
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    while pairs:
        i, j = min(pairs, key=lambda p: key(_exp_lcm(leads[p[0]], leads[p[1]])))
        pairs.discard((i, j))
        li, lj = leads[i], leads[j]
        lcm = _exp_lcm(li, lj)
        if lcm == tuple(x + y for x, y in zip(li, lj)):
            continue  # coprime leading terms
        if any(
            k != i and k != j
            and _divides(lk, lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, lk in enumerate(leads)
        ):
            continue  # chain criterion
        rem = normal_form(s_polynomial(basis[i], li, basis[j], lj), basis, key)
        if rem.is_zero():
            continue
        basis.append(rem.monic(key))
        leads.append(basis[-1].leading(key)[0])
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))
    return _autoreduce(basis, key)


def _autoreduce(basis, key):
    # Drop members whose leading term another one divides, then fully reduce tails.
    kept = []
    for i, g in enumerate(basis):
        lg = g.leading(key)[0]
        if any(
            j != i and _divides(basis[j].leading(key)[0], lg) and (j < i or basis[j].leading(key)[0] != lg)
            for j in range(len(basis))
        ):
            continue
        kept.append(g)
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = normal_form(g, others, key) if others else g
        if not r.is_zero():
            reduced.append(r.monic(key))
    reduced.sort(key=lambda g: key(g.leading(key)[0]))
    return reduced


def _pure_powers(leads, nvars: int) -> list[int | None]:
    """The staircase scan: for each variable, its least pure power among the
    leading exponents, or None when it has none."""
    return [
        min((e[i] for e in leads if e[i] and not any(e[:i] + e[i + 1 :])), default=None)
        for i in range(nvars)
    ]


def is_zero_dimensional(gb, nvars: int, order: str = DEGREVLEX) -> bool:
    """Staircase criterion: every variable has a pure power among the
    leading terms."""
    key = order_key(order)
    return None not in _pure_powers([g.leading(key)[0] for g in gb], nvars)


# ---------------------------------------------------------------------------
# Quotient algebra
# ---------------------------------------------------------------------------


@dataclass
class QuotientAlgebra:
    """Q[u_1..u_d]/I for zero-dimensional I: staircase monomial basis and the
    commuting multiplication matrices of the variables."""

    nvars: int
    order: str
    groebner_basis: list[MPoly]
    basis: list[tuple]
    var_matrices: tuple[Matrix, ...] = field(init=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {e: i for i, e in enumerate(self.basis)}
        self.var_matrices = tuple(self._columns(MPoly.variable(self.nvars, i)) for i in range(self.nvars))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def normal_form(self, f: MPoly) -> MPoly:
        return normal_form(f, self.groebner_basis, order_key(self.order))

    def coords(self, f: MPoly) -> tuple:
        vec = [0] * len(self.basis)
        for e, c in self.normal_form(f).terms.items():
            vec[self._index[e]] = c
        return tuple(vec)

    def _columns(self, f: MPoly) -> Matrix:
        # Column j holds the coordinates of f * b_j.
        return Matrix(list(zip(*(self.coords(f * MPoly.monomial(self.nvars, b)) for b in self.basis))))

    def mult_matrix(self, f: MPoly) -> Matrix:
        """Multiplication-by-f matrix; a variable's is the stored one."""
        if len(f.terms) == 1:
            (exp, coeff), = f.terms.items()
            if coeff == 1 and sum(exp) == 1:
                return self.var_matrices[exp.index(1)]
        return self._columns(f)

    def char_poly_and_norm(self, f: MPoly) -> tuple[Poly, int | Fraction]:
        """The characteristic polynomial chi of multiplication by f, and its
        norm |det T_f| = |chi(0)|."""
        chi = charpoly(self.mult_matrix(f))
        return chi, abs(chi[0])


def quotient_algebra(gb, nvars: int, order: str = DEGREVLEX) -> QuotientAlgebra:
    key = order_key(order)
    leads = [g.leading(key)[0] for g in gb]
    bounds = _pure_powers(leads, nvars)
    if None in bounds:
        raise ValueError("ideal is not zero-dimensional")
    staircase = [
        exp
        for exp in itertools.product(*(range(b) for b in bounds))
        if not any(_divides(le, exp) for le in leads)
    ]
    staircase.sort(key=key)
    return QuotientAlgebra(nvars, order, list(gb), staircase)


# ---------------------------------------------------------------------------
# Condition battery for zero-dimensional ideal actions
# ---------------------------------------------------------------------------


@dataclass
class IdealConditionsReport:
    zero_dimensional: bool
    variables_nonzero: dict[str, bool]
    a_holds: bool
    variables_injective: dict[str, bool] | None
    b_holds: bool | None
    c_witness: str | None
    c_search_bound: int | None
    c_holds: bool | None
    norms: dict[str, int | str] | None  # a non-integral norm as its exact string, e.g. '9/4'
    d_witness_primes: dict[str, int] | None
    d_holds: bool | None
    d_note: str | None
    dimension: int | None
    char_polys: dict[str, str] | None
    groebner_basis: list[MPoly]  # the reduced basis the checks ran on; kept out of "conditions"


def commalg_conditions(gens, names, order: str = DEGREVLEX) -> IdealConditionsReport:
    """Check the four hypotheses that make a zero-dimensional ideal action a
    rigidity-ready system.

    (a) finite quotient and no variable lies in the ideal; (b) every variable
    acts injectively (nonzero determinant); (c) some monomial f has id - f
    injective, searched by total degree; (d) each variable's norm has a prime
    the others miss.  Condition (d) comes back inconclusive when a norm is
    not an integer or resists trial division.
    """
    names = list(names)
    nvars = len(names)
    gb = buchberger(gens, order)
    key = order_key(order)
    zero_dim = is_zero_dimensional(gb, nvars, order)
    nonzero = {}
    for i, name in enumerate(names):
        nf = normal_form(MPoly.variable(nvars, i), gb, key)
        nonzero[name] = not nf.is_zero()
    a_holds = zero_dim and all(nonzero.values())
    if not zero_dim:
        return IdealConditionsReport(
            False, nonzero, a_holds, None, None, None, None, None, None, None, None, None, None, None, gb
        )
    qa = quotient_algebra(gb, nvars, order)
    injective = {}
    norms = {}
    chis = {}
    for i, name in enumerate(names):
        chi, norm = qa.char_poly_and_norm(MPoly.variable(nvars, i))
        injective[name] = norm != 0
        norms[name] = norm if isinstance(norm, int) else str(norm)
        chis[name] = format_poly(chi)
    b_holds = all(injective.values())
    bound = 2 * qa.dimension
    ident = Matrix.identity(qa.dimension)
    c_witness = next(
        (
            MPoly.monomial(nvars, exp).format(names)
            for products in power_products(qa.var_matrices, bound)
            for exp, m in products.items()
            if (ident - m).det() != 0
        ),
        None,
    )
    c_holds = c_witness is not None
    d_witness: dict[str, int] = {}
    d_note = None
    d_holds: bool | None = True
    factored = {}
    fractional = [name for name in names if isinstance(norms[name], str)]
    if fractional:
        d_holds = None
        d_note = f"non-integral norm: N({fractional[0]}) = {norms[fractional[0]]} has no prime factorization"
    else:
        for name in names:
            if norms[name] == 0:
                factored[name] = {}
                continue
            factors, rest = prime_factors(norms[name], bound=FACTOR_BOUND)
            if rest != 1:
                d_holds = None
                d_note = f"unfactored norm: N({name}) = {norms[name]} resists trial division"
                break
            factored[name] = factors
    if d_holds is not None:
        for name in names:
            others = [factored[o] for o in names if o != name]
            witness = next(
                (p for p in sorted(factored[name]) if all(p not in f for f in others)),
                None,
            )
            if witness is None:
                d_holds = False
                d_witness = {}
                d_note = f"no exclusive prime for {name}"
                break
            d_witness[name] = witness
    return IdealConditionsReport(
        True,
        nonzero,
        a_holds,
        injective,
        b_holds,
        c_witness,
        bound,
        c_holds,
        norms,
        d_witness or None,
        d_holds,
        d_note,
        qa.dimension,
        chis,
        gb,
    )

