"""Exact arithmetic in the two variables q and T.

Everything downstream of this module lives in one of two value types, both
immutable by construction:

* :class:`BivariatePolynomial` -- a Laurent polynomial in q and T with
  arbitrary-precision integer coefficients.  Stored as a read-only sparse
  map ``(e_q, e_T) -> coefficient``; zero coefficients are never stored.

* :class:`FactoredRational` -- ``num / prod (1 - q^a T^b)^mult`` with the
  denominator kept as a read-only multiset of factors.  All
  generating functions and zeta functions in this package are values of
  this type.

A monomial c q^a T^b is a one-term polynomial, and the monomial q^a T^b of
a factor 1 - q^a T^b, an Igusa slot among them, is its key (a, b).

Products go through ``_p_mul``: two single terms multiply directly, the
schoolbook loop costs one dict update per pair of terms, and Kronecker
substitution packs each operand into one Python int, multiplies once and
reads the product back.  The size rule takes the Kronecker path when the
shorter operand has at least 8 terms and the product's (q, T) box has at
most half as many cells as there are pairs of terms.

Sums multiply by cofactors and never expand a common denominator only to
divide it back.  Equality compares the numerators of two sides over the same
denominator, and otherwise asks the sum whether their difference is zero.
Division by 1 - q^a T^b, ``reduced``, ``series_in_T`` and ``eval_q`` run one
recurrence, y = x + u y, on rows of the numerator.

The code of the Kronecker product, the sum, the division and the
substitution lives in ``heiszeta._engine``, which this module imports on the
first call that needs it: ``_p_mul``, ``divide_out_factor`` and the methods
``sum``, ``reduced``, ``subs_inverse``, ``series_in_T`` and ``eval_q`` stay
here as the entry points.  So a command that only builds small products and
renders them compiles this module alone.

The module also provides the finite q-Pochhammer products, the Gaussian
binomial coefficients, the substitution ``(q,T) -> (q^-1,T^-1)``, and the
plain and LaTeX renderings.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import UsageError, check_limit

Term = tuple[int, int]  # (e_q, e_T)

# ---------------------------------------------------------------------------
# raw dict helpers (kept free functions for speed; the classes wrap them)
# ---------------------------------------------------------------------------


def _p_iadd(out: dict, terms: Mapping, c: int = 1, dq: int = 0, dt: int = 0) -> dict:
    """Add c * q^dq * T^dt * terms into out, in place, dropping zeros; returns out."""
    if not c:
        return out
    for (eq, et), cc in terms.items():
        k = (eq + dq, et + dt)
        s = out.get(k, 0) + c * cc
        if s:
            out[k] = s
        else:
            del out[k]
    return out


# The shorter operand of a Kronecker product has at least this many terms.
_KRONECKER_MIN_TERMS = 8


def _p_box(a: dict) -> tuple[int, int, int, int]:
    """(min e_q, max e_q, min e_T, max e_T) of a nonempty raw dict."""
    qs = [eq for eq, _ in a]
    ts = [et for _, et in a]
    return min(qs), max(qs), min(ts), max(ts)


def _t_low(a: Mapping) -> int:
    """Least T-exponent of a raw dict; 0 for the empty one."""
    return min((et for _, et in a), default=0)


def _engine():
    """heiszeta._engine, the code of sums, division, reduction, series and the
    Kronecker product, imported on first use."""
    from . import _engine

    return _engine


def _p_mul(a: dict, b: dict) -> dict:
    """Product of two raw dicts: by Kronecker substitution when the shorter
    operand has at least _KRONECKER_MIN_TERMS terms and the product's exponent
    box has at most len(a) * len(b) / 2 cells, else by the schoolbook loop."""
    if len(b) < len(a):
        a, b = b, a
    if len(a) >= _KRONECKER_MIN_TERMS:
        qa0, qa1, ta0, ta1 = _p_box(a)
        qb0, qb1, tb0, tb1 = _p_box(b)
        cells = (qa1 - qa0 + qb1 - qb0 + 1) * (ta1 - ta0 + tb1 - tb0 + 1)
        if 2 * cells <= len(a) * len(b):
            return _engine()._p_mul_kronecker(a, b)
    return _p_mul_schoolbook(a, b)


def _p_mul_schoolbook(a: dict, b: dict) -> dict:
    """Product by the term-by-term loop; fastest with the shorter operand as a."""
    out: dict = {}
    for (qa, ta), ca in a.items():
        _p_iadd(out, b, ca, qa, ta)
    return out


def _p_scale(a: dict, c: int, dq: int = 0, dt: int = 0) -> dict:
    """a * c * q^dq * T^dt as a raw dict."""
    if c == 0:
        return {}
    if c == 1 and dq == 0 and dt == 0:
        return dict(a)
    return {(eq + dq, et + dt): cc * c for (eq, et), cc in a.items()}


def _set_fields(obj, **fields):
    """Set the fields of a new value; the value classes refuse setattr."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class BivariatePolynomial:
    """Sparse exact polynomial with Laurent exponents in q and T.

    Immutable by construction: ``terms`` is a read-only view, and the
    attribute cannot be rebound.
    """

    __slots__ = ("terms",)

    def __setattr__(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __reduce__(self):
        return BivariatePolynomial, (dict(self.terms),)

    def __init__(self, terms: Optional[Mapping[Term, int]] = None):
        t = {}
        if terms:
            for (eq, et), c in terms.items():
                if c:
                    t[(eq, et)] = c
        _set_fields(self, terms=MappingProxyType(t))

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict) -> "BivariatePolynomial":
        return _set_fields(cls.__new__(cls), terms=MappingProxyType(terms))

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls._raw({})

    @classmethod
    def monomial(cls, coeff: int, e_q: int = 0, e_T: int = 0) -> "BivariatePolynomial":
        return cls._raw({(e_q, e_T): coeff} if coeff else {})

    @classmethod
    def one(cls) -> "BivariatePolynomial":
        return cls.monomial(1)

    @classmethod
    def one_minus(cls, a: int, b: int) -> "BivariatePolynomial":
        """The factor 1 - q^a T^b."""
        if (a, b) == (0, 0):
            return cls.zero()
        return cls._raw({(0, 0): 1, (a, b): -1})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, _POLY_LIKE):
            return NotImplemented
        return BivariatePolynomial._raw(_p_iadd(dict(self.terms), _coerce_poly(other).terms))

    __radd__ = __add__

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        if not isinstance(other, _POLY_LIKE):
            return NotImplemented
        return BivariatePolynomial._raw(_p_iadd(dict(self.terms), _coerce_poly(other).terms, -1))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, _POLY_LIKE):
            return NotImplemented
        return BivariatePolynomial._raw(_p_mul(self.terms, _coerce_poly(other).terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise UsageError("negative power of a polynomial")
        out = BivariatePolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = BivariatePolynomial.monomial(other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # equal by value; no caller keys on a polynomial

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- inspection ---------------------------------------------------------

    def coefficient(self, e_q: int, e_T: int) -> int:
        return self.terms.get((e_q, e_T), 0)

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """Terms as (coeff, e_q, e_T), ordered lexicographically by (e_T, e_q)."""
        return [
            (self.terms[(eq, et)], eq, et)
            for (et, eq) in sorted((et, eq) for (eq, et) in self.terms)
        ]

    def shift(self, dq: int = 0, dt: int = 0) -> "BivariatePolynomial":
        """Multiply by q^dq T^dt."""
        return BivariatePolynomial._raw(_p_scale(self.terms, 1, dq, dt))

    def scaled(self, c: int) -> "BivariatePolynomial":
        return BivariatePolynomial._raw(_p_scale(self.terms, c))

    def eval_q(self, q: int) -> dict[int, int]:
        """Exact evaluation at an integer q (q != 0): {e_T: integer coeff}.

        Negative q-exponents must cancel; raises if the result is not an
        integer Laurent polynomial in T.
        """
        return _engine().eval_q(self, q)

    def __repr__(self):
        return "BivariatePolynomial(%s)" % format_poly(self)


def _coerce_poly(x) -> BivariatePolynomial:
    if isinstance(x, BivariatePolynomial):
        return x
    if isinstance(x, int):
        return BivariatePolynomial.monomial(x)
    raise TypeError("cannot coerce %r to BivariatePolynomial" % (x,))


# the operands that _coerce_poly turns into a polynomial
_POLY_LIKE = (int, BivariatePolynomial)


# ---------------------------------------------------------------------------
# exact division by 1 - q^a T^b
# ---------------------------------------------------------------------------


def divide_out_factor(p: BivariatePolynomial, a: int, b: int) -> Optional[BivariatePolynomial]:
    """Exact quotient p / (1 - q^a T^b), or None when the factor does not divide."""
    if (a, b) == (0, 0):
        raise UsageError("1 - q^0 T^0 = 0 is not a divisor")
    if b < 0:
        raise UsageError("factor must have b >= 0")
    if p.is_zero():
        return BivariatePolynomial.zero()
    terms, left = _engine()._cancel(p.terms, [(a, b, 1)])
    return None if left[0] else BivariatePolynomial._raw(terms)


# ---------------------------------------------------------------------------
# FactoredRational
# ---------------------------------------------------------------------------

FactorKey = tuple[int, int]  # (a, b) denoting 1 - q^a T^b


class FactoredRational:
    """num / prod over den of (1 - q^a T^b)^mult.

    ``num`` is a Laurent polynomial in q and T, and ``den`` maps (a, b) to a
    positive multiplicity.  The constructor normalizes factors so that
    b >= 0, and a > 0 whenever b == 0, folding the units -q^-a T^-b of all
    flipped factors into the numerator in one pass.
    The represented value never changes under normalization or
    :meth:`reduced`.  Immutable by construction: ``den`` is a read-only view,
    and no attribute can be rebound.
    """

    __slots__ = ("num", "den")

    __setattr__ = __delattr__ = BivariatePolynomial.__setattr__

    def __reduce__(self):
        return FactoredRational, (self.num, dict(self.den))

    def __init__(
        self, num: BivariatePolynomial | int = 1, den: Optional[Mapping[FactorKey, int]] = None
    ):
        num = _coerce_poly(num)
        clean_den: dict[FactorKey, int] = {}
        sign, dq, dt = 1, 0, 0
        for (a, b), m in (den or {}).items():
            if m < 0:
                raise UsageError("negative factor multiplicity")
            if not m:
                continue
            if (a, b) == (0, 0):
                raise UsageError("denominator factor 1 - q^0 T^0 = 0")
            if b < 0 or (b == 0 and a < 0):
                # 1/(1 - q^a T^b) = -q^-a T^-b / (1 - q^-a T^-b)
                sign, dq, dt = sign * (-1) ** m, dq - a * m, dt - b * m
                a, b = -a, -b
            clean_den[(a, b)] = clean_den.get((a, b), 0) + m
        if sign != 1 or dq or dt:
            num = BivariatePolynomial._raw(_p_scale(num.terms, sign, dq, dt))
        if num.is_zero():
            clean_den = {}
        _set_fields(self, num=num, den=MappingProxyType(clean_den))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "FactoredRational":
        return cls(0)

    @classmethod
    def one_over(cls, factors: Iterable[FactorKey]) -> "FactoredRational":
        return cls(1, Counter(factors))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, _POLY_LIKE):
            return FactoredRational(self.num * _coerce_poly(other), self.den)
        if not isinstance(other, FactoredRational):
            return NotImplemented
        den = Counter(self.den)
        den.update(other.den)
        return FactoredRational(self.num * other.num, den)

    __rmul__ = __mul__

    def __neg__(self):
        return FactoredRational(self.num.scaled(-1), self.den)

    def __add__(self, other):
        if isinstance(other, _POLY_LIKE):
            other = FactoredRational(_coerce_poly(other))
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return FactoredRational.sum([self, other])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _POLY_LIKE):
            other = FactoredRational(_coerce_poly(other))
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    @staticmethod
    def sum(items: Sequence["FactoredRational"]) -> "FactoredRational":
        """Exact sum over the least common factor multiset: each numerator times
        its cofactor lcm / den (a shift and a subtraction per factor 1 - q^a T^b)
        into one dict or, under _p_mul's size rule for the whole sum, one packed
        integer read back once, the total so far times the factors each item
        adds to the lcm.  Nothing is expanded and then divided back."""
        return _engine().sum_rationals(items)

    # -- equality through the sum ---------------------------------------------

    def __eq__(self, other):
        """Exact equality: the difference, by :meth:`sum`, is zero."""
        if isinstance(other, _POLY_LIKE):
            other = FactoredRational(_coerce_poly(other))
        if not isinstance(other, FactoredRational):
            return NotImplemented
        if self.den == other.den:
            # the same denominator needs no cofactor, and the sum would still
            # pack both numerators and read the difference back (ten to fifteen
            # times slower on the funeq and residue identities)
            return self.num.terms == other.num.terms
        return FactoredRational.sum([self, -other]).is_zero()

    __hash__ = None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- normalization -------------------------------------------------------

    def reduced(self) -> "FactoredRational":
        """Cancel denominator factors that exactly divide the numerator.

        Factors with b == 0 are attempted first, then the T-positive factors,
        each copy unrolled only if it divides the numerator at q = 2, as every
        copy that divides exactly does (a one-sided test: the result is the
        same).  To cancel only some factors, reduce a value over those alone,
        as zeta_compact does with (q;q^2)_{n+1}.
        """
        return _engine().reduced(self)

    # -- substitutions -------------------------------------------------------

    def subs_inverse(self) -> "FactoredRational":
        """Joint substitution q -> q^-1, T -> T^-1, renormalized to standard form."""
        return _engine().subs_inverse(self)

    # -- series -------------------------------------------------------------

    def series_in_T(self, order: int) -> list[BivariatePolynomial]:
        """Coefficients of T^0 .. T^order as Laurent polynomials in q."""
        return _engine().series_in_T(self, order)

    def __repr__(self):
        return "FactoredRational(%s)" % format_plain(self)


# ---------------------------------------------------------------------------
# q-Pochhammer symbols and Gaussian binomials
# ---------------------------------------------------------------------------


def qpochhammer(a: BivariatePolynomial, step_exponent: int, m: int) -> BivariatePolynomial:
    """(a; q^step)_m = prod_{i=0}^{m-1} (1 - a q^{step*i}), for m >= 0."""
    check_limit("qpochhammer", "m", m)
    num = BivariatePolynomial.one()
    for i in range(m):
        # a constant term of a adds to the 1: 1 - q^0 T^0 is 0, 1 + q^0 T^0 is 2
        factor = _p_iadd({(0, 0): 1}, a.terms, -1, step_exponent * i)
        num = num * BivariatePolynomial._raw(factor)
    return num


@lru_cache(maxsize=None)
def gauss_binom(n: int, r: int, y_exponent: int) -> BivariatePolynomial:
    """Gaussian binomial coefficient binom(n, r)_Y at Y = q^y_exponent.

    Built from the Pascal recurrence
    binom(n,r) = binom(n-1,r) + Y^{n-r} binom(n-1,r-1), which keeps every
    intermediate value a Laurent polynomial.
    """
    check_limit("gauss_binom", "n", n)
    if r < 0 or r > n:
        return BivariatePolynomial.zero()
    if r == 0 or r == n:
        return BivariatePolynomial.one()
    return gauss_binom(n - 1, r, y_exponent) + gauss_binom(
        n - 1, r - 1, y_exponent
    ).shift(dq=y_exponent * (n - r))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def poly_to_json(p: BivariatePolynomial) -> list[list]:
    return [[str(c), eq, et] for (c, eq, et) in p.sorted_terms()]


def rational_to_json(f: FactoredRational) -> dict:
    """The numerator's least power of T as the unit, and the rest."""
    t = _t_low(f.num.terms)
    return {
        "num": poly_to_json(f.num.shift(dt=-t)),
        "unit": [1, 0, t],
        "den": sorted([a, b, m] for (a, b), m in f.den.items()),
    }


def rational_from_json(data: Mapping) -> FactoredRational:
    sign, e_q, e_T = data["unit"]
    num = BivariatePolynomial({(int(eq), int(et)): int(c) for c, eq, et in data["num"]})
    num = num.scaled(int(sign)).shift(int(e_q), int(e_T))
    den = {(int(a), int(b)): int(m) for a, b, m in data["den"]}
    return FactoredRational(num, den)


def rational_dumps(f: FactoredRational) -> str:
    import json

    return json.dumps(rational_to_json(f), separators=(",", ":"), sort_keys=True)


def rational_loads(s: str) -> FactoredRational:
    import json

    return rational_from_json(json.loads(s))


# ---------------------------------------------------------------------------
# textual rendering (plain and LaTeX-like, deterministic)
# ---------------------------------------------------------------------------


def _format_monomial(
    c: int, eq: int, et: int, latex: bool = False, qvar: str = "q", tvar: str = "T"
) -> str:
    parts = [
        var if e == 1 else ("%s^{%d}" if latex else "%s^%d") % (var, e)
        for var, e in ((qvar, eq), (tvar, et)) if e
    ]
    body = (" " if not latex else "").join(parts)
    if not parts:
        return str(c)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return "%d%s%s" % (c, "" if latex else " ", body)


def format_poly(
    p: BivariatePolynomial, latex: bool = False, qvar: str = "q", tvar: str = "T"
) -> str:
    if p.is_zero():
        return "0"
    out = []
    for c, eq, et in p.sorted_terms():
        s = _format_monomial(c, eq, et, latex, qvar, tvar)
        out.append((" - " + s[1:] if s.startswith("-") else " + " + s) if out else s)
    return "".join(out)


def _format_factor(a: int, b: int, m: int, latex: bool = False) -> str:
    s = "(1 - %s)" % _format_monomial(1, a, b, latex)
    if m > 1:
        s += "^{%d}" % m if latex else "^%d" % m
    return s


def sorted_factors(den: Mapping[FactorKey, int]) -> list[tuple[int, int, int]]:
    """(a, b, mult) ordered by ascending b, then ascending a."""
    return [(a, b, den[(a, b)]) for (b, a) in sorted((b, a) for (a, b) in den)]


def _format_rational(f: FactoredRational, latex: bool) -> str:
    t = _t_low(f.num.terms)
    rest = f.num.shift(dt=-t)
    num = format_poly(rest, latex=latex)
    if t:
        tpow = _format_monomial(1, 0, t, latex)
        one = rest.terms == {(0, 0): 1}
        num = tpow if one else ("%s(%s)" if latex else "%s (%s)") % (tpow, num)
    if not f.den:
        return num
    den = "".join(_format_factor(a, b, m, latex) for a, b, m in sorted_factors(f.den))
    return ("\\frac{%s}{%s}" if latex else "(%s) / (%s)") % (num, den)


def format_plain(f: FactoredRational) -> str:
    return _format_rational(f, latex=False)


def format_latex(f: FactoredRational) -> str:
    return _format_rational(f, latex=True)
