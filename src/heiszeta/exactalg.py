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
substitution packs each operand into one Python int (term (e_q, e_T) in slot
(e_T - t0) * width + e_q - q0), multiplies once and reads the product back,
at about one slot per cell of the product's (q, T) box.  The size rule takes
the Kronecker path when the shorter operand has at least 8 terms and the box
has at most half as many cells as there are pairs of terms.  In the packed
layout a product with 1 - q^a T^b is a shift and a subtraction.

Sums multiply by cofactors and never expand a common denominator only to
divide it back: on dicts by ``_p_iadd``, or, under the size rule applied to the
whole sum, in one packed accumulation read back once, folded over the growing lcm.
Equality compares the numerators of two sides over the same denominator, and
otherwise asks the sum whether their difference is zero.

Division by 1 - u is one recurrence, y = x + u y: ``_unroll`` on the T-rows
of ``_p_tslices`` for T-factors and series in T, ``_unroll_dense`` on dense
lists for constant factors, for ``_cancel``'s test at q = 2 and for the
Dirichlet coefficients at q = p.
``reduced`` cancels factors in one row pass (``_cancel``), of which
``divide_out_factor`` is the one-factor case.  A copy of 1 - q^a T^b is
unrolled there only if 1 - 2^a T^b divides the values at q = 2, an integer
recurrence on one list: a copy that divides exactly divides at q = 2, so the
one-sided test skips only copies the unroll would refuse.

The module also provides the finite q-Pochhammer products, the Gaussian
binomial coefficients, the substitution ``(q,T) -> (q^-1,T^-1)``, and the
plain and LaTeX renderings.
"""

from __future__ import annotations

import sys
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
            return _p_mul_kronecker(a, b)
    return _p_mul_schoolbook(a, b)


def _p_mul_schoolbook(a: dict, b: dict) -> dict:
    """Product by the term-by-term loop; fastest with the shorter operand as a."""
    out: dict = {}
    for (qa, ta), ca in a.items():
        _p_iadd(out, b, ca, qa, ta)
    return out


def _slot_bytes(bits: int) -> int:
    """Bytes per packed slot holding signed values of |c| < 2^(bits-1)."""
    w = (bits + 7) // 8
    return w if w >= 8 else 1 << (w - 1).bit_length()  # 1, 2 and 4 read fastest


# memoryview formats that read a little-endian slot of 1, 2, 4 or 8 bytes
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _kron_unpack(value: int, w: int, width: int, rows: int, q0: int, t0: int) -> dict:
    """Raw dict of a packed polynomial whose slot (e_T - t0) * width + (e_q - q0)
    holds a signed coefficient of |c| < 2^(8w-1).  A bias of 2^(8w-1) added to
    every slot makes each slot nonnegative, so each is read back on its own."""
    cells = width * rows
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * cells, "little")
    raw = (value + bias).to_bytes(cells * w, "little")
    fmt = _SLOT_FORMATS.get(w)
    if fmt:
        slots = memoryview(raw).cast(fmt).tolist()
    else:
        slots = [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]
    out: dict = {}
    for row in range(rows):
        line = slots[row * width : (row + 1) * width]
        if line.count(half) == width:
            continue
        et = t0 + row
        for j, v in enumerate(line):
            if v != half:
                out[(q0 + j, et)] = v - half
    return out


def _kron_pack(p: dict, box: tuple[int, int, int, int], width: int, w: int) -> int:
    """The signed integer sum of c * 2^(8*w*slot) over the terms of p."""
    q0, q1, t0, t1 = box
    size = ((t1 - t0) * width + q1 - q0 + 2) * w
    digits = bytearray(size)
    borrows = None
    for (eq, et), c in p.items():
        i = ((et - t0) * width + eq - q0) * w
        digits[i : i + w] = c.to_bytes(w, "little", signed=True)
        if c < 0:
            # the two's-complement digit reads as c + 2^(8w): take 1 from the next slot
            if borrows is None:
                borrows = bytearray(size)
            borrows[i + w] = 1
    out = int.from_bytes(digits, "little")
    if borrows is not None:
        out -= int.from_bytes(borrows, "little")
    return out


def _kron_times(value: int, factors: Mapping, w: int, width: int) -> int:
    """value times prod (1 - q^a T^b)^mult in the packed layout of slots of w
    bytes and rows of width slots: each factor is a shift and a subtraction.
    Every factor needs a + b * width > 0."""
    for (a, b), m in factors.items():
        shift = 8 * w * (a + b * width)
        for _ in range(m):
            value -= value << shift
    return value


def _p_mul_kronecker(a: dict, b: dict) -> dict:
    """Product by Kronecker substitution: one bigint multiply.

    Term (e_q, e_T) of an operand goes to slot (e_T - t0) * width + (e_q - q0)
    of one Python int, where (q0, t0) is the operand's lowest corner and width
    the q-extent of the product, so slot indices add under multiplication and
    no product term spills into the next row.  Each slot is a whole number of
    bytes, wide enough for every product coefficient; negative coefficients
    are packed in two's complement.  Both operands must be nonempty.
    """
    box_a, box_b = _p_box(a), _p_box(b)
    width = box_a[1] - box_a[0] + box_b[1] - box_b[0] + 1
    rows = box_a[3] - box_a[2] + box_b[3] - box_b[2] + 1
    bits = max(map(abs, a.values())).bit_length() + max(map(abs, b.values())).bit_length()
    w = _slot_bytes(bits + min(len(a), len(b)).bit_length() + 1)
    product = _kron_pack(a, box_a, width, w) * _kron_pack(b, box_b, width, w)
    return _kron_unpack(product, w, width, rows, box_a[0] + box_b[0], box_a[2] + box_b[2])


def _p_scale(a: dict, c: int, dq: int = 0, dt: int = 0) -> dict:
    """a * c * q^dq * T^dt as a raw dict."""
    if c == 0:
        return {}
    if c == 1 and dq == 0 and dt == 0:
        return dict(a)
    return {(eq + dq, et + dt): cc * c for (eq, et), cc in a.items()}


def _p_tslices(a: Mapping, lo: int, top: Optional[int] = None) -> list[dict[int, int]]:
    """The row layout of a from T^lo, which is at most its least T-exponent:
    a list whose row k is {e_q: coeff} of T^(lo + k), through T^top (by
    default the top degree)."""
    if top is None:
        top = max((et for _, et in a), default=lo - 1)
    rows: list[dict[int, int]] = [{} for _ in range(top - lo + 1)]
    for (eq, et), c in a.items():
        if et <= top:
            rows[et - lo][eq] = c
    return rows


def _unroll(rows: list[dict[int, int]], a: int, b: int, top: int) -> list[dict[int, int]]:
    """y_k = x_k + q^a y_{k-b} for k <= top (b >= 1), in place on the rows x_0 .. x_top:
    the series of x / (1 - q^a T^b) in T, cut after T^top."""
    for k in range(b, top + 1):
        prev = rows[k - b]
        if prev:
            cur = rows[k]
            for eq, c in prev.items():
                s = cur.get(eq + a, 0) + c
                if s:
                    cur[eq + a] = s
                else:
                    del cur[eq + a]
    return rows


def _unroll_dense(xs: list[int], step: int, mult: int) -> list[int]:
    """y_j = x_j + mult y_{j-step} in place (step >= 1): the series of
    sum x_j u^j / (1 - mult u^step), cut after u^(len(xs) - 1)."""
    for j in range(step, len(xs)):
        xs[j] += mult * xs[j - step]
    return xs


def _divide_dense(xs: list[int], step: int, mult: int = 1) -> Optional[list[int]]:
    """Quotient of sum x_j u^j by 1 - mult u^step (step >= 1), or None: the
    series unrolled in place, if its top step entries vanish, without them."""
    _unroll_dense(xs, step, mult)
    top = max(len(xs) - step, 0)
    if any(xs[top:]):
        return None
    del xs[top:]
    return xs


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
        if not q:
            raise UsageError("evaluation needs q != 0")
        out = {}
        lo = _t_low(self.terms)
        for k, row in enumerate(_p_tslices(self.terms, lo)):
            neg = -min(0, min(row, default=0))
            val, rem = divmod(sum(c * q ** (eq + neg) for eq, c in row.items()), q**neg)
            if rem:
                raise UsageError("evaluation at q=%d is not integral" % q)
            if val:
                out[lo + k] = val
        return out

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
    terms, left = _cancel(p.terms, [(a, b, 1)])
    return None if left[0] else BivariatePolynomial._raw(terms)


def _cancel(terms: Mapping, factors: Sequence[tuple[int, int, int]]) -> tuple[dict, list]:
    """Divide terms by each (1 - q^a T^b)^m of factors in order, one copy at a
    time while a copy divides exactly: constant factors on dense row lists kept
    from one factor to the next, T-factors on the sparse rows once the copy
    divides at q = 2.  Returns the quotient's terms and the copies of each
    factor that did not divide."""
    t0 = _t_low(terms)
    rows, dense, left, at2 = _p_tslices(terms, t0), False, [], None
    for a, b, m in factors:
        if dense != (b == 0):
            rows, dense = [_dense_row(r) if b == 0 else _sparse_row(r) for r in rows], b == 0
        if b and at2 is None:
            # 2^-lo times the rows at q = 2; a constant factor divides them by a constant
            lo = min((min(row) for row in rows if row), default=0)
            at2 = [sum(c << (eq - lo) for eq, c in row.items()) for row in rows]
        # for a < 0, 1 - 2^a T^b divides x(T) iff 1 - 2^-a T^b divides T^top x(1/T)
        step = -1 if a < 0 else 1
        while m:
            if dense:
                quot = _divide_dense_rows(rows, a)
            elif (at2_quot := _divide_dense(at2[::step], b, 1 << abs(a))) is None:
                break
            else:
                keep = max(len(rows) - b, 0)
                # the series of the quotient in T must stop at T^(top - b)
                quot = _unroll([dict(row) for row in rows], a, b, len(rows) - 1)
                quot = None if any(quot[keep:]) else quot[:keep]
            if quot is None:
                break
            rows, m = quot, m - 1
            if not dense:
                at2 = at2_quot[::step]
        left.append(m)
    if dense:
        rows = [_sparse_row(r) for r in rows]
    return {(eq, t0 + k): c for k, row in enumerate(rows) for eq, c in row.items()}, left


def _dense_row(row: dict[int, int]) -> Optional[tuple[int, list[int]]]:
    """(lowest e_q, dense coefficient list) of a row {e_q: coeff}; None if empty."""
    lo = min(row, default=0)
    return (lo, [row.get(j, 0) for j in range(lo, max(row) + 1)]) if row else None


def _sparse_row(row: Optional[tuple[int, list[int]]]) -> dict[int, int]:
    return {row[0] + j: c for j, c in enumerate(row[1]) if c} if row else {}


def _divide_dense_rows(rows: list, a: int) -> Optional[list]:
    """Dense rows divided by 1 - q^a (a != 0), or None; rows are kept."""
    out = []
    for row in rows:
        if row:
            lo, xs = row
            # 1 - q^a = -q^a (1 - q^-a) for a < 0
            xs = _divide_dense([-x for x in xs] if a < 0 else xs[:], abs(a))
            if xs is None:
                return None
            row = (lo - min(a, 0), xs)
        out.append(row)
    return out


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
        items = [it for it in items if not it.num.is_zero()]
        if len(items) < 2:
            return items[0] if items else FactoredRational.zero()
        lcm: dict[FactorKey, int] = {}
        for it in items:
            lcm.update((k, m) for k, m in it.den.items() if m > lcm.get(k, 0))
        parts, spans, pairs = [], [], 0
        for it in items:
            terms, missing = it.num.terms, _missing(it.den, lcm)
            (lo, hi, top, count), box = _span(missing), _p_box(terms)
            parts.append((terms, missing, box, it.den))
            spans.append((box[0] + lo, box[1] + hi, box[2], box[3] + top))
            pairs += len(terms) * count
        q0, q1, t0, t1 = (f(s[i] for s in spans) for i, f in enumerate((min, max, min, max)))
        width, rows = q1 - q0 + 1, t1 - t0 + 1
        if 2 * width * rows > pairs:
            total: dict = {}
            for terms, missing, _, _ in parts:
                for (a, b), m in missing.items():  # times 1 - q^a T^b, m times
                    for _ in range(m):
                        terms = _p_iadd(dict(terms), terms, -1, a, b)
                _p_iadd(total, terms)
        else:
            # each product's coefficients are below 2^(bits of num + sum of mult)
            bits = max(max(map(abs, t.values())).bit_length() + sum(m.values())
                       for t, m, _, _ in parts)
            w = _slot_bytes(bits + len(parts).bit_length() + 1)
            # seen, the lcm of the items so far, starts at the first item's factors:
            # a factor of every item may shift by <= 0, and is never applied
            value, seen = 0, dict(parts[0][3])
            for terms, _, box, den in parts:
                value = _kron_times(value, _missing(seen, den), w, width)
                seen.update((k, m) for k, m in den.items() if m > seen.get(k, 0))
                packed = _kron_times(_kron_pack(terms, box, width, w), _missing(den, seen), w, width)
                value += packed << 8 * w * ((box[2] - t0) * width + box[0] - q0)
            total = _kron_unpack(value, w, width, rows, q0, t0)
        return FactoredRational(BivariatePolynomial._raw(total), lcm)

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
        if self.num.is_zero():
            return FactoredRational.zero()
        factors = sorted_factors(self.den)
        terms, left = _cancel(self.num.terms, factors)
        den = {(a, b): m for (a, b, _), m in zip(factors, left) if m}
        out = FactoredRational.__new__(FactoredRational)
        return _set_fields(out, num=BivariatePolynomial._raw(terms), den=MappingProxyType(den))

    # -- substitutions -------------------------------------------------------

    def subs_inverse(self) -> "FactoredRational":
        """Joint substitution q -> q^-1, T -> T^-1, renormalized to standard form."""
        num = BivariatePolynomial._raw({(-eq, -et): c for (eq, et), c in self.num.terms.items()})
        # the constructor folds each flipped factor 1 - q^-a T^-b back
        return FactoredRational(num, {(-a, -b): m for (a, b), m in self.den.items()})

    # -- series -------------------------------------------------------------

    def series_in_T(self, order: int) -> list[BivariatePolynomial]:
        """Coefficients of T^0 .. T^order as Laurent polynomials in q."""
        f = self.reduced()
        if f.num.is_zero():
            return [BivariatePolynomial.zero()] * (order + 1)
        lo = _t_low(f.num.terms)
        if lo < 0:
            raise UsageError("pole of order %d at T = 0" % -lo)
        for (a, b) in f.den:
            if b == 0:
                raise UsageError("denominator factor 1 - q^%d does not divide the numerator" % a)
        rows = _p_tslices(f.num.terms, 0, order)
        for (a, b), m in sorted(f.den.items()):
            for _ in range(m):
                _unroll(rows, a, b, order)
        return [BivariatePolynomial._raw({(eq, 0): c for eq, c in row.items()}) for row in rows]

    def __repr__(self):
        return "FactoredRational(%s)" % format_plain(self)


def _missing(den: Mapping[FactorKey, int], target: Mapping[FactorKey, int]) -> dict:
    """The factors of target that den lacks, with the multiplicities it lacks."""
    return {k: m - den.get(k, 0) for k, m in target.items() if m > den.get(k, 0)}


def _span(factors: Mapping[FactorKey, int]) -> tuple[int, int, int, int]:
    """(lowest e_q, highest e_q, T-degree, largest term count) of the expanded
    product of factors with b >= 0."""
    lo = hi = top = 0
    count = 1
    for (a, b), m in factors.items():
        lo += min(a, 0) * m
        hi += max(a, 0) * m
        top += b * m
        count *= m + 1
    return lo, hi, top, count


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
