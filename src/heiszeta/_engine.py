"""The sum-and-division engine of ``heiszeta.exactalg``, loaded on first use.

``exactalg`` keeps the value types, the term accumulator, the schoolbook
product and the entry points; this module holds the code behind them that
only a sum, a division, a reduction, a series, a substitution or a large
product runs.  So a command that only multiplies small polynomials and
renders them, such as forms c and graded, `global` and the residue check,
never compiles it.

* Kronecker substitution: ``_p_mul_kronecker`` packs each operand into one
  Python int (term (e_q, e_T) in slot (e_T - t0) * width + e_q - q0),
  multiplies once and reads the product back.  In the packed layout a
  product with 1 - q^a T^b is a shift and a subtraction (``_kron_times``).
* The common-denominator sum (``sum_rationals``): each numerator times its
  cofactor, into one dict or, under ``_p_mul``'s size rule for the whole sum,
  one packed accumulation read back once, folded over the growing lcm.
* Division by 1 - u is one recurrence, y = x + u y: ``_unroll`` on the
  T-rows of ``_p_tslices`` for T-factors and series in T, ``_unroll_dense``
  on dense lists for constant factors, for ``_cancel``'s test at q = 2 and
  for the Dirichlet coefficients at q = p.  ``_cancel`` divides out factors
  in one row pass; a copy of 1 - q^a T^b is unrolled there only if
  1 - 2^a T^b divides the values at q = 2, an integer recurrence on one
  list: a copy that divides exactly divides at q = 2, so the one-sided test
  skips only copies the unroll would refuse.
"""

from __future__ import annotations

import sys
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import UsageError, check_limit
from .exactalg import (
    BivariatePolynomial,
    FactoredRational,
    FactorKey,
    _p_box,
    _p_iadd,
    _set_fields,
    _t_low,
    sorted_factors,
)

# ---------------------------------------------------------------------------
# Kronecker substitution
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the sum over a common denominator
# ---------------------------------------------------------------------------


def sum_rationals(items: Sequence[FactoredRational]) -> FactoredRational:
    """The body of :meth:`FactoredRational.sum`."""
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
# rows and the recurrence y = x + u y
# ---------------------------------------------------------------------------


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


def eval_q(p: BivariatePolynomial, q: int) -> dict[int, int]:
    """The body of :meth:`BivariatePolynomial.eval_q`."""
    if not q:
        raise UsageError("evaluation needs q != 0")
    out = {}
    lo = _t_low(p.terms)
    for k, row in enumerate(_p_tslices(p.terms, lo)):
        neg = -min(0, min(row, default=0))
        val, rem = divmod(sum(c * q ** (eq + neg) for eq, c in row.items()), q**neg)
        if rem:
            raise UsageError("evaluation at q=%d is not integral" % q)
        if val:
            out[lo + k] = val
    return out


# ---------------------------------------------------------------------------
# exact division by 1 - q^a T^b
# ---------------------------------------------------------------------------


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
# the bodies of reduced, subs_inverse and series_in_T
# ---------------------------------------------------------------------------


def reduced(f: FactoredRational) -> FactoredRational:
    """The body of :meth:`FactoredRational.reduced`."""
    if f.num.is_zero():
        return FactoredRational.zero()
    factors = sorted_factors(f.den)
    terms, left = _cancel(f.num.terms, factors)
    den = {(a, b): m for (a, b, _), m in zip(factors, left) if m}
    out = FactoredRational.__new__(FactoredRational)
    return _set_fields(out, num=BivariatePolynomial._raw(terms), den=MappingProxyType(den))


def subs_inverse(f: FactoredRational) -> FactoredRational:
    """The body of :meth:`FactoredRational.subs_inverse`."""
    num = BivariatePolynomial._raw({(-eq, -et): c for (eq, et), c in f.num.terms.items()})
    # the constructor folds each flipped factor 1 - q^-a T^-b back
    return FactoredRational(num, {(-a, -b): m for (a, b), m in f.den.items()})


def series_in_T(f: FactoredRational, order: int) -> list[BivariatePolynomial]:
    """The body of :meth:`FactoredRational.series_in_T`."""
    check_limit("series_in_T", "order", order)
    f = f.reduced()
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
