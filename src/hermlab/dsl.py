"""Metric-entry expression language: parsing, printing, jet evaluation.

Grammar (EBNF, also documented in the README):

    expr     = term { ("+" | "-") term } ;
    term     = unary { ("*" | "/") unary } ;
    unary    = "-" unary | power ;
    power    = atom { "^" intexp } ;          (* right associative *)
    atom     = NUMBER | "i" | COORD | FUNC "(" expr ")" | "(" expr ")" ;
    intexp   = [ "-" ] DIGITS ;
    FUNC     = "exp" | "ln" | "sqrt" | "conj" | "re" | "im" | "abs2" ;
    COORD    = "z" DIGITS ;                   (* 1-based, index <= n *)

"^" binds tighter than unary minus, so "-z1^2" is "-(z1^2)".  Chained
exponents fold right-associatively over the integer exponents, into one
integer of magnitude at most ``MAX_EXPONENT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateMetricError,
    MetricSyntaxError,
    OutOfDomainError,
    SingularEvaluationError,
)

FUNCTIONS = ("exp", "ln", "sqrt", "conj", "re", "im", "abs2")

HERMITIAN_TOL = 1e-10
MIN_EIGENVALUE = 1e-10


# largest |e^k| that a chained exponent a^e^k may fold to; e^k has about
# |k| log10|e| digits, so the bound is checked before the power is taken
MAX_EXPONENT = 10**6


# ----------------------------------------------------------------------
# AST
class _Node:
    """Trees compare and hash by their pre-order node list, built in a loop as ``_eval`` walks.

    A tree's repr is its :func:`to_source` text, which loops along operator
    chains where the field-by-field dataclass repr would recurse per node.
    """

    def _preorder(self):
        out, stack = [], [self]
        while stack:
            e = stack.pop()
            out.append(type(e) if isinstance(e, _Node) else e)
            stack.extend(vars(e).values() if isinstance(e, _Node) else ())
        return out

    def __eq__(self, other):
        return self._preorder() == other._preorder() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        return f"{type(self).__name__}({to_source(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Lit(_Node):
    value: complex


@dataclass(frozen=True, eq=False, repr=False)
class Coord(_Node):
    index: int  # 1-based


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Node):
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Pow(_Node):
    base: "Expr"
    exponent: int


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    fn: str
    arg: "Expr"


Expr = Lit | Coord | Neg | BinOp | Pow | Call


# ----------------------------------------------------------------------
# tokenizer
_OPS = set("+-*/^()")


@dataclass
class _Token:
    kind: str  # NUMBER | IDENT | OP | END
    text: str
    offset: int
    value: float = 0.0


def _tokenize(src):
    tokens = []
    i = 0
    m = len(src)
    while i < m:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(_Token("OP", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < m and src[i + 1].isdigit()):
            j = i
            while j < m and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < m and src[j] in "eE":
                k = j + 1
                if k < m and src[k] in "+-":
                    k += 1
                if k < m and src[k].isdigit():
                    j = k
                    while j < m and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                val = float(text)
            except ValueError:
                raise MetricSyntaxError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("NUMBER", text, i, val))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < m and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", src[i:j], i))
            i = j
            continue
        raise MetricSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("END", "", m))
    return tokens


# ----------------------------------------------------------------------
# parser
class _Parser:
    def __init__(self, src, n):
        self.src = src
        self.n = n
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == op:
            return self.advance()
        raise MetricSyntaxError(
            f"found {tok.text or 'end of input'!r}", tok.offset, expected=[op]
        )

    def parse(self):
        try:
            e = self.expr()
        except RecursionError:
            # each "(", function call and unary minus nests the descent
            # one level deeper; report the token at which it ran out
            raise MetricSyntaxError("expression nested too deeply", self.peek().offset) from None
        tok = self.peek()
        if tok.kind != "END":
            raise MetricSyntaxError(
                f"trailing input {tok.text!r}", tok.offset, expected=["end of input"]
            )
        return e

    def expr(self):
        e = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                e = BinOp(tok.text, e, self.term())
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.advance()
                e = BinOp(tok.text, e, self.unary())
            else:
                return e

    def unary(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        exponents = []  # (offset of the "^", exponent)
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "^":
                self.advance()
                exponents.append((tok.offset, self.intexp()))
            else:
                break
        if not exponents:
            return base
        # fold right-associatively over the integer exponents; a bad fold
        # is reported at the "^" that joins its two operands
        k = exponents[-1][1]
        for i in range(len(exponents) - 2, -1, -1):
            k = _fold_power(exponents[i][1], k, exponents[i + 1][0])
        return Pow(base, k)

    def intexp(self):
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "NUMBER" or not float(tok.value).is_integer() or "." in tok.text:
            raise MetricSyntaxError(
                f"found {tok.text or 'end of input'!r}",
                tok.offset,
                expected=["integer exponent"],
            )
        self.advance()
        return sign * int(tok.value)

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Lit(complex(tok.value))
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        if tok.kind == "IDENT":
            name = tok.text
            if name == "i":
                self.advance()
                return Lit(1j)
            if name in FUNCTIONS:
                self.advance()
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg)
            if name.startswith("z") and name[1:].isdigit():
                idx = int(name[1:])
                if idx < 1 or idx > self.n:
                    raise MetricSyntaxError(
                        f"coordinate {name} exceeds chart dimension n={self.n}",
                        tok.offset,
                    )
                self.advance()
                return Coord(idx)
            raise MetricSyntaxError(f"unknown identifier {name!r}", tok.offset)
        raise MetricSyntaxError(
            f"found {tok.text or 'end of input'!r}",
            tok.offset,
            expected=["number", "identifier", "("],
        )


def _fold_power(e, k, offset):
    """e^k of a chained exponent, as an integer of magnitude at most ``MAX_EXPONENT``."""
    if k < 0 and abs(e) != 1:
        raise MetricSyntaxError(f"exponent {e}^{k} is not an integer", offset)
    # the estimate passes at most e * MAX_EXPONENT on to the exact power
    if abs(e) > 1 and (
        abs(k) * math.log(abs(e)) > math.log(MAX_EXPONENT) + 1
        or abs(e) ** abs(k) > MAX_EXPONENT
    ):
        raise MetricSyntaxError(f"exponent {e}^{k} exceeds {MAX_EXPONENT}", offset)
    return e ** abs(k)  # for k < 0, e is 1 or -1 and e^k = e^|k|


def parse(src, n):
    """Parse an expression over coordinates z1..zn."""
    return _Parser(src, n).parse()


# ----------------------------------------------------------------------
# printer (precedence aware; parse(print(e)) == e)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _fmt_number(x):
    if x == int(x):
        return str(int(x))
    return repr(x)


def _print(e, parent_prec):
    if isinstance(e, Lit):
        v = e.value
        if v == 1j:
            return "i", _PREC["atom"]
        if v.imag == 0 and v.real >= 0:
            return _fmt_number(v.real), _PREC["atom"]
        if v.imag == 0:
            # negative real literal prints as a negation
            return f"-{_fmt_number(-v.real)}", _PREC["neg"]
        return f"({_fmt_number(v.real)} + {_fmt_number(v.imag)}*i)", _PREC["atom"]
    if isinstance(e, Coord):
        return f"z{e.index}", _PREC["atom"]
    # runs of unary minus and left-deep operator chains loop, as in _eval
    if isinstance(e, Neg):
        signs = 0
        while isinstance(e, Neg):
            signs, e = signs + 1, e.arg
        inner, prec = _print(e, _PREC["neg"])
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return "-" * signs + inner, _PREC["neg"]
    if isinstance(e, BinOp):
        chain = []
        while isinstance(e, BinOp):
            chain.append(e)
            e = e.left
        text, prec = _print(e, _PREC[chain[-1].op])
        for link in reversed(chain):
            my = _PREC[link.op]
            rhs, rp = _print(link.right, my)
            if prec < my:
                text = f"({text})"
            # binary operators parse left-associatively, so a right operand of
            # equal precedence always needs parentheses to keep the tree shape
            if rp <= my:
                rhs = f"({rhs})"
            text, prec = f"{text} {link.op} {rhs}", my
        return text, prec
    if isinstance(e, Pow):
        base, bp = _print(e.base, _PREC["pow"])
        if bp <= _PREC["pow"]:
            base = f"({base})"
        return f"{base}^{e.exponent}", _PREC["pow"]
    if isinstance(e, Call):
        inner, _ = _print(e.arg, 0)
        return f"{e.fn}({inner})", _PREC["atom"]
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e):
    """Render an AST back to parseable text."""
    return _print(e, 0)[0]


# ----------------------------------------------------------------------
# derivative slots: (dz_1 .. dz_n, dzbar_1 .. dzbar_n) in every jet,
# derivative and form array; real coordinates (x_1, y_1, ..., x_n, y_n).
# C and B below are the only definitions of the change of basis (README)
def real_from_wirtinger(n):
    """Matrix C with (d/dx_k, d/dy_k) rows over the 2n Wirtinger slots."""
    C = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        C[2 * k, k] = 1.0
        C[2 * k, n + k] = 1.0
        C[2 * k + 1, k] = 1.0j
        C[2 * k + 1, n + k] = -1.0j
    return C


def wirtinger_from_real(n):
    """Matrix B with (d/dz_k, d/dzbar_k) rows over the 2n real slots."""
    B = np.zeros((2 * n, 2 * n), dtype=complex)
    for k in range(n):
        B[k, 2 * k] = 0.5
        B[k, 2 * k + 1] = -0.5j
        B[n + k, 2 * k] = 0.5
        B[n + k, 2 * k + 1] = 0.5j
    return B


def conj_slots(X, *axes):
    """Complex conjugate of X with the dz / dzbar halves of ``axes`` swapped.

    On a derivative slot this differentiates the conjugate
    (d/dz conj(f) = conj(d/dzbar f)); on form slots it is the conjugate form.
    """
    Y = np.roll(X, [X.shape[a] // 2 for a in axes], axis=axes)
    return np.conjugate(Y, out=Y)  # in place: one temporary the size of X, not two


# ----------------------------------------------------------------------
# evaluation
#
# Expressions are evaluated at a batch of points z[..., n] in one walk of
# the tree.  A batched jet is the triple (v, d1, d2) of the values v[...],
# the first Wirtinger derivatives d1[..., c] and the second d2[..., c, d],
# over the derivative slots above; each rule below is the one of the
# scalar :class:`~hermlab.jets.Jet2`.  A derivative that vanishes
# identically is None, so constants carry no arrays, and order 0 computes
# values only.  One point is the batch with no leading axes.
#
# Values are multiplied, divided and raised to integer powers as Python
# complex numbers are (:func:`_cmul`, :func:`_cdiv`, :func:`_cpowi`), not by
# numpy's complex loops, which may fuse a multiply and an add: so z * conj(z)
# is exactly real and conj(f) * conj(g) exactly conj(f * g).  Finite
# differences of values amplify the last bit by 1/h^2, and the oracle's
# check that the real metric is real relies on these symmetries.
def _first(mask):
    """Index of the first true entry of ``mask``, or None."""
    hits = np.argwhere(mask)
    return tuple(hits[0]) if len(hits) else None


def _singular_where(bad, z, message):
    """Raise SingularEvaluationError at the first point where ``bad`` holds."""
    index = _first(np.broadcast_to(bad, z.shape[:-1]))
    if index is not None:
        raise SingularEvaluationError(message(index), point=z[index])


def _times(s, x, slots):
    """The batched scalar s times a derivative array with ``slots`` trailing axes."""
    return None if x is None else s.reshape(s.shape + (1,) * slots) * x


def _add(x, y):
    if x is None:
        return y
    return x if y is None else x + y


def _neg(x):
    return None if x is None else -x


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _complex(re, im):
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _cmul(a, b):
    """a * b rounded as Python's complex product, one rounding per real product."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cdiv(a, b):
    """a / b by Python's complex quotient (Smith's method)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        by_real = np.abs(b.real) >= np.abs(b.imag)
        ratio = np.where(by_real, b.imag / b.real, b.real / b.imag)
        denom = np.where(by_real, b.real + b.imag * ratio, b.real * ratio + b.imag)
        re = np.where(by_real, a.real + a.imag * ratio, a.real * ratio + a.imag)
        im = np.where(by_real, a.imag - a.real * ratio, a.imag * ratio - a.real)
        return _complex(re / denom, im / denom)


def _cpowi(v, k):
    """v ** k for an integer k >= 0, by Python's binary powering (|k| <= 100)."""
    if k > 100:
        return v**k
    result, mask = np.ones_like(v), 1
    while k >= mask:
        if k & mask:
            result = _cmul(result, v)
        mask <<= 1
        v = _cmul(v, v)
    return result


def _mul(a, b):
    (av, a1, a2), (bv, b1, b2) = a, b
    d2 = _add(_times(av, b2, 2), _times(bv, a2, 2))
    if a1 is not None and b1 is not None:
        d2 = _add(d2, _outer(a1, b1)) + _outer(b1, a1)
    return _cmul(av, bv), _add(_times(av, b1, 1), _times(bv, a1, 1)), d2


def _scale(a, c):
    return tuple(None if x is None else x * c for x in a)


def _compose(a, f0, f1, f2):
    """f(a) for a holomorphic f with value f0 and derivatives f1, f2 at a's values."""
    _, a1, a2 = a
    d2 = _times(f1, a2, 2)
    if a1 is not None:
        d2 = _add(d2, _times(f2, _outer(a1, a1), 2))
    return f0, _times(f1, a1, 1), d2


def _reciprocal(a, z):
    av, a1, a2 = a
    _singular_where(av == 0, z, lambda i: "division by a jet with zero value")
    v = _cdiv(1.0, av)
    # the array comes first in these products, as in Jet2.reciprocal: numpy's
    # fused complex product is not commutative in its last bit
    v1, v2 = v[..., None], v[..., None, None]
    d1 = None if a1 is None else -a1 * v1 * v1
    d2 = None if a2 is None else -a2 * v2 * v2
    if a1 is not None:
        d2 = _add(d2, 2.0 * _outer(a1, a1) * v2 * v2 * v2)
    return v, d1, d2


def _conj(a):
    """Complex conjugate; swaps the dz and dzbar derivative slots."""
    v, d1, d2 = a
    return (
        np.conj(v),
        None if d1 is None else conj_slots(d1, -1),
        None if d2 is None else conj_slots(d2, -2, -1),
    )


def _right_halfplane(a, z, name):
    v = np.broadcast_to(a[0], z.shape[:-1])
    _singular_where(
        v.real <= 0,
        z,
        lambda i: f"{name} requires an argument with positive real part, got {v[i]}",
    )


def _powi(a, k, z):
    if k == 0:
        return np.asarray(1.0 + 0j), None, None
    if k < 0:
        return _powi(_reciprocal(a, z), -k, z)
    v = a[0]
    f1 = k * _cpowi(v, k - 1)
    f2 = k * (k - 1) * _cpowi(v, k - 2) if k >= 2 else np.zeros_like(v)
    return _compose(a, _cpowi(v, k), f1, f2)


def _binop(op, a, b, z):
    if op == "+":
        return tuple(_add(x, y) for x, y in zip(a, b))
    if op == "-":
        return tuple(_add(x, _neg(y)) for x, y in zip(a, b))
    if op == "*":
        return _mul(a, b)
    return _mul(a, _reciprocal(b, z))


def _eval(e, z, order):
    if isinstance(e, Lit):
        return np.asarray(e.value, dtype=complex), None, None
    if isinstance(e, Coord):
        d1 = None
        if order:
            d1 = np.zeros(2 * z.shape[-1], dtype=complex)
            d1[e.index - 1] = 1.0
        return z[..., e.index - 1], d1, None
    # a run of unary minus signs and the left-deep chain of a flat sum or
    # product are walked by loops, not by recursion (a long one would
    # overflow the stack), in the order recursion takes: operand by operand
    if isinstance(e, Neg):
        signs = 0
        while isinstance(e, Neg):
            signs, e = signs + 1, e.arg
        a = _eval(e, z, order)
        for _ in range(signs):
            a = tuple(_neg(x) for x in a)
        return a
    if isinstance(e, BinOp):
        chain = []
        while isinstance(e, BinOp):
            chain.append(e)
            e = e.left
        a = _eval(e, z, order)
        for link in reversed(chain):
            a = _binop(link.op, a, _eval(link.right, z, order), z)
        return a
    if isinstance(e, Pow):
        return _powi(_eval(e.base, z, order), e.exponent, z)
    if isinstance(e, Call):
        a = _eval(e.arg, z, order)
        if e.fn == "exp":
            ev = np.exp(a[0])
            return _compose(a, ev, ev, ev)
        if e.fn == "ln":
            _right_halfplane(a, z, "ln")
            v = a[0]
            return _compose(a, np.log(v), _cdiv(1.0, v), _cdiv(-1.0, _cmul(v, v)))
        if e.fn == "sqrt":
            _right_halfplane(a, z, "sqrt")
            r = np.sqrt(a[0])
            return _compose(a, r, 0.5 / r, -0.25 / _cmul(r, a[0]))
        if e.fn == "conj":
            return _conj(a)
        if e.fn == "re":
            return _scale(tuple(_add(x, y) for x, y in zip(a, _conj(a))), 0.5)
        if e.fn == "im":
            return _scale(tuple(_add(x, _neg(y)) for x, y in zip(a, _conj(a))), -0.5j)
        return _mul(a, _conj(a))
    raise TypeError(f"not an expression node: {e!r}")


def _batch_jet(e, points, order=2):
    """Batched jet (v, d1, d2) of ``e`` at points [..., n] (None: zero).

    Overflow gives non-finite values rather than a warning; division by
    zero and ``ln``/``sqrt`` off the right half-plane raise
    :class:`SingularEvaluationError` at the first such point.
    """
    z = np.asarray(points, dtype=complex)
    if z.ndim == 1:  # numpy scalar arithmetic rounds differently from array loops
        return tuple(None if x is None else x[0] for x in _batch_jet(e, z[None], order))
    with np.errstate(over="ignore", invalid="ignore"):
        jet = _eval(e, z, order)
    shape = z.shape[:-1]
    return tuple(
        None if x is None else np.broadcast_to(x, shape + x.shape[x.ndim - k :])
        for k, x in enumerate(jet)
    )


def eval_value(e, point):
    """Value-only evaluation (used by finite-difference oracles)."""
    return complex(_batch_jet(e, point, order=0)[0])


# ----------------------------------------------------------------------
# metric fields
DEFAULT_BOX = (-0.9, 0.9, -0.9, 0.9)


@dataclass
class MetricField:
    """An n x n Hermitian matrix of expressions g_{i jbar}(z, zbar).

    ``constraints`` are expressions whose real part must be positive at
    every admissible point.  ``box`` gives a per-coordinate sampling
    rectangle (re_lo, re_hi, im_lo, im_hi).  Points are one point [n] or a
    batch [..., n]; batched answers carry the same leading axes.
    """

    name: str
    n: int
    entries: list  # n x n nested list of Expr
    constraints: list = field(default_factory=list)
    box: Optional[list] = None

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("metric entries must form an n x n array")
        if self.box is None:
            self.box = [DEFAULT_BOX] * self.n
        self.box = [tuple(b) for b in self.box]

    @classmethod
    def from_text(cls, name, n, entry_texts, constraint_texts=(), box=None):
        entries = [[parse(entry_texts[i * n + j], n) for j in range(n)] for i in range(n)]
        constraints = [parse(c, n) for c in constraint_texts]
        return cls(name, n, entries, constraints, box)

    def entry_sources(self):
        return [to_source(self.entries[i][j]) for i in range(self.n) for j in range(self.n)]

    def constraint_sources(self):
        return [to_source(c) for c in self.constraints]

    def _violations(self, z):
        """Per constraint, where its real part is not positive at the points z."""
        return [_batch_jet(c, z, order=0)[0].real <= 0 for c in self.constraints]

    def admissible_mask(self, points):
        """Whether each point satisfies every constraint."""
        z = np.asarray(points, dtype=complex)
        if not self.constraints:
            return np.ones(z.shape[:-1], dtype=bool)
        return ~np.any(self._violations(z), axis=0)

    def admissible(self, p):
        return bool(self.admissible_mask(p))

    def check_point(self, points):
        z = np.asarray(points, dtype=complex)
        violations = self._violations(z)
        index = _first(np.any(violations, axis=0)) if violations else None
        if index is not None:
            c = next(c for c, bad in zip(self.constraints, violations) if bad[index])
            raise OutOfDomainError(
                f"point {z[index]} violates constraint {to_source(c)!r} of metric {self.name!r}"
            )
        return z

    def _reject(self, bad, z, message):
        index = _first(bad)
        if index is not None:
            raise DegenerateMetricError(f"metric {self.name!r} is {message(index)}")

    def evaluate(self, points):
        """Value, first and second derivative arrays of the metric.

        Returns gv[..., i, j], dg[..., i, j, c] and ddg[..., i, j, c, d]
        over the derivative slots of this module.  Raises
        :class:`OutOfDomainError` where a constraint fails and, through
        :meth:`check_jets` at ``HERMITIAN_TOL``,
        :class:`DegenerateMetricError` where g is degenerate.
        """
        z = np.asarray(points, dtype=complex)
        batch = self.check_point(z[None] if z.ndim == 1 else z)
        arrays = self._evaluate(batch)
        self.check_jets(batch, *arrays, HERMITIAN_TOL)
        return tuple(x[0] for x in arrays) if z.ndim == 1 else arrays

    def _evaluate(self, z):
        n, m = self.n, 2 * self.n
        shape = z.shape[:-1]
        gv = np.empty(shape + (n, n), dtype=complex)
        dg = np.zeros(shape + (n, n, m), dtype=complex)
        ddg = np.zeros(shape + (n, n, m, m), dtype=complex)
        for i in range(n):
            for j in range(n):
                gv[..., i, j], d1, d2 = _batch_jet(self.entries[i][j], z)
                if d1 is not None:
                    dg[..., i, j, :] = d1
                if d2 is not None:
                    ddg[..., i, j, :, :] = d2
        return gv, dg, ddg

    def check_jets(self, z, gv, dg, ddg, hermitian_tol):
        """Check metric jets at the points z [..., n], laid out as :meth:`evaluate` returns them.

        Raises :class:`DegenerateMetricError` where g is not finite, not
        Hermitian to ``hermitian_tol`` over every jet slot (entry (i, j)
        against the conjugate of entry (j, i), dz and dzbar slots swapped)
        or not positive definite, naming the first such point.
        """
        lead = z.shape[:-1]
        jets = (gv, dg, ddg)

        def worst(X):  # the largest entry at each point
            return X.reshape(lead + (-1,)).max(axis=-1)

        nonfinite = np.logical_or.reduce([worst(~np.isfinite(x)) for x in jets])
        self._reject(nonfinite, z, lambda i: f"not finite at {z[i]}")
        def defect(k, X):  # |X - X^H|, the dz/dzbar halves of X's k derivative slots swapped
            Y = conj_slots(X, *range(-k, 0))
            H = Y.swapaxes(-k - 2, -k - 1)
            np.subtract(X, H, out=H)  # in place: a block's jets are the largest arrays here
            return np.abs(Y)  # the entries of |X - H| in Y's order: the same maximum

        herm = np.maximum.reduce([worst(defect(k, X)) for k, X in enumerate(jets)])
        self._reject(
            herm > hermitian_tol,
            z,
            lambda i: f"not Hermitian at {z[i]} (residual {herm[i]:.3e})",
        )
        eigs = np.linalg.eigvalsh((gv + gv.conj().swapaxes(-2, -1)) / 2).min(axis=-1)
        self._reject(
            eigs <= MIN_EIGENVALUE,
            z,
            lambda i: f"not positive definite at {z[i]} (min eigenvalue {eigs[i]:.3e})",
        )

    def values_at(self, p):
        """Value-only metric matrix (no admissibility or shape checks)."""
        z = np.asarray(p, dtype=complex)
        rows = [
            np.stack([_batch_jet(e, z, order=0)[0] for e in row], axis=-1)
            for row in self.entries
        ]
        return np.stack(rows, axis=-2)


def conformal_scale(base, u_expr, name=None):
    """Multiply every metric entry by e^{2u} at the expression level."""
    factor = Call("exp", BinOp("*", Lit(2.0 + 0j), u_expr))
    entries = [
        [BinOp("*", factor, base.entries[i][j]) for j in range(base.n)]
        for i in range(base.n)
    ]
    return MetricField(
        name or f"{base.name}_conformal",
        base.n,
        entries,
        list(base.constraints),
        [tuple(b) for b in base.box],
    )
