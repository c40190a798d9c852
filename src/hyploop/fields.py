"""Curvature fields K(z1, z2): parsing, evaluation, symbolic derivatives.

A field is given as text ("z1^2 + (z2-2)^2", "tanh(z1)", ...) and parsed
into a small immutable AST, compiled once into a numpy closure cached on
the expression; the compiler keeps domain checks only where they can fire.
Partial derivatives are built symbolically (no simplification beyond
folding zeros and ones), once per expression.  The module also hosts the
sampled nonexistence report: a bounded field, or one whose gradient pairs
with a Killing field at a fixed sign, admits no loop of that curvature,
and ``check_nonexistence`` looks for that evidence on a grid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EvalDomainError, FieldSyntaxError

FUNCTIONS = ("sin", "cos", "exp", "log", "tanh", "atan", "sqrt", "abs")
VARIABLES = ("z1", "z2")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class FieldExpr:
    """Base node.  Nodes are immutable; evaluation is deterministic."""

    def __call__(self, z1, z2):
        return eval_field(self, z1, z2)

    # compiled on first evaluation, then kept on the expression
    _kernel = cached_property(lambda self: _compile(self))
    _grad = cached_property(lambda self: (self.diff("z1"), self.diff("z2")))

    def __repr__(self):
        return f"{type(self).__name__}({self.text()})"

    def text(self) -> str:
        raise NotImplementedError

    def diff(self, var: str) -> "FieldExpr":
        raise NotImplementedError

    # precedence for printing: higher binds tighter
    prec = 100


@dataclass(frozen=True, repr=False)
class Const(FieldExpr):
    value: float

    @property
    def prec(self):  # "-2.0" prints a unary minus, so it binds like Neg: "(-2.0)^z1"
        return Neg.prec if np.signbit(self.value) else FieldExpr.prec

    def text(self):
        return repr(float(self.value))

    def diff(self, var):
        return Const(0.0)


@dataclass(frozen=True, repr=False)
class Var(FieldExpr):
    name: str

    def text(self):
        return self.name

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)


@dataclass(frozen=True, repr=False)
class Neg(FieldExpr):
    arg: FieldExpr
    prec = 35

    def text(self):
        return "-" + _wrap(self.arg, self.prec + 1)

    def diff(self, var):
        return _neg(self.arg.diff(var))


@dataclass(frozen=True, repr=False)
class BinOp(FieldExpr):
    op: str
    left: FieldExpr
    right: FieldExpr

    _PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}

    @property
    def prec(self):
        return self._PREC[self.op]

    def text(self):
        p = self.prec
        if self.op == "^":
            # right-associative
            return _wrap(self.left, p + 1) + "^" + _wrap(self.right, p)
        # left-associative: right operand needs strictly higher precedence
        return f"{_wrap(self.left, p)} {self.op} {_wrap(self.right, p + 1)}"

    def diff(self, var):
        a, b = self.left, self.right
        da, db = a.diff(var), b.diff(var)
        if self.op == "+":
            return _add(da, db)
        if self.op == "-":
            return _sub(da, db)
        if self.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if self.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), BinOp("^", b, Const(2.0)))
        # power
        if isinstance(b, Const):
            c = float(b.value)
            if c == 0.0:
                return Const(0.0)
            return _mul(_mul(Const(c), BinOp("^", a, Const(c - 1.0))), da)
        # general a^b = exp(b log a)
        term = _add(_mul(db, Fn("log", a)), _div(_mul(b, da), a))
        return _mul(BinOp("^", a, b), term)


@dataclass(frozen=True, repr=False)
class Fn(FieldExpr):
    name: str
    arg: FieldExpr

    def text(self):
        return f"{self.name}({self.arg.text()})"

    def diff(self, var):
        a = self.arg
        da = a.diff(var)
        if self.name == "sin":
            return _mul(Fn("cos", a), da)
        if self.name == "cos":
            return _neg(_mul(Fn("sin", a), da))
        if self.name == "exp":
            return _mul(self, da)
        if self.name == "log":
            return _div(da, a)
        if self.name == "tanh":
            return _mul(_sub(Const(1.0), BinOp("^", Fn("tanh", a), Const(2.0))), da)
        if self.name == "atan":
            return _div(da, _add(Const(1.0), BinOp("^", a, Const(2.0))))
        if self.name == "sqrt":
            return _div(da, _mul(Const(2.0), Fn("sqrt", a)))
        # abs: a / abs(a) is sign(a) wherever a is finite and nonzero; the
        # division check raises EvalDomainError only at an actual zero of a,
        # so gradients of fields using abs stay usable where a never vanishes.
        return _mul(_div(a, self), da)


def _wrap(node: FieldExpr, min_prec: int) -> str:
    s = node.text()
    return f"({s})" if node.prec < min_prec else s


# light constant folding; keeps derivative trees small
def _is_const(n, v):
    return isinstance(n, Const) and float(n.value) == v


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _neg(a):
    if isinstance(a, Const):
        return Const(-float(a.value))
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


# ---------------------------------------------------------------------------
# Compilation into numpy closures
# ---------------------------------------------------------------------------

_NUMPY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
          "^": np.power, "neg": operator.neg, "sin": np.sin, "cos": np.cos, "exp": np.exp,
          "log": np.log, "tanh": np.tanh, "atan": np.arctan, "sqrt": np.sqrt, "abs": np.abs}
# domain checks (EvalDomainError): the test on the operands that fails, its message
_CHECKS = {
    "log": (lambda v: v <= 0.0, "log of non-positive value in {!r}"),
    "sqrt": (lambda v: v < 0.0, "sqrt of negative value in {!r}"),
    "/": (lambda x, y: y == 0.0, "division by zero in {!r}"),
    "0^-": (lambda x, y: (x == 0.0) & (y < 0.0), "0 raised to a negative power in {!r}"),
    "-^x": (lambda x, y: (x < 0.0) & (np.floor(y) != y),
            "negative base with non-integer exponent in {!r}"),
}


def _constant(node):
    """Value of a signed numeric literal (``2``, ``-0.5``), else None."""
    if isinstance(node, Neg):
        c = _constant(node.arg)
        return None if c is None else -c
    return float(node.value) if isinstance(node, Const) else None


def _compile(node):
    """Numpy closure (z1, z2) -> K for the tree under ``node``.

    Constants stay scalars and ``x^1`` is its base.  Checks are kept for log,
    sqrt, division unless by a nonzero constant, and ``^`` unless the
    exponent is a non-negative integer constant.  Children are compiled through
    ``map``: one Python frame per tree level, as in evaluation.
    """
    c = _constant(node)
    if c is not None:
        value = np.float64(c)
        return lambda z1, z2: value
    if isinstance(node, Var):
        return (lambda z1, z2: z1) if node.name == "z1" else (lambda z1, z2: z2)
    if isinstance(node, (Neg, Fn)):
        op, children = (node.name if isinstance(node, Fn) else "neg"), [node.arg]
        checks = [op] if op in _CHECKS else []
    else:
        op, children, c = node.op, [node.left, node.right], _constant(node.right)
        checks = ["/"] if op == "/" and c in (None, 0.0) else []
        if op == "^":
            if c == 1.0:
                return _compile(node.left)
            checks = [name for name, fires in (("0^-", c is None or c < 0.0),
                                               ("-^x", c is None or np.floor(c) != c)) if fires]
    return _node_kernel(node, op, list(map(_compile, children)), checks)


def _node_kernel(node, op, kernels, checks):
    """Kernel applying ``_NUMPY[op]`` to the children's values, left to right,
    once none of the node's ``checks`` fails."""
    apply = _NUMPY[op]
    if not checks and len(kernels) == 1:
        f = kernels[0]
        return lambda z1, z2: apply(f(z1, z2))
    if not checks:
        fa, fb = kernels
        return lambda z1, z2: apply(fa(z1, z2), fb(z1, z2))
    tests = [_CHECKS[name] for name in checks]

    def kernel(z1, z2):
        args = [f(z1, z2) for f in kernels]
        for fails, message in tests:
            if np.any(fails(*args)):
                raise EvalDomainError(message.format(node.text()))
        return apply(*args)

    return kernel


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                j2 = j + 1
                if j2 < n and text[j2] in "+-":
                    j2 += 1
                if j2 < n and text[j2].isdigit():
                    j = j2
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise FieldSyntaxError(f"bad number {text[i:j]!r}", i, "a numeric literal")
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise FieldSyntaxError(f"unexpected character {c!r}", i, "an operator, number, or name")
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.take()
        if tok[0] != kind:
            raise FieldSyntaxError(f"unexpected token {tok[1]!r}", tok[2], what)
        return tok

    def parse(self) -> FieldExpr:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise FieldSyntaxError(
                f"unexpected token {tok[1]!r}", tok[2],
                "an operator or end of input (implicit multiplication is not allowed)",
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            # right-associative; exponent may carry a unary minus
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        tok = self.take()
        kind, value, off = tok
        if kind == "num":
            return Const(value)
        if kind == "(":
            node = self.expr()
            self.expect(")", "a closing parenthesis")
            return node
        if kind == "name":
            if value in VARIABLES:
                return Var(value)
            if value in FUNCTIONS:
                self.expect("(", f"'(' after function {value}")
                arg = self.expr()
                self.expect(")", "a closing parenthesis")
                return Fn(value, arg)
            raise FieldSyntaxError(
                f"unknown name {value!r}", off,
                "z1, z2, or one of " + ", ".join(FUNCTIONS),
            )
        raise FieldSyntaxError(f"unexpected token {value!r}", off, "a number, name, or '('")


# Deepest tree parse_field accepts.  Parsing, evaluation, text() and the gradient
# recurse once to five times per level, and a derivative tree can be three times
# as deep as its field (a chain of divisions or of powers).  At this depth all of
# them, and the text of the gradient that a domain error prints, were measured
# to work on every such chain with 300 frames already on the stack.
MAX_DEPTH = 100


def _depth(node: FieldExpr) -> int:
    """Levels of the tree under ``node``, counted without recursion."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        children = ((node.left, node.right) if isinstance(node, BinOp)
                    else (node.arg,) if isinstance(node, (Neg, Fn)) else ())
        stack += [(child, level + 1) for child in children]
    return deepest


def parse_field(text: str) -> FieldExpr:
    """Parse curvature-field text into a FieldExpr.

    Grammar: ``+ -`` < ``* /`` < unary minus < right-associative ``^``,
    whitespace-insensitive, implicit multiplication rejected.  Raises
    FieldSyntaxError with the byte offset on malformed input, and on text
    nested deeper than the parser's recursion or than MAX_DEPTH levels.
    """
    if not text or not text.strip():
        raise FieldSyntaxError("empty field text", 0, "an expression")
    parser = _Parser(text)
    try:
        node = parser.parse()
    except RecursionError:
        raise FieldSyntaxError("field text nests too deeply to parse", parser.peek()[2])
    if _depth(node) > MAX_DEPTH:
        raise FieldSyntaxError(f"field nests deeper than {MAX_DEPTH} levels", 0)
    return node


def as_field(field) -> FieldExpr:
    """Accept either a FieldExpr or text and return a FieldExpr."""
    if isinstance(field, FieldExpr):
        return field
    return parse_field(field)


# ---------------------------------------------------------------------------
# Evaluation and gradients
# ---------------------------------------------------------------------------


def eval_field(field, z1, z2):
    """Evaluate K at (z1, z2); arguments broadcast like numpy arrays."""
    kernel = as_field(field)._kernel
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    out = kernel(z1, z2)
    if type(out) is np.ndarray and out.dtype == float and out.shape == z1.shape == z2.shape:
        out = out.view()  # read-only, as broadcast_to returns it, and never the input itself
        out.flags.writeable = False
        return out
    return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast_shapes(z1.shape, z2.shape))


def grad_field(field) -> tuple[FieldExpr, FieldExpr]:
    """Symbolic Euclidean gradient (dK/dz1, dK/dz2).

    The hyperbolic gradient is ``z2**2`` times this, so the two share the
    same zero set; callers needing the hyperbolic one scale at evaluation.
    Built once per expression; later calls return the same pair, whose
    compiled kernels are then reused too.
    """
    return as_field(field)._grad


def eval_grad(field, z1, z2) -> tuple[np.ndarray, np.ndarray]:
    d1, d2 = grad_field(field)
    return eval_field(d1, z1, z2), eval_field(d2, z1, z2)


# ---------------------------------------------------------------------------
# Region boxes and the sampled nonexistence report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionBox:
    """Axis-aligned box strictly inside the half-plane."""

    z1min: float
    z1max: float
    z2min: float
    z2max: float

    def __post_init__(self):
        if not (self.z1min < self.z1max and 0.0 < self.z2min < self.z2max):
            raise ValueError(
                f"RegionBox needs z1min < z1max and 0 < z2min < z2max, got {self}"
            )

    def grid(self, n: int):
        """n x n meshgrid of samples including the box edges."""
        a = np.linspace(self.z1min, self.z1max, n)
        b = np.linspace(self.z2min, self.z2max, n)
        return np.meshgrid(a, b, indexing="ij")


@dataclass(frozen=True)
class PlaneBox(RegionBox):
    """RegionBox without the half-plane floor, for the flat-plane variants."""

    def __post_init__(self):
        if not (self.z1min < self.z1max and self.z2min < self.z2max):
            raise ValueError(f"PlaneBox needs z1min < z1max and z2min < z2max, got {self}")


@dataclass(frozen=True)
class NonexistenceReport:
    """Sampled evidence for the nonexistence tests; never a certificate.

    ``supnorm_le_one``: |K| <= 1 at every sample (bounded curvature rules
    out loops).  ``monotone_e1`` / ``monotone_radial`` / ``monotone_squared``:
    grad K paired with the Killing fields e1, z, z^2 keeps one strict sign
    on the grid.  ``blocked`` is the disjunction.
    """

    sup_abs: float
    supnorm_le_one: bool
    monotone_e1: bool
    monotone_radial: bool
    monotone_squared: bool
    samples: int
    note: str = "sampled evidence only; a grid cannot certify a global condition"

    @property
    def blocked(self) -> bool:
        return (self.supnorm_le_one or self.monotone_e1
                or self.monotone_radial or self.monotone_squared)


def _fixed_sign(values: np.ndarray) -> bool:
    return bool(np.all(values > 0.0) or np.all(values < 0.0))


def check_nonexistence(field, box: RegionBox, samples: int = 32) -> NonexistenceReport:
    """Evaluate the nonexistence conditions for K on a sample grid.

    ``samples`` is the per-axis grid size (>= 2).  Gradient conditions are
    skipped (reported False) when the gradient is undefined somewhere on the
    grid (a kink of abs, or a sqrt at 0).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples per axis")
    expr = as_field(field)
    g1, g2 = box.grid(samples)
    z1, z2 = g1.ravel(), g2.ravel()
    vals = eval_field(expr, z1, z2)
    sup_abs = float(np.abs(vals).max())
    try:
        d1, d2 = eval_grad(expr, z1, z2)
    except EvalDomainError:
        mono = (False, False, False)
    else:
        radial = z1 * d1 + z2 * d2
        squared = (z1**2 - z2**2) * d1 + 2.0 * z1 * z2 * d2
        mono = (_fixed_sign(d1), _fixed_sign(radial), _fixed_sign(squared))
    return NonexistenceReport(
        sup_abs=sup_abs,
        supnorm_le_one=sup_abs <= 1.0,
        monotone_e1=mono[0],
        monotone_radial=mono[1],
        monotone_squared=mono[2],
        samples=samples,
    )
