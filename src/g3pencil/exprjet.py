"""Scalar math expressions in the variables s and v, with third-order jets.

Grammar (whitespace between tokens is ignored)::

    expr   = term { ("+" | "-") term }
    term   = factor { ("*" | "/") factor }
    factor = "-" factor | power
    power  = atom [ "^" factor ]
    atom   = NUMBER | "pi" | "s" | "v" | FUNC "(" expr ")" | "(" expr ")"
    FUNC   = "sin" | "cos" | "tan" | "sinh" | "cosh" | "exp" | "ln"
           | "sqrt" | "abs" | "fresnelS" | "fresnelC"
    NUMBER = digits [ "." [ digits ] ] [ exponent ] | "." digits [ exponent ]
    exponent = ("e" | "E") [ "+" | "-" ] digits

Digits are the ASCII digits 0-9, and a NUMBER must be finite as a double:
the parser refuses ``1e999`` with a ParseError at its offset.

"^" binds tighter than unary minus and associates to the right, so
``-s^2`` parses as ``-(s^2)`` and ``2^3^2`` as ``2^(3^2)``.  Exponents must
be constant (no s or v inside them): the parser refuses others with a
ParseError at their offset, and :class:`BinOp` refuses them in trees built
by hand with ValueError.  The parser also refuses, with a ParseError at an
offset, trees deeper than :data:`MAX_DEPTH` levels and text nested deeper
than that.  At evaluation time a fractional exponent needs a base >= 0,
and a negative exponent a base other than 0.

Derivatives are computed with truncated Taylor (jet) arithmetic carried to
third order, which is exactly what the curvature and torsion formulas of an
admissible curve consume.  A subtree that does not read the jet's variable
takes its plain value; where the base of a fractional power reads it, that
base must be > 0.  ``abs`` is differentiated as sign(u) * u', with sign(0)
taken as +1 and a :class:`KinkWarning` emitted.  exp, sinh and cosh
overflow to +-inf; sin, cos and tan of an infinite value, and every other
math error, raise DomainError naming the node.

The compiler is the one evaluator: :func:`compile_values`,
:func:`compile_jets` and :func:`compile_surface_rows` generate straight-line
code for values and jets alike.  The tree oracles in ``tests/oracles.py``,
one for values and one for jets, are its reference: the code performs
their operations and checks in the same order, so results agree bitwise,
and where an oracle fails the code raises the same DomainError, naming the
node the oracle reaches first, from a check or from the statement's owner:
the code has no other handler.  Constant parts are folded at compile time
by running the emitted statement itself, after its checks, in the
namespace the code runs in; one that fails, which the oracle would fail on
at every point, raises DomainError there, and :func:`compile_or_defer`
makes that failure a kernel that raises it at every call.
"""

from __future__ import annotations

import math
import re
import warnings
from typing import Callable, Sequence, Union

from .errors import DomainError, ParseError
from .g3core import Record

FUNCTIONS = (
    "sin",
    "cos",
    "tan",
    "sinh",
    "cosh",
    "exp",
    "ln",
    "sqrt",
    "abs",
    "fresnelS",
    "fresnelC",
)

VARIABLES = ("s", "v")


class KinkWarning(UserWarning):
    """abs() was differentiated at its kink; sign(0) was taken as +1."""


# ---------------------------------------------------------------------------
# Abstract syntax tree
# ---------------------------------------------------------------------------


# The variables a subtree reads, as bits; compiled code is filed under the
# same levels.  Every node caches its own in ``reads``, and the number of
# nodes on its longest path down in ``depth``.
_CONST, _S, _V, _SV = 0, 1, 2, 3
_VAR_BITS = {"s": _S, "v": _V}
_CACHED = ("reads", "depth")


class Num(Record):
    _fields = ("value",)
    __slots__ = _fields + _CACHED

    def __init__(self, value: float):
        if math.copysign(1.0, value) < 0.0:  # -0.0 too; the parser builds Neg(Num(x))
            raise ValueError("a constant must not be negative: negate it with Neg")
        self.value = value
        self.reads = _CONST
        self.depth = 1


class Var(Record):
    _fields = ("name",)
    __slots__ = _fields + _CACHED

    def __init__(self, name: str):
        self.name = name  # "s" or "v"
        self.reads = _VAR_BITS[name]
        self.depth = 1


class Neg(Record):
    _fields = ("arg",)
    __slots__ = _fields + _CACHED

    def __init__(self, arg: Expr):
        self.arg = arg
        self.reads = arg.reads
        self.depth = arg.depth + 1


class BinOp(Record):
    _fields = ("op", "left", "right")
    __slots__ = _fields + _CACHED

    def __init__(self, op: str, left: Expr, right: Expr):
        if op == "^" and right.reads:
            raise ValueError("exponent must be a constant expression")
        self.op = op  # one of + - * / ^
        self.left = left
        self.right = right
        self.reads = left.reads | right.reads
        self.depth = max(left.depth, right.depth) + 1


class Call(Record):
    _fields = ("func", "arg")
    __slots__ = _fields + _CACHED

    def __init__(self, func: str, arg: Expr):
        self.func = func
        self.arg = arg
        self.reads = arg.reads
        self.depth = arg.depth + 1


Expr = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------


# The tokens, tried in order at each offset: whitespace (the characters
# str.isspace accepts), a NUMBER of ASCII digits, a word, an operator or
# parenthesis, and any other character, which is refused.  No word or
# number is spelled like an operator, so an operator's text alone tells it.
_TOKEN = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>\w+)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>.)"
)

# A token: its kind ("num", "ident", "op" or "end"), text and offset.
_Tok = tuple[str, str, int]


def _tokenize(text: str) -> list[_Tok]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        word = m.group()
        # \w also matches digits and numerals other than ASCII ones, which
        # start no word
        if kind == "bad" or (kind == "ident" and not (word[0].isalpha() or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", m.start())
        tokens.append((kind, word, m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


# The deepest tree, and the deepest nesting of groups, arguments, exponents
# and negated operands, that parse accepts; the evaluators and the compiler
# recurse once per level.
MAX_DEPTH = 100


def _too_deep(pos: int) -> ParseError:
    return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)


# Each binary operator's binding: an operator binds tighter than those
# below it.  "+ -" and "* /" associate to the left; "^" associates to the
# right and binds tighter than unary minus.
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5
_BINDING = {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "^": _POW}


class _Parser:
    def __init__(self, tokens: list[_Tok]):
        self.tokens = tokens
        self.i = 0
        self.open = 0  # factors being parsed, one per level of nesting

    @property
    def tok(self) -> _Tok:
        return self.tokens[self.i]

    def advance(self) -> _Tok:
        t = self.tok
        self.i += 1
        return t

    def expect_op(self, op: str) -> None:
        _, text, pos = self.tok
        if text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.i += 1

    def node(self, node: Expr, pos: int) -> Expr:
        """node, built at pos, unless it is deeper than MAX_DEPTH."""
        if node.depth > MAX_DEPTH:
            raise _too_deep(pos)
        return node

    def parse_expr(self, binding: int = _ADD) -> Expr:
        """Factors joined by the left-associative operators that bind at
        ``binding`` or tighter; parse_power reads every "^"."""
        node = self.parse_factor()
        while _BINDING.get(self.tok[1], 0) >= binding:
            _, op, pos = self.advance()
            node = self.node(BinOp(op, node, self.parse_expr(_BINDING[op] + 1)), pos)
        return node

    def parse_factor(self) -> Expr:
        # every nested group, argument, exponent or negated operand opens one
        self.open += 1
        if self.open > MAX_DEPTH:
            raise _too_deep(self.tok[2])
        if self.tok[1] == "-":
            pos = self.advance()[2]
            node = self.node(Neg(self.parse_factor()), pos)
        else:
            node = self.parse_power()
        self.open -= 1
        return node

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.tok[1] == "^":
            pos = self.advance()[2]
            expo = self.parse_factor()
            if expo.reads:
                raise ParseError("exponent must be a constant expression", pos)
            return self.node(BinOp("^", base, expo), pos)
        return base

    def parse_atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ParseError(f"number {text!r} is too large for a double", pos)
            return Num(value)
        if kind == "ident":
            if text in VARIABLES:
                return Var(text)
            if text == "pi":
                return Num(math.pi)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return self.node(Call(text, arg), pos)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, variable, function or '('", pos)


def parse(text: str) -> Expr:
    """Parse expression text into an immutable syntax tree.

    Text nested deeper than MAX_DEPTH levels is refused with a ParseError
    at the offset where the limit is passed.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    kind, rest, pos = parser.tok
    if kind != "end":
        raise ParseError(f"unexpected trailing input {rest!r}", pos)
    return node


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _prec(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return _BINDING[expr.op]
    if isinstance(expr, Neg):
        return _NEG
    return _ATOM


def _render(expr: Expr, min_prec: int) -> str:
    if isinstance(expr, Num):
        out = repr(expr.value)
    elif isinstance(expr, Var):
        out = expr.name
    elif isinstance(expr, Neg):
        out = "-" + _render(expr.arg, _NEG)
    elif isinstance(expr, Call):
        out = f"{expr.func}({_render(expr.arg, 0)})"
    elif expr.op == "^":
        # right associative; the base must be an atom to survive reparsing
        out = f"{_render(expr.left, _ATOM)}^{_render(expr.right, _NEG)}"
    else:
        # left associative: the right child needs strictly higher binding
        binding = _BINDING[expr.op]
        left, right = _render(expr.left, binding), _render(expr.right, binding + 1)
        out = f"{left} {expr.op} {right}" if binding == _ADD else f"{left}{expr.op}{right}"
    if _prec(expr) < min_prec:
        return f"({out})"
    return out


def to_source(expr: Expr) -> str:
    """Render a tree back to grammar text; parse(to_source(e)) == e."""
    return _render(expr, 0)


# ---------------------------------------------------------------------------
# Domain errors, and the functions that overflow to infinity
# ---------------------------------------------------------------------------


def _failure(reason: str, source: str) -> str:
    """The text of a DomainError for reason at the node of source text."""
    return f"{reason} in '{source}'"


def _fail(node: Expr, reason: str) -> DomainError:
    return DomainError(_failure(reason, to_source(node)))


# Math errors that an owned statement of compiled code, and the emitter as
# it folds one, re-raise as DomainError.
_ARITHMETIC = (ValueError, ZeroDivisionError, OverflowError)


def _exp(x: float) -> float:
    """math.exp with overflow to +inf, as IEEE arithmetic would give."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _sinh(x: float) -> float:
    """math.sinh with overflow to +-inf."""
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _cosh(x: float) -> float:
    """math.cosh with overflow to +inf."""
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


# Functions that refuse infinite arguments with a DomainError naming the node.
_TRIG = ("sin", "cos", "tan")
_INFS = (math.inf, -math.inf)


def _kink(message: str) -> None:
    warnings.warn(message, KinkWarning)


# ---------------------------------------------------------------------------
# Compilation (fast path for dense grids; same operations, same order)
# ---------------------------------------------------------------------------

_NONFINITE_NAMES = {"inf": "_inf", "-inf": "_neg_inf", "nan": "_nan"}

# An operand of generated code: its text (a name or a literal) and level.
_Operand = tuple[str, int]
_ZERO: _Operand = ("0.0", _CONST)
# A unit of generated code, one statement or one check: its lines, the name
# the statement defines (None for a check, which always stays), the operand
# texts it reads, and its level.
_Unit = tuple[list[str], str | None, list[str], int]

# The formulas of Jet3.__mul__, Jet3.__truediv__ and _compose of the
# reference jet evaluator in tests/oracles.py, written as they are there, so
# that Python evaluates them in the same order; {a1} is coefficient 1 of
# jet a.  A field is always one letter and one digit.
_MUL_JET = (
    "{a0} * {b0}",
    "{a1} * {b0} + {a0} * {b1}",
    "{a2} * {b0} + 2.0 * {a1} * {b1} + {a0} * {b2}",
    "{a3} * {b0} + 3.0 * {a2} * {b1} + 3.0 * {a1} * {b2} + {a0} * {b3}",
)
_DIV_JET = (
    "{a0} / {b0}",
    "({a1} - {h0} * {b1}) / {b0}",
    "({a2} - {h0} * {b2} - 2.0 * {h1} * {b1}) / {b0}",
    "({a3} - {h0} * {b3} - 3.0 * {h1} * {b2} - 3.0 * {h2} * {b1}) / {b0}",
)
_COMPOSE_JET = (
    "{f1} * {u1}",
    "{f2} * {u1} * {u1} + {f1} * {u2}",
    "{f3} * {u1} * {u1} * {u1} + 3.0 * {f2} * {u1} * {u2} + {f1} * {u3}",
)
# The steps f0..f3 of sqrt, each from the argument {x0} and the earlier
# steps {fK}; at a subnormal x0, x0 * f0 underflows to 0.0 and f2 fails.
_SQRT = ("sqrt({x0})", "0.5 / {f0}", "-0.25 / ({x0} * {f0})", "0.375 / ({x0} * {x0} * {f0})")
# The derivatives f0..f3 that the reference _call_jet composes with the argument's jet, as
# steps computed in turn from the argument {x0} and earlier steps {tK}, and
# the steps that are f0..f3.  sqrt and abs check where their argument is 0
# and are emitted apart; a fresnelS/fresnelC pair on one argument shares its
# _fresnel call.
_SIN_COS = ("sin({x0})", "cos({x0})", "-{t0}", "-{t1}")
_SINH_COSH = ("sinh({x0})", "cosh({x0})")
_FRESNEL = (
    "_fresnel({x0})",
    f"{0.5 * math.pi!r} * {{x0}} * {{x0}}",
    "sin({t1})",
    "cos({t1})",
    f"{math.pi!r} * {{x0}}",
)
_CALL_JET = {
    "sin": (_SIN_COS, (0, 1, 2, 3)),
    "cos": (_SIN_COS, (1, 2, 3, 0)),
    "tan": (("tan({x0})", "1.0 + {t0} * {t0}", "2.0 * {t0} * {t1}",
             "{t1} * (2.0 + 6.0 * {t0} * {t0})"), (0, 1, 2, 3)),
    "sinh": (_SINH_COSH, (0, 1, 0, 1)),
    "cosh": (_SINH_COSH, (1, 0, 1, 0)),
    "exp": (("exp({x0})",), (0, 0, 0, 0)),
    "ln": (("ln({x0})", "1.0 / {x0}", "-{t1} * {t1}", "2.0 * {t1} * {t1} * {t1}"), (0, 1, 2, 3)),
    "fresnelS": (_FRESNEL + ("{t0}[0]", "{t4} * {t3}",
                             f"{math.pi!r} * {{t3}} - {{t4}} * {{t4}} * {{t2}}"), (5, 2, 6, 7)),
    "fresnelC": (_FRESNEL + ("{t0}[1]", "-{t4} * {t2}",
                             f"-{math.pi!r} * {{t2}} - {{t4}} * {{t4}} * {{t3}}"), (5, 3, 6, 7)),
}


def _level(operands) -> int:
    level = _CONST
    for _, operand_level in operands:
        level |= operand_level
    return level


def _children(expr: Expr) -> tuple:
    if isinstance(expr, BinOp):
        return expr.left, expr.right
    return (expr.arg,)


def _owned(line: str, source: str) -> list[str]:
    """line, whose math errors name the owner of source text as the tree oracles do."""
    return [
        "try:",
        f"    {line}",
        "except _ARITHMETIC as exc:",
        f"    raise _DomainError(f'{{exc}}' + {_failure('', source)!r}) from exc",
    ]


class _Emitter:
    """Straight-line Python statements for one or more expression trees.

    :meth:`emit` gives the value of a tree, :meth:`emit_jet` its jet in one
    variable, one operand per coefficient.  Every distinct statement is
    emitted once, so structurally equal subtrees, also across trees, are
    computed once.  A node that reads a variable never has a constant value
    (a power computes ``coeff * x ** 0.0`` as the tree's power rule does),
    so every constant operand is a literal: a statement whose operands are
    all constant runs its checks and then its own text here, in
    :attr:`env`, and its value is inlined as a literal; a check that holds
    or a math error raises DomainError here.  Every other statement is
    appended to one list of units, in the order the tree oracles run them,
    each tagged with the variables it reads (its level) and naming what it
    defines and reads, so that :func:`_function` can drop what nothing
    returned reads, and :func:`compile_surface_rows` can hoist s-only work
    out of its loop over v and v-only work out of its loop over s.  Each
    unit is one statement, which defines one name (inside its owner's
    ``try`` block where it can fail past its checks), or one check, which
    defines none and always stays.

    Each statement performs the operations the tree oracles of
    ``tests/oracles.py`` perform at that node (the value oracle, also for
    every flat subtree of a jet; ``_jet_eval`` for the rest of a jet) in the
    same order, so results agree bitwise.  The same checks raise the same
    DomainError, a math error names the node where the oracles name it, and
    an abs() kink warns as the jet oracle does.
    """

    def __init__(self) -> None:
        self.units: list[_Unit] = []  # in the order the tree oracles run them
        self.env: dict[str, object] = {
            "__builtins__": {},
            "abs": abs,
            "sin": math.sin,
            "cos": math.cos,
            "tan": math.tan,
            "sinh": _sinh,
            "cosh": _cosh,
            "exp": _exp,
            "ln": math.log,
            "sqrt": math.sqrt,
            "_fresnel": _fresnel,
            "_kink": _kink,
            "_INFS": _INFS,
            "_ARITHMETIC": _ARITHMETIC,
            "_DomainError": DomainError,
        }
        self._names: dict[str, _Operand] = {}  # statement text -> its name
        self._guarded: set[tuple] = set()  # the checks filed so far
        self._jets: dict[tuple, tuple[_Operand, ...]] = {}
        # id(node) -> (node, its source text); holding node keeps its id unique
        self._sources: dict[int, tuple[Expr, str]] = {}
        self._count = 0

    def _constant(self, value: float) -> str:
        text = repr(value)
        if text in _NONFINITE_NAMES:
            name = _NONFINITE_NAMES[text]
            self.env[name] = value
            return name
        return f"({text})" if text.startswith("-") else text

    def _source(self, node: Expr) -> str:
        """``to_source(node)``, rendered once per node in this emitter."""
        entry = self._sources.get(id(node))
        if entry is None:
            entry = self._sources[id(node)] = (node, to_source(node))
        return entry[1]

    def _file(self, lines: list[str], operands, name: str | None, level: int) -> None:
        """Append the unit of lines, at level, that reads operands and defines name
        (None: a check)."""
        self.units.append((lines, name, [text for text, _ in operands], level))

    def stmt(self, text: str, operands, guards=(), owner: Expr | None = None) -> _Operand:
        """Operand holding the value of text, which reads operands.

        ``guards`` are (condition, operands, node, reason) checks that run
        before the statement, the first time it is emitted.  A statement
        that can raise a math error past its guards (a power, a Fresnel
        step, a square root's step) is given an ``owner``, which the error
        then names.  When every operand is constant, the guards and then
        the statement run here, in this emitter's namespace, and the
        operand is the literal of the value; the literal is kept for text,
        so each text folds once.
        """
        if text in self._names:
            return self._names[text]
        for guard in guards:
            self.guard(*guard)
        level = _level(operands)
        if level == _CONST:
            try:
                value = eval(text, self.env)
            except _ARITHMETIC as exc:  # only an owned statement fails past its guards
                raise DomainError(_failure(str(exc), self._source(owner))) from exc
            out = self._constant(value), _CONST
        else:
            self._count += 1
            out = f"_{'_svw'[level]}{self._count}", level
            line = f"{out[0]} = {text}"
            lines = [line] if owner is None else _owned(line, self._source(owner))
            self._file(lines, operands, out[0], level)
        self._names[text] = out
        return out

    def guard(self, condition: str, operands, node: Expr, reason: str, warn: bool = False) -> None:
        """Raise the DomainError of ``_fail(node, reason)`` where condition
        holds: here if operands are constant.

        With ``warn``, warn KinkWarning of that text there instead; the
        argument of a kink reads the jet's variable, so its operands are
        never constant.  A warning is filed once per condition and text,
        and a raise once per condition: a later raise on it, run after the
        first, never fires.  The text is rendered only where it is needed:
        for a warning's key, a filed raise, or a raise here.
        """
        message = _failure(reason, self._source(node)) if warn else None
        key = (condition, message)
        if key in self._guarded:
            return
        self._guarded.add(key)
        level = _level(operands)
        if level == _CONST and not eval(condition, self.env):
            return
        if message is None:
            message = _failure(reason, self._source(node))
        if level == _CONST:
            raise DomainError(message)
        action = f"_kink({message!r})" if warn else f"raise _DomainError({message!r})"
        self._file([f"if {condition}: {action}"], operands, None, level)

    def formula(self, template: str, owner: Expr | None = None, **jets) -> _Operand:
        """Statement for template, in which {a1} is coefficient 1 of jets["a"]."""
        pieces = template.split("{")
        parts = [pieces[0]]
        used = []
        for piece in pieces[1:]:  # "a1} ..." after each "{"
            op = jets[piece[0]][int(piece[1])]
            used.append(op)
            parts.append(op[0])
            parts.append(piece[3:])
        return self.stmt("".join(parts), used, owner=owner)

    # -- values ------------------------------------------------------------

    def emit(self, expr: Expr) -> _Operand:
        """Operand holding the value of expr."""
        if isinstance(expr, Num):
            return self._constant(expr.value), _CONST
        if isinstance(expr, Var):
            return expr.name, expr.reads
        args = [self.emit(child) for child in _children(expr)]
        if isinstance(expr, Neg):
            return self.stmt(f"-{args[0][0]}", args)
        if isinstance(expr, Call):
            return self._call(expr, args[0])
        (left, _), (right, _) = args
        guards = []
        if expr.op == "/":
            guards.append((f"{right} == 0.0", args[1:], expr, "division by zero"))
        if expr.op != "^":
            return self.stmt(f"{left} {expr.op} {right}", args, guards)
        p = eval(right, self.env)  # the exponent is constant by construction
        if not float(p).is_integer():
            # Python returns a complex number here, where the tree refuses
            guards.append((f"{left} < 0.0", args[:1], expr, "fractional power of a negative base"))
        if p < 0.0:
            guards.append((f"{left} == 0.0", args[:1], expr, "zero base with negative exponent"))
        return self.stmt(f"{left} ** {right}", args, guards, owner=expr)

    def _call(self, node: Call, x: _Operand) -> _Operand:
        f = node.func
        if f in ("fresnelS", "fresnelC"):
            k = 0 if f == "fresnelS" else 1
            if x[1] == _CONST:  # a tuple has no literal: fold the one value
                return self.stmt(f"_fresnel({x[0]})[{k}]", [x], owner=node)
            # the _fresnel call that a fresnelS/fresnelC pair on x shares;
            # its errors name the node that emitted it first, which is the
            # node the tree oracles reach first
            pair = self.stmt(f"_fresnel({x[0]})", [x], owner=node)
            return self.stmt(f"{pair[0]}[{k}]", [pair])
        return self.stmt(f"{f}({x[0]})", [x], self._argument_guards(node, x))

    def _argument_guards(self, node: Call, x: _Operand) -> list:
        """The checks on the argument of node, made before node is called."""
        if node.func in _TRIG:
            condition, reason = f"{x[0]} in _INFS", f"{node.func} of an infinite value"
        elif node.func == "sqrt":
            condition, reason = f"{x[0]} < 0.0", "square root of a negative value"
        elif node.func == "ln":
            condition, reason = f"{x[0]} <= 0.0", "log of a non-positive value"
        else:
            return []
        return [(condition, [x], node, reason)]

    # -- jets --------------------------------------------------------------

    def emit_jet(self, expr: Expr, var: str) -> tuple[_Operand, ...]:
        """Four operands holding the jet of expr in var, c0 to c3."""
        bit = _VAR_BITS[var]
        if not expr.reads & bit:
            return self.emit(expr), _ZERO, _ZERO, _ZERO
        if isinstance(expr, Var):
            return (var, bit), ("1.0", _CONST), _ZERO, _ZERO
        children = _children(expr)
        args = [self.emit_jet(child, var) for child in children]
        kind = expr.op if isinstance(expr, BinOp) else expr.func if isinstance(expr, Call) else "neg"
        # which children are flat picks the formulas, so it is part of the key
        flat = tuple(not child.reads & bit for child in children)
        key = (kind, flat, *(text for arg in args for text, _ in arg))
        if key not in self._jets:
            self._jets[key] = self._jet(expr, args, flat)
        return self._jets[key]

    def _jet(self, expr: Expr, args, flat: tuple) -> tuple[_Operand, ...]:
        if isinstance(expr, Neg):
            return tuple(self.stmt(f"-{c[0]}", [c]) for c in args[0])
        if isinstance(expr, Call):
            return self._call_jet(expr, args[0])
        a, b = args
        if expr.op in ("+", "-"):
            return tuple(self.stmt(f"{x[0]} {expr.op} {y[0]}", [x, y]) for x, y in zip(a, b))
        if expr.op == "*":
            if flat[1]:
                return tuple(self.stmt(f"{c[0]} * {b[0][0]}", [c, b[0]]) for c in a)
            if flat[0]:
                return tuple(self.stmt(f"{a[0][0]} * {c[0]}", [a[0], c]) for c in b)
            return tuple(self.formula(t, a=a, b=b) for t in _MUL_JET)
        if expr.op == "/":
            self.guard(f"{b[0][0]} == 0.0", b[:1], expr, "division by zero")
            if flat[1]:
                return tuple(self.stmt(f"{c[0]} / {b[0][0]}", [c, b[0]]) for c in a)
            h: list[_Operand] = []
            for t in _DIV_JET:
                h.append(self.formula(t, a=a, b=b, h=h))
            return tuple(h)
        return self._compose(a, self._pow_factors(expr, a[0], b[0]))

    def _compose(self, u, f) -> tuple[_Operand, ...]:
        return (f[0], *(self.formula(t, f=f, u=u) for t in _COMPOSE_JET))

    def _call_jet(self, node: Call, u) -> tuple[_Operand, ...]:
        x = u[0]
        for guard in self._argument_guards(node, x):
            self.guard(*guard)
        if node.func == "sqrt":
            return self._sqrt_jet(node, u)
        if node.func == "abs":
            return self._abs_jet(node, u)
        # a huge argument fails in the Fresnel steps that call _fresnel, sin
        # or cos, and their errors name the node
        fresnel = node.func in ("fresnelS", "fresnelC")
        steps, picks = _CALL_JET[node.func]
        t: list[_Operand] = []
        for template in steps:
            owner = node if fresnel and "(" in template else None
            t.append(self.formula(template, owner, x=[x], t=t))
        return self._compose(u, [t[i] for i in picks])

    def _sqrt_jet(self, node: Call, u) -> tuple[_Operand, ...]:
        x, u1, u2, u3 = (text for text, _ in u)
        # at x = 0 only the zero function, whose jet is zero, has a jet
        self.guard(f"{x} == 0.0 and not ({u1} == 0.0 and {u2} == 0.0 and {u3} == 0.0)", u,
                   node, "derivative of sqrt at zero")
        # every step is +0.0 there, as each coefficient of that jet is; the
        # node owns the steps f0..f3, where a division can fail
        at_zero = "0.0 if {x0} == 0.0 else "
        f: list[_Operand] = []
        for template in _SQRT:
            f.append(self.formula(at_zero + template, node, x=u[:1], f=f))
        return (f[0], *(self.formula(at_zero + t, x=u[:1], f=f, u=u) for t in _COMPOSE_JET))

    def _abs_jet(self, node: Call, u) -> tuple[_Operand, ...]:
        x = u[0]
        # a NaN argument, neither above nor below 0, warns too
        self.guard(f"not ({x[0]} > 0.0 or {x[0]} < 0.0)", [x],
                   node, "abs() differentiated at its kink", warn=True)
        sign = self.stmt(f"-1.0 if {x[0]} < 0.0 else 1.0", [x])
        return (
            self.stmt(f"abs({x[0]})", [x]),
            *(self.stmt(f"{sign[0]} * {c[0]}", [sign, c]) for c in u[1:]),
        )

    def _pow_factors(self, node: BinOp, x: _Operand, exponent: _Operand) -> list[_Operand]:
        """Operands of f0..f3 of the reference ``_pow_factors`` at the base x."""
        # the loop of the tree's _pow_factors in tests/oracles.py, unrolled
        # for the exponent, which is constant and so a literal
        p = eval(exponent[0], self.env)
        if not float(p).is_integer():
            self.guard(f"{x[0]} <= 0.0", [x], node, "fractional power of a non-positive base")
        elif p < 0.0:
            self.guard(f"{x[0]} == 0.0", [x], node, "zero base with negative exponent")
        f = [_ZERO] * 4
        coeff = 1.0
        for order in range(4):
            if coeff == 0.0:
                break
            m = p - order
            template = f"{self._constant(coeff)} * {{x0}} ** {self._constant(m)}"
            f[order] = self.formula(template, node, x=[x])
            coeff *= m
        return f

    def define(self, source: str, name: str):
        """Execute generated source in this emitter's namespace."""
        exec(compile(source, f"<g3pencil {name}>", "exec"), self.env)
        return self.env[name]


def _block(units: list, depth: int) -> str:
    """The lines of units, indented by depth."""
    pad = "    " * depth
    return "".join(f"{pad}{line}\n" for unit in units for line in unit[0])


def _function(em: _Emitter, results: list[str]) -> Callable:
    """Compile the emitted statements into f(s, v) returning the results' tuple.

    The statements whose results nothing returned reads are dropped; every
    check, an abs() kink's included, stays, with the statements it reads.
    """
    live = set(results)
    kept = []
    for unit in reversed(em.units):
        _, name, reads, _ = unit
        if name is None or name in live:
            kept.append(unit)
            live.update(reads)
    result = "(" + "".join(f"{r}, " for r in results) + ")"
    source = "def _compiled(s, v):\n" + _block(kept[::-1] + [([f"return {result}"],)], 1)
    return em.define(source, "_compiled")


def compile_values(exprs: Sequence[Expr]) -> Callable[[float, float], tuple[float, ...]]:
    """Compile trees to one callable f(s, v) giving their values in order.

    Tree after tree, in each tree's order, the code performs its operations
    and checks, so values agree bitwise with the value tree oracle in
    ``tests/oracles.py`` and the first tree to fail raises the oracle's
    DomainError; common subtrees are computed once.  Constant parts are
    folded here by running their statements; one outside its domain, or a
    check on constants that holds (the divisor of ``s/0``), raises
    DomainError at compile time; see :func:`compile_or_defer`.
    """
    em = _Emitter()
    return _function(em, [em.emit(e)[0] for e in exprs])


def compile_jets(
    exprs: Sequence[Expr], var: str, orders: Sequence[int] = (0, 1, 2, 3), *more
) -> Callable[[float, float], tuple[float, ...]]:
    """Compile trees to one callable f(s, v) giving their jets, pair by pair.

    For the pair (``var``, ``orders``) and then each (variable, orders)
    pair in ``more``, the result holds the coefficients of those orders (c0
    to c3 by default) of each tree's jet in that variable in turn, each
    equal bitwise to the coefficient of the reference ``eval_jet3`` in
    ``tests/oracles.py``, flat-jet rule included.  The pairs share one
    emitter and run in order.  The callable computes only what it returns,
    and so can fail only there: it raises
    DomainError where eval_jet3 fails on a step that a returned coefficient
    needs, or on a check (a guard) of any step, with the message of
    eval_jet3, and warns KinkWarning where an abs() in a tree reaches its
    kink.  Where the callable of all four orders succeeds, every callable
    of fewer succeeds too.  When the first pair reads order 0, later pairs
    read no value it skipped, so the callable fails and warns as the
    callables of the single pairs, called in turn, would.  A constant
    subtree outside its domain, or a check on constants that holds, raises
    DomainError here, at compile time.  Common subtrees are computed once.
    """
    em = _Emitter()
    results = []
    for var, orders in ((var, orders), *more):
        if var not in VARIABLES:
            raise ValueError(f"var must be one of {VARIABLES}, got {var!r}")
        if not orders or not set(orders) <= {0, 1, 2, 3}:
            raise ValueError(f"orders must be a non-empty selection of 0, 1, 2, 3, got {orders!r}")
        jets = [em.emit_jet(e, var) for e in exprs]
        results += [jet[k][0] for jet in jets for k in orders]
    return _function(em, results)


def compile_or_defer(compile: Callable[..., Callable], *args) -> Callable:
    """``compile(*args)``, or, where a constant part fails there, a kernel that
    raises a DomainError of that text at every call, for a record to keep."""
    try:
        return compile(*args)
    except DomainError as exc:
        message = str(exc)

    def failing(s: float, v: float) -> tuple[float, ...]:
        raise DomainError(message)  # a fresh error: a kept one's traceback grows per raise

    return failing


def compile_surface_rows(
    alpha: Expr, beta: Expr, gamma: Expr, v_values: Sequence[float]
) -> Callable[[float, object, object, list], None]:
    """Compile the points base + alpha t + beta n + gamma b of one grid row.

    Returns ``row(s, base, frame, out)``, which extends the list ``out``
    with x, y, z of the point at (s, v) for every v in ``v_values``, in
    order; ``base`` is the curve point at s as (x, y, z), and ``frame`` is
    (kappa, tau, t, n, b) with t, n and b as (x, y, z), as
    :func:`~g3pencil.curve.point_parts` and
    :func:`~g3pencil.curve.frame_parts` give them.  Each coordinate equals
    bitwise the one of :func:`~g3pencil.pencil.surface_point_parts`, base +
    a*t + b*n + g*b summed left to right with a, b, g the values
    :func:`compile_values` gives, plus 0.0, which turns -0.0 into 0.0 and
    leaves every other value as it is.  The three trees share one emitter,
    so common subtrees are computed once; constant parts are folded here as
    :func:`compile_values` folds them, v-only subtrees are computed once per
    column (here, for all rows), s-only subtrees once per row, and only the
    rest once per point.

    Raises DomainError where :func:`compile_values` would fail and for
    points that are not finite.
    """
    em = _Emitter()
    a, b, g = roots = [em.emit(tree)[0] for tree in (alpha, beta, gamma)]
    units = {level: [unit for unit in em.units if unit[3] == level] for level in (_S, _V, _SV)}
    # the v-only names that the loop over v reads: each column carries them
    read = {text for unit in units[_SV] for text in unit[2]}.union(roots)
    column = ", ".join(["v", *(name for _, name, _, _ in units[_V] if name in read)]) + ","
    # x - x is 0.0 exactly when x is finite, and nan otherwise
    point = [
        f"x = px + {a} * tx + {b} * nx + {g} * bx",
        f"y = py + {a} * ty + {b} * ny + {g} * by",
        f"z = pz + {a} * tz + {b} * nz + {g} * bz",
        "if x - x or y - y or z - z:",
        "    raise _DomainError(f'non-finite surface point ({x!r}, {y!r}, {z!r})"
        " at s = {s!r}, v = {v!r}')",
        "extend((x + 0.0, y + 0.0, z + 0.0))",
    ]
    source = (
        "def _columns(v_values):\n"
        "    columns = []\n"
        "    for v in v_values:\n"
        + _block(units[_V], 2)
        + f"        columns.append(({column}))\n"
        "    return columns\n"
        "\n"
        "def _row(s, base, frame, out):\n"
        "    px, py, pz = base\n"
        "    _, _, (tx, ty, tz), (nx, ny, nz), (bx, by, bz) = frame\n"
        "    extend = out.extend\n"
        + _block(units[_S], 1)
        + f"    for {column} in _cols:\n"
        + _block(units[_SV] + [(point,)], 2)
    )
    row = em.define(source, "_row")
    em.env["_cols"] = em.env["_columns"](v_values)
    return row


# ---------------------------------------------------------------------------
# Fresnel integrals
# ---------------------------------------------------------------------------

_FRESNEL_SWITCH = 1.6
_SERIES_EPS = 1e-17
# 4n+1, 4n+3, (2n+1)(2n+2) and (2n+2)(2n+3) for the series' terms n = 0..200
# (it converges long before), as floats: each int converts exactly, so a
# division by it keeps its bits
_SERIES_DIVISORS = tuple(
    tuple(map(float, (4 * n + 1, 4 * n + 3, (2 * n + 1) * (2 * n + 2), (2 * n + 2) * (2 * n + 3))))
    for n in range(201)
)
_CF_EPS = 5e-16
_CF_MAXIT = 5000


def _fresnel_series(x: float) -> tuple[float, float]:
    # Maclaurin series of the sine and cosine integrals; terms share the
    # factor (-1)^n (pi x^2 / 2)^(2n) / (2n)! and converge fast for |x| <= 1.6.
    w = 0.5 * math.pi * x * x
    neg_w2 = -(w * w)  # negation is exact: -w2 / ec has the same bits
    eps = _SERIES_EPS
    c_sum = 0.0
    s_sum = 0.0
    uc = x  # x * (-w^2)^n / (2n)!
    us = x * w  # x * w * (-w^2)^n / (2n+1)!
    for dc, ds, ec, es in _SERIES_DIVISORS:
        tc = uc / dc
        ts = us / ds
        c_sum += tc
        s_sum += ts
        if abs(uc) + abs(us) < eps * (1.0 + abs(c_sum) + abs(s_sum)):
            break
        uc *= neg_w2 / ec
        us *= neg_w2 / es
    return s_sum, c_sum


def _fresnel_fraction(x: float) -> tuple[float, float]:
    # Auxiliary-function evaluation through the continued fraction of the
    # complementary error function of complex argument (modified Lentz).
    pix2 = math.pi * x * x
    b = complex(1.0, -pix2)
    cc = complex(1e300, 0.0)
    d = 1.0 / b
    h = d
    n = -1
    for _ in range(2, _CF_MAXIT):
        n += 2
        a = -n * (n + 1)
        b += 4.0
        d = 1.0 / (a * d + b)
        cc = b + a / cc
        delta = cc * d
        h *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < _CF_EPS:
            break
    h *= complex(x, -x)
    phase = complex(math.cos(0.5 * pix2), math.sin(0.5 * pix2))
    cs = complex(0.5, 0.5) * (1.0 - phase * h)
    return cs.imag, cs.real


def _fresnel(x: float) -> tuple[float, float]:
    ax = abs(x)
    if ax <= _FRESNEL_SWITCH:
        s, c = _fresnel_series(ax)
    elif ax != ax:  # NaN, on which the continued fraction would run to its cap
        return ax, ax
    else:
        s, c = _fresnel_fraction(ax)
    if x < 0.0:
        return -s, -c
    return s, c
