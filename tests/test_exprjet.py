import itertools
import math
import random
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from g3pencil.curve import CurveSpec
from g3pencil.errors import DomainError, ParseError
from g3pencil.exprjet import (
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    KinkWarning,
    Neg,
    Num,
    Var,
    _fresnel_series,
    compile_jets,
    compile_or_defer,
    compile_surface_rows,
    compile_values,
    parse,
    to_source,
)
from g3pencil.pencil import MarchingScale
from oracles import (
    FrenetFrame,
    G3Vector,
    Jet3,
    central_diff,
    combine_on_frame,
    eval_expr,
    eval_jet3,
    failure_rich_expression,
    fresnel_c,
    fresnel_c_oracle,
    fresnel_s,
    fresnel_s_oracle,
    fresnel_series_loop,
    fresnel_series_reference,
    fresnel_table,
    random_expression,
    second_diff,
)

# ---------------------------------------------------------------------------
# Grammar corpus: 50 cases, valid and invalid.  Valid entries carry the
# value at (s, v) = (2.0, 3.0); invalid entries carry the error offset.
# ---------------------------------------------------------------------------

S0, V0 = 2.0, 3.0

VALID_CASES = [
    ("1", 1.0),
    ("  42  ", 42.0),
    ("0.5", 0.5),
    (".25", 0.25),
    ("1e2", 100.0),
    ("2.5E-1", 0.25),
    ("pi", math.pi),
    ("s", S0),
    ("v", V0),
    ("s+v", 5.0),
    ("s - v", -1.0),
    ("s*v", 6.0),
    ("v/s", 1.5),
    ("1+2*3", 7.0),
    ("(1+2)*3", 9.0),
    ("2^3", 8.0),
    ("2^3^2", 512.0),
    ("(2^3)^2", 64.0),
    ("-s^2", -4.0),
    ("(-s)^2", 4.0),
    ("2^-2", 0.25),
    ("s^0", 1.0),
    ("4^0.5", 2.0),
    ("1-2-3", -4.0),
    ("12/3/2", 2.0),
    ("-(-s)", 2.0),
    ("--s", 2.0),
    ("2 - -3", 5.0),
    ("sin(0)", 0.0),
    ("cos(0)", 1.0),
    ("tan(0)", 0.0),
    ("sinh(0)", 0.0),
    ("cosh(0)", 1.0),
    ("exp(0)", 1.0),
    ("ln(exp(1))", 1.0),
    ("sqrt(s^2)", 2.0),
    ("abs(-v)", 3.0),
    ("fresnelS(0)", 0.0),
    ("fresnelC(0)", 0.0),
    ("4*sin(s^2/8)", 4.0 * math.sin(0.5)),
    ("cosh(s/4)", math.cosh(0.5)),
    ("sin(s)^2 + cos(s)^2", 1.0),
    ("1/(1+v)", 0.25),
    # the NUMBER rule's optional parts
    ("1.", 1.0),
    ("1.e5", 1e5),
    (".5e3", 500.0),
    ("2.5E-3", 0.0025),
    # whitespace is every character str.isspace accepts
    ("s\u00a0+\u2003v", 5.0),
    ("s\x1c*v", 6.0),
    ("sin\u3000(s)", math.sin(S0)),
]

INVALID_CASES = [
    ("", 0),
    ("   ", 0),
    ("sin(", 4),
    ("1+", 2),
    ("(1+2", 4),
    ("1 2", 2),
    ("foo(1)", 0),
    ("s^v", 1),
    ("1..2", 2),
    ("$", 0),
]

assert len(VALID_CASES) + len(INVALID_CASES) >= 50


@pytest.mark.parametrize("text,expected", VALID_CASES)
def test_corpus_valid(text, expected):
    assert eval_expr(parse(text), S0, V0) == pytest.approx(expected, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("text,offset", INVALID_CASES)
def test_corpus_invalid(text, offset):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.offset == offset


@pytest.mark.parametrize(
    "text, offset",
    [
        ("(" * 200 + "v" + ")" * 200, 100),  # a tree of depth 1, nested 201 levels
        ("+".join(["v"] * 500), 199),  # the 100th "+" makes the tree 101 deep
        ("-" * 300 + "v", 100),
        ("2^" * 300 + "2", 200),
        ("sin(" * 150 + "s" + ")" * 150, 400),
    ],
    ids=["groups", "sum", "negations", "powers", "calls"],
)
def test_parse_refuses_nesting_deeper_than_max_depth(text, offset):
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as info:
        parse(text)
    assert info.value.offset == offset


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("s^\u00b2", "unexpected character '\u00b2'", 2),  # superscript two
        ("\u0663", "unexpected character '\u0663'", 0),  # Arabic-Indic three
        ("1.\u0665", "unexpected character '\u0665'", 2),
        ("s*1e999", "number '1e999' is too large for a double", 2),
        ("-1e309", "number '1e309' is too large for a double", 1),
        ("2^(1+.5e400)", "number '.5e400' is too large for a double", 5),
        # an exponent without digits, or a second point, ends the number
        ("1e", "unexpected trailing input 'e'", 1),
        ("1e+", "unexpected trailing input 'e'", 1),
        ("1..2", "unexpected trailing input '.2'", 2),
        # a word starts with a letter or "_" and runs on over digits of any script
        ("\u00e9*s", "unknown identifier '\u00e9'", 0),
        ("s*x\u00b2", "unknown identifier 'x\u00b2'", 2),
        ("_s", "unknown identifier '_s'", 0),
        # numerals are neither digits nor letters
        ("\u2167", "unexpected character '\u2167'", 0),  # Roman numeral eight
        ("\u00bd", "unexpected character '\u00bd'", 0),  # vulgar fraction one half
    ],
    ids=["superscript", "arabic-indic", "after-point", "overflow", "negated", "exponent",
         "bare-e", "bare-e-sign", "two-points", "accented-word", "superscript-in-word",
         "underscore-word", "roman-numeral", "vulgar-fraction"],
)
def test_numbers_are_ascii_digits_and_finite(text, message, offset):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.offset == offset


def test_extreme_finite_literals_round_trip():
    for text, value in [("1.7976931348623157e308", 1.7976931348623157e308), ("1e-999", 0.0),
                        ("5e-324", 5e-324)]:
        tree = parse(f"s*{text}")
        assert tree == BinOp("*", Var("s"), Num(value))
        assert parse(to_source(tree)) == tree


def test_trees_of_max_depth_parse_and_compile():
    assert parse("(" * (MAX_DEPTH - 1) + "v" + ")" * (MAX_DEPTH - 1)) == Var("v")
    tree = parse("+".join(["sin(v)*s"] * (MAX_DEPTH - 2)))
    assert tree.depth == MAX_DEPTH
    # synthesis builds about a dozen levels above parsed trees
    for _ in range(12):
        tree = BinOp("*", Neg(tree), Var("v"))
    for var in ("s", "v"):
        want = _coefficients(eval_jet3(tree, var, 0.5, 2.0))
        assert compile_jets([tree], var)(0.5, 2.0) == want
    (got,) = compile_values([tree])(0.5, 2.0)
    assert got == eval_expr(tree, 0.5, 2.0)


def test_parse_builds_expected_tree():
    tree = parse("4*sin(s^2/8)")
    assert tree == BinOp(
        "*",
        Num(4.0),
        Call("sin", BinOp("/", BinOp("^", Var("s"), Num(2.0)), Num(8.0))),
    )


def test_unary_minus_binds_below_power():
    assert parse("-s^2") == Neg(BinOp("^", Var("s"), Num(2.0)))


@pytest.mark.parametrize("text", [t for t, _ in VALID_CASES])
def test_roundtrip_print_parse(text):
    tree = parse(text)
    assert parse(to_source(tree)) == tree


def test_roundtrip_random_corpus():
    rng = random.Random(2024)
    for _ in range(300):
        text = random_expression(rng, depth=4)
        try:
            tree = parse(text)
        except ParseError:
            continue
        assert parse(to_source(tree)) == tree


def _signed(x: float):
    """x as the parser reads its text: a negative constant is Neg(Num(-x))."""
    return Neg(Num(-x)) if math.copysign(1.0, x) < 0.0 else Num(x)


CONSTANTS = st.floats(allow_nan=False, allow_infinity=False).map(_signed)
TREES = st.recursive(
    st.one_of(CONSTANTS, st.sampled_from((Var("s"), Var("v"), Num(math.pi)))),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(BinOp, st.just("^"), sub, CONSTANTS),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
def test_every_tree_round_trips_through_its_text(tree):
    # no Num is negative, so a minus sign in the text is always a Neg
    assert parse(to_source(tree)) == tree


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------


def test_jet_of_sine_at_zero():
    jet = eval_jet3(parse("sin(s)"), "s", 0.0, 0.0)
    assert jet == Jet3(0.0, 1.0, 0.0, -1.0)


def test_jet_of_polynomial():
    jet = eval_jet3(parse("s^2/8"), "s", 2.0, 0.0)
    assert jet == Jet3(0.5, 0.5, 0.25, 0.0)


def test_jet_of_fresnel_sine():
    jet = eval_jet3(parse("fresnelS(s)"), "s", 1.0, 0.0)
    assert jet.c1 == pytest.approx(math.sin(math.pi / 2), abs=1e-15)
    assert jet.c0 == pytest.approx(fresnel_s_oracle(1.0), abs=1e-12)


def test_jet_respects_other_variable():
    jet = eval_jet3(parse("s*v^2"), "v", 2.0, 3.0)
    assert jet.c0 == 18.0
    assert jet.c1 == 12.0
    assert jet.c2 == 4.0
    assert jet.c3 == 0.0


def test_jet_constant_seed():
    jet = eval_jet3(parse("pi"), "s", 5.0, 0.0)
    assert jet == Jet3(math.pi, 0.0, 0.0, 0.0)


def test_abs_jet_kink_warns_and_uses_positive_sign():
    with pytest.warns(KinkWarning):
        jet = eval_jet3(parse("abs(s)"), "s", 0.0, 0.0)
    assert jet.c1 == 1.0


def test_division_by_zero_is_domain_error():
    with pytest.raises(DomainError):
        eval_expr(parse("1/s"), 0.0, 0.0)
    with pytest.raises(DomainError):
        eval_jet3(parse("1/s"), "s", 0.0, 0.0)


def test_log_and_sqrt_domain_errors_name_subexpression():
    with pytest.raises(DomainError) as info:
        eval_expr(parse("1 + ln(s - 4)"), 2.0, 0.0)
    assert "ln" in str(info.value)
    with pytest.raises(DomainError):
        eval_jet3(parse("sqrt(s - 4)"), "s", 2.0, 0.0)


def test_sqrt_jet_of_identically_zero_radicand():
    # sqrt of the zero function has a zero jet, not a singularity
    jet = eval_jet3(parse("sqrt(s - s)"), "s", 3.0, 0.0)
    assert jet == Jet3(0.0, 0.0, 0.0, 0.0)


def jet_matches_finite_differences(text, s, v, var="s"):
    tree = parse(text)
    jet = eval_jet3(tree, var, s, v)

    def f(x):
        return eval_expr(tree, x, v) if var == "s" else eval_expr(tree, s, x)

    x0 = s if var == "s" else v
    d1 = central_diff(f, x0, 1e-5)
    d2 = second_diff(f, x0, 1e-4)
    assert abs(jet.c1 - d1) <= 1e-6 * (1.0 + abs(jet.c1))
    assert abs(jet.c2 - d2) <= 1e-4 * (1.0 + abs(jet.c2))


def test_jets_match_finite_differences_random_corpus():
    """1000 random expressions against the central difference oracle."""
    rng = random.Random(90125)
    checked = 0
    while checked < 1000:
        text = random_expression(rng, depth=3)
        var = rng.choice(("s", "v"))
        s = rng.uniform(-3.0, 3.0)
        v = rng.uniform(-3.0, 3.0)
        try:
            tree = parse(text)
            jet = eval_jet3(tree, var, s, v)
            # steer clear of kinks and huge values, where the difference
            # oracle itself is invalid
            probe = [
                eval_expr(tree, s + ds, v + dv)
                for ds in (-2e-4, 0.0, 2e-4)
                for dv in (-2e-4, 0.0, 2e-4)
            ]
        except DomainError:
            continue
        if any(not math.isfinite(p) or abs(p) > 1e5 for p in probe):
            continue
        if any(not math.isfinite(c) or abs(c) > 1e5 for c in (jet.c1, jet.c2, jet.c3)):
            continue

        def f(x, tree=tree, var=var, s=s, v=v):
            return eval_expr(tree, x, v) if var == "s" else eval_expr(tree, s, x)

        x0 = s if var == "s" else v
        try:
            d1 = central_diff(f, x0, 1e-5)
            d2 = second_diff(f, x0, 1e-4)
        except DomainError:
            continue
        assert abs(jet.c1 - d1) <= 1e-6 * (1.0 + abs(jet.c1)), text
        assert abs(jet.c2 - d2) <= 1e-4 * (1.0 + abs(jet.c2)), text
        checked += 1


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------


def test_compiled_matches_interpreted_bitwise():
    rng = random.Random(11)
    for _ in range(200):
        text = random_expression(rng, depth=3)
        try:
            tree = parse(text)
            fn = compile_values([tree])
            s = rng.uniform(-2.0, 2.0)
            v = rng.uniform(-2.0, 2.0)
            want = eval_expr(tree, s, v)
        except DomainError:
            continue
        (got,) = fn(s, v)
        assert got == want

    # A row kernel over three trees that share subtrees agrees bitwise with
    # eval_expr + combine_on_frame, with -0.0 written as 0.0, and fails
    # wherever they fail.
    checked = 0
    for _ in range(150):
        shared = random_expression(rng, depth=2)
        texts = (
            f"({shared})*{random_expression(rng, depth=2)}",
            f"sin({shared}) - {random_expression(rng, depth=2)}",
            f"({shared})*v + s",
        )
        try:
            trees = [parse(text) for text in texts]
        except ParseError:
            continue
        s = rng.uniform(-2.0, 2.0)
        v_values = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        base = G3Vector(s, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        frame = FrenetFrame(
            s=s,
            t=G3Vector(1.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            n=G3Vector(0.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            b=G3Vector(0.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            kappa=1.0,
            tau=1.0,
        )
        try:
            want = [
                combine_on_frame(base, frame, *(eval_expr(t, s, v) for t in trees))
                for v in v_values
            ]
            fails = not all(math.isfinite(c) for p in want for c in p.as_tuple())
        except (DomainError, ValueError, OverflowError):
            fails = True
        got: list[float] = []
        # the kernel takes the point and the frame as point_parts and frame_parts give them
        args = (s, base.as_tuple(), frame.parts(), got)
        if fails:
            with pytest.raises(DomainError):
                compile_surface_rows(*trees, v_values)(*args)
            continue
        compile_surface_rows(*trees, v_values)(*args)
        # float.hex tells -0.0 from 0.0, which == does not
        canonical = [(c + 0.0).hex() for p in want for c in p.as_tuple()]
        assert [c.hex() for c in got] == canonical, texts
        checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "text, s, v",
    [
        ("sqrt(s)", -1.0, 0.0),
        ("(s+v)^0.5", -1.0, 0.0),  # plain Python would return a complex number
        ("ln(v)", 1.0, 0.0),
        ("1/(s-v)", 1.0, 1.0),
        ("s^-1", 0.0, 2.0),
        ("2*(s*v)^1.5 + (s*v)^1.5", -1.0, 1.0),
        ("sin(sinh(300*v))", 0.0, 5.0),  # sinh overflows to inf, sin refuses it
        ("cos(-cosh(v))", 0.0, 1000.0),
        ("tan(exp(s))", 800.0, 0.0),
        ("fresnelS(exp(s))", 800.0, 0.0),
        ("(s*1e200)^2*v", 1.0, 1.0),  # the power overflows
        # two nodes fail; the kernel names the one the tree reaches first
        ("sin((ln(v)/(0.78/s))/1.608^1.5)", math.inf, 0.0),
        ("s/0", 1.0, 2.0),  # a constant divisor of 0 fails at compile time
    ],
)
def test_compiled_fails_where_tree_evaluator_fails(text, s, v):
    tree = parse(text)
    # Compiled code names the failing node as the tree evaluators do.
    pairs = [
        (lambda: eval_expr(tree, s, v), lambda: compile_values([tree])(s, v)),
    ]
    for var in ("s", "v"):
        pairs.append(
            (
                lambda var=var: eval_jet3(tree, var, s, v),
                lambda var=var: compile_jets([tree], var)(s, v),
            )
        )
    for reference, compiled in pairs:
        assert _domain_error(compiled) == _domain_error(reference)


def _domain_error(evaluate) -> str:
    with pytest.raises(DomainError) as info:
        evaluate()
    return str(info.value)


def test_hyperbolic_overflow_gives_inf_everywhere():
    for text, want in (("sinh(v)", math.inf), ("-sinh(-v)", math.inf), ("cosh(-v)", math.inf)):
        tree = parse(text)
        (got,) = compile_values([tree])(0.0, 1000.0)
        assert eval_expr(tree, 0.0, 1000.0) == got == want
        assert eval_jet3(tree, "v", 0.0, 1000.0).c0 == want
        assert compile_jets([tree], "v")(0.0, 1000.0)[0] == want


@pytest.mark.parametrize("func", ["sin", "cos", "tan"])
def test_trig_of_infinity_names_the_node(func):
    tree = parse(f"1 + {func}(exp(v))")
    message = f"{func} of an infinite value in '{func}(exp(v))'"
    for evaluate in (
        lambda: eval_expr(tree, 0.0, 1000.0),
        lambda: compile_values([tree])(0.0, 1000.0),
        lambda: eval_jet3(tree, "v", 0.0, 1000.0),
        lambda: compile_jets([tree], "v")(0.0, 1000.0),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            evaluate()


def _run(evaluate):
    """(result, failure, kink messages) of one evaluation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, failure = evaluate(), None
        except DomainError as exc:
            result, failure = None, exc
    kinks = {str(w.message) for w in caught if issubclass(w.category, KinkWarning)}
    return result, failure, kinks


# Inputs at which the corpus reaches kinks, zero divisors, underflows and
# non-finite values.
SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, math.inf, -math.inf, math.nan)


def test_compiled_jets_match_tree_jets_bitwise():
    """Compiled jets in s and in v against eval_jet3 on two random corpora.

    Coefficients must agree bitwise (float.hex tells -0.0 from 0.0).  Where
    the tree evaluator raises DomainError the kernel raises the same
    message, and it warns KinkWarning with the same messages.  Compiling
    may fail, on a constant part outside its domain, only where eval_jet3
    fails too.  Half the trees come from the failure-rich corpus, whose
    zero divisors, zero exponents and constant parts reach every special
    case of the compiler.
    """
    rng = random.Random(4242)
    checked = {"s": 0, "v": 0}
    failed = kinked = compile_failed = 0
    while min(checked.values()) < 1500:
        draw = random_expression if rng.random() < 0.5 else failure_rich_expression
        try:
            tree = parse(draw(rng, depth=rng.choice((2, 3, 4))))
        except ParseError:
            continue
        s, v = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        if rng.random() < 0.3:
            s = rng.choice(SPECIAL)
        if rng.random() < 0.3:
            v = rng.choice(SPECIAL)
        for var in ("s", "v"):
            want, want_error, want_kinks = _run(lambda: eval_jet3(tree, var, s, v))
            case = (to_source(tree), var, s, v)
            kernel, compile_error, _ = _run(lambda: compile_jets([tree], var))
            if compile_error is not None:
                assert want_error is not None, case
                compile_failed += 1
                continue
            got, got_error, got_kinks = _run(lambda: kernel(s, v))
            assert str(got_error) == str(want_error), case
            assert got_kinks == want_kinks, case
            if want_error is None:
                assert [c.hex() for c in got] == [c.hex() for c in _coefficients(want)], case
            failed += want_error is not None
            kinked += bool(want_kinks)
            checked[var] += 1
    assert failed > 20 and kinked > 20 and compile_failed > 20


def test_normal_kernel_runs_the_jets_in_s_then_in_v():
    """The one jet kernel of surface_normal, on the failure-rich corpus.

    It must give the values, DomainError text and kink set of the kernels
    of the jets in s and in v compiled and called in turn, which it
    replaced.  Where eval_jet3 in s, then in v, succeeds on all three
    trees, its coefficients are eval_jet3's.  The kernel of the same two
    pairs with all four orders matches eval_jet3 in s, then in v, in
    values, failures and kinks, and may fail to compile only where
    eval_jet3 fails.
    """
    rng = random.Random(1515)
    # c0 and c1 in s of each tree, then c1 in v, among eval_jet3's c0..c3
    selected = [i * 4 + k for i in range(3) for k in (0, 1)] + [12 + i * 4 + 1 for i in range(3)]
    checked = failed = kinked = 0
    while checked < 600:
        texts = [failure_rich_expression(rng, depth=rng.choice((1, 2, 3))) for _ in "abg"]
        if rng.random() < 0.5:
            texts[2] = f"abs(s*v)*{texts[2]}"  # a kink in s and in v where s or v is 0
        try:
            trees = [parse(text) for text in texts]
        except ParseError:
            continue
        full, full_compile_error, _ = _run(
            lambda: compile_jets(trees, "s", (0, 1, 2, 3), ("v", (0, 1, 2, 3)))
        )
        for _ in range(3):
            s, v = (rng.choice(SPECIAL) if rng.random() < 0.5 else rng.uniform(-3.0, 3.0) for _ in "sv")
            case = ([to_source(t) for t in trees], s, v)
            got = _run(lambda: MarchingScale(*trees)._normal_jets(s, v))
            in_turn = _run(
                lambda: compile_jets(trees, "s", (0, 1))(s, v) + compile_jets(trees, "v", (1,))(s, v)
            )
            assert _outcome(got) == _outcome(in_turn), case
            want, want_error, want_kinks = _run(
                lambda: [c for var in "sv" for t in trees for c in _coefficients(eval_jet3(t, var, s, v))]
            )
            if want_error is None:
                assert _outcome(got) == _outcome(([want[k] for k in selected], None, want_kinks)), case
            if full_compile_error is not None:
                assert want_error is not None, case
            else:
                assert _outcome(_run(lambda: full(s, v))) == _outcome((want, want_error, want_kinks)), case
            failed += got[1] is not None
            kinked += bool(got[2])
            checked += 1
    assert failed > 100 and kinked > 50


def _outcome(run) -> tuple:
    """A result of _run with its coefficients as float.hex, which tells -0.0 from 0.0."""
    result, failure, kinks = run
    return None if result is None else [c.hex() for c in result], str(failure), kinks


# Every non-empty selection of the coefficient orders a kernel returns.
ORDER_SETS = [orders for k in range(1, 5) for orders in itertools.combinations(range(4), k)]
POINTS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIAL))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.sampled_from((2, 3, 4)), s=POINTS, v=POINTS)
def test_reduced_jet_kernels_return_the_selected_coefficients(seed, depth, s, v):
    """A kernel computes only the orders it returns, and fails only for them.

    Where the kernel of all four orders succeeds, the kernel of any
    selection returns exactly those coefficients of eval_jet3; where a
    reduced kernel raises, the full kernel raises DomainError too.
    """
    try:
        tree = parse(random_expression(random.Random(seed), depth=depth))
    except ParseError:
        return
    for var in ("s", "v"):
        want, _, _ = _run(lambda: eval_jet3(tree, var, s, v))
        _, full_error, _ = _run(lambda: compile_jets([tree], var)(s, v))
        for orders in ORDER_SETS:
            got, got_error, _ = _run(lambda: compile_jets([tree], var, orders)(s, v))
            case = (to_source(tree), var, s, v, orders)
            if full_error is None:
                assert got_error is None, case
                coefficients = _coefficients(want)
                assert [c.hex() for c in got] == [coefficients[k].hex() for k in orders], case
            if got_error is not None:
                assert isinstance(full_error, DomainError), case


@pytest.mark.parametrize(
    "text, orders, s, message",
    [
        # c1 of ln(s) needs no log, but the argument check stays
        ("ln(s)", (1,), -1.0, "log of a non-positive value in 'ln(s)'"),
        ("s*sqrt(2 - s)", (2,), 3.0, "square root of a negative value in 'sqrt(2.0 - s)'"),
        ("s/(s - 1)", (3,), 1.0, "division by zero in 's/(s - 1.0)'"),
    ],
)
def test_reduced_jet_kernels_keep_every_guard(text, orders, s, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        compile_jets([parse(text)], "s", orders)(s, 0.0)


def test_reduced_jet_kernels_keep_every_kink():
    # c0 of abs(s) needs no sign, but the kink still warns
    with pytest.warns(KinkWarning):
        assert compile_jets([parse("abs(s)")], "s", (0,))(0.0, 0.0) == (0.0,)


def test_a_reduced_sqrt_jet_computes_no_step_it_does_not_return():
    # at s = 5e-324, s * sqrt(s) underflows to 0.0: the steps of c2 and c3
    # divide by zero, and those of c0 and c1 do not
    r = math.sqrt(5e-324)
    assert compile_jets([parse("sqrt(s)")], "s", (0, 1))(5e-324, 0.0) == (r, 0.5 / r)
    with pytest.raises(DomainError, match=re.escape("float division by zero in 'sqrt(s)'")):
        compile_jets([parse("sqrt(s)")], "s")(5e-324, 0.0)


def test_a_reduced_sqrt_jet_refuses_an_argument_that_starts_at_order_two():
    # sqrt(v^2) = |v| has no first derivative at v = 0, though c1 of v^2 is 0
    with pytest.raises(DomainError, match=re.escape("derivative of sqrt at zero in 'sqrt(v^2.0)'")):
        compile_jets([parse("sqrt(v^2)")], "v", (1,))(0.0, 0.0)


@pytest.mark.parametrize("orders", [(), (4,), (-1,)])
def test_jet_orders_must_be_a_selection_of_zero_to_three(orders):
    with pytest.raises(ValueError, match="orders"):
        compile_jets([parse("s")], "s", orders)


@pytest.mark.parametrize(
    "text, var, s, v, want",
    [
        # a flat factor b gives c_k = a_k * b0, with no 0 * inf term
        ("s*1e308*v", "s", 5.0, 2.0, (math.inf, math.inf, 0.0, 0.0)),
        ("abs(v)*s", "s", math.nan, 2.0, (math.nan, 2.0, 0.0, 0.0)),
        # a flat divisor gives c_k = a_k / b0
        ("s*1e308/v", "s", 5.0, 2.0, (math.inf, 5e307, 0.0, 0.0)),
        # a flat subtree has exact zeros as derivatives
        ("-v", "s", 1.0, 2.0, (-2.0, 0.0, 0.0, 0.0)),
        # and computes no derivative of its own, here one that overflows
        ("(v*1e-200)^-1", "s", 1.0, 1.0, (1e200, 0.0, 0.0, 0.0)),
        # its value is eval_expr's, also for a fractional power at a zero base
        ("v^0.5*s", "s", 3.0, 0.0, (0.0, 0.0, 0.0, 0.0)),
    ],
)
def test_flat_jet_rule(text, var, s, v, want):
    tree = parse(text)
    jets = (_coefficients(eval_jet3(tree, var, s, v)), compile_jets([tree], var)(s, v))
    for got in jets:
        assert [c.hex() for c in got] == [c.hex() for c in want]


def test_abs_of_a_flat_argument_does_not_warn():
    tree = parse("abs(v)*s")
    for evaluate in (
        lambda: eval_jet3(tree, "s", 2.0, 0.0),
        lambda: compile_jets([tree], "s")(2.0, 0.0),
    ):
        assert _run(evaluate)[2] == set()
    assert _run(lambda: eval_jet3(tree, "v", 2.0, 0.0))[2]  # in v, the kink is real


@pytest.mark.parametrize("exponent", [Var("s"), BinOp("+", Var("v"), Num(1.0))])
def test_binop_refuses_an_exponent_that_reads_a_variable(exponent):
    # the parser refuses these with an offset; a tree built by hand too
    with pytest.raises(ValueError, match="exponent must be a constant expression"):
        BinOp("^", Var("v"), exponent)
    assert BinOp("*", Var("v"), exponent).reads  # other operators take any operand


def test_compiled_jets_share_subtrees_across_trees():
    trees = [parse("fresnelS(s/3)*v"), parse("fresnelC(s/3) - v^2"), parse("abs(s - v)")]
    kernel = compile_jets(trees, "s")
    for s, v in ((0.4, 1.5), (-2.0, 0.25), (1.0, 1.0)):
        want, _, want_kinks = _run(
            lambda: [c for t in trees for c in _coefficients(eval_jet3(t, "s", s, v))]
        )
        got, _, got_kinks = _run(lambda: kernel(s, v))
        assert [c.hex() for c in got] == [c.hex() for c in want]
        assert got_kinks == want_kinks


def _coefficients(jet: Jet3) -> tuple[float, ...]:
    return jet.c0, jet.c1, jet.c2, jet.c3


@pytest.mark.parametrize(
    "text, s, v",
    [
        ("sqrt(s - s)", 3.0, 0.0),  # zero function: zero jet, no failure
        ("sqrt(-(s - s))", 3.0, 0.0),  # at -0.0 too, with +0.0 coefficients
        ("sqrt(s*v)", 0.0, 2.0),  # derivative of sqrt at zero in s, not in v
        ("sqrt(s^3)", 0.0, 2.0),  # only the third coefficient is nonzero
        ("abs(1 - 1)*s", 2.0, 1.0),  # constant kink, folded at compile time
        ("s^0 + (s*v)^-2", 1.0, 0.0),
        ("1/(v - 1)*s", 2.0, 1.0),
        ("sqrt(s)*v", 5e-324, 1.0),  # the sqrt jet divides by zero in s
        # the jet of s^0 has a value that is a run-time name, not a literal
        ("abs(s^0)", 2.0, 1.0),
        ("sqrt(s^0)*2", 2.0, 1.0),
        ("abs(s^0 - 1)*s", 2.0, 1.0),  # a kink in s, not in v
    ],
)
def test_compiled_jets_edge_cases(text, s, v):
    tree = parse(text)
    for var in ("s", "v"):
        want, want_error, want_kinks = _run(lambda: eval_jet3(tree, var, s, v))
        got, got_error, got_kinks = _run(lambda: compile_jets([tree], var)(s, v))
        assert str(got_error) == str(want_error)
        assert got_kinks == want_kinks
        if want_error is None:
            assert [c.hex() for c in got] == [c.hex() for c in _coefficients(want)]


def test_compiled_exp_overflows_to_inf():
    tree = parse("exp(300*v)")
    (got,) = compile_values([tree])(0.0, 5.0)
    assert got == eval_expr(tree, 0.0, 5.0) == math.inf


def test_compiled_constant_outside_domain_fails_at_compile_time():
    with pytest.raises(DomainError, match="log of a non-positive value"):
        compile_values([parse("s + ln(1 - 1)")])


def test_a_failed_compile_is_deferred_to_every_call():
    message = "log of a non-positive value in 'ln(1.0 - 1.0)'"
    assert _domain_error(lambda: compile_values([parse("s + ln(1 - 1)")])) == message
    kernel = compile_or_defer(compile_values, [parse("s + ln(1 - 1)")])
    errors = []
    for s in (0.0, 2.0):
        with pytest.raises(DomainError) as info:
            kernel(s, 1.0)
        errors.append(info.value)
    assert [str(e) for e in errors] == [message] * 2
    assert errors[0] is not errors[1]  # a fresh error, whose traceback does not grow
    # a compile that succeeds is returned as it is, and other errors propagate
    assert compile_or_defer(compile_values, [parse("v/2")])(0.0, 1.0) == (0.5,)
    with pytest.raises(ValueError, match="orders"):
        compile_or_defer(compile_jets, [parse("v")], "s", ())
    # a record keeps the failing kernel, so it compiles once
    curve = CurveSpec("c", parse("ln(0)*s"), parse("s"))
    assert curve._frame_jets is curve._frame_jets
    message = "log of a non-positive value in 'ln(0.0)'"
    assert _domain_error(lambda: curve._frame_jets(1.0, 0.0)) == message


# Constant parts run at compile time.  The texts that fold give the tree
# oracle's value bit for bit, with no Fresnel call left in the kernel; the
# others fail there with the oracle's DomainError.
@pytest.mark.parametrize(
    "text, want_hex, error",
    [
        ("fresnelS(1)*s", None, None),
        ("fresnelC(2) + fresnelS(2)*v", None, None),  # a shared pair
        ("-(0.0)*s", "-0x0.0p+0", None),
        ("s + (-0)^3", None, None),
        ("s + (1e200)^2", None, "(34, 'Numerical result out of range') in '1e+200^2.0'"),
        ("fresnelS(1e200) + s", None, "math domain error in 'fresnelS(1e+200)'"),
        ("(-1)^0.5 + s", None, "fractional power of a negative base in '(-1.0)^0.5'"),
        ("0^-1*s", None, "zero base with negative exponent in '0.0^-1.0'"),
        ("s*ln(0)", None, "log of a non-positive value in 'ln(0.0)'"),
        ("tan(exp(1000))*v", None, "tan of an infinite value in 'tan(exp(1000.0))'"),
        ("s/(1 - 1)", None, "division by zero in 's/(1.0 - 1.0)'"),
    ],
)
def test_constant_parts_fold_at_compile_time(text, want_hex, error):
    tree = parse(text)
    if error is not None:
        assert _domain_error(lambda: compile_values([tree])) == error
        return
    kernel = compile_values([tree])
    assert "_fresnel" not in kernel.__code__.co_names
    (got,) = kernel(0.5, 2.0)
    assert got.hex() == eval_expr(tree, 0.5, 2.0).hex()
    if want_hex is not None:
        assert got.hex() == want_hex


def test_a_constant_text_folds_once(monkeypatch):
    import g3pencil.exprjet

    calls = []
    original = g3pencil.exprjet._fresnel

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(g3pencil.exprjet, "_fresnel", counting)
    compile_values([parse("fresnelS(2)*s + fresnelS(2)*v")])
    assert calls == [2.0]


def test_row_kernels_hoist_v_only_and_s_only_work(monkeypatch):
    import g3pencil.exprjet

    calls = []
    original = g3pencil.exprjet._fresnel

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(g3pencil.exprjet, "_fresnel", counting)
    v_values = [0.0, 0.5, 1.0, 1.5]
    row = compile_surface_rows(parse("s*fresnelS(v)"), parse("fresnelC(s)*v"), parse("v"), v_values)
    assert calls == v_values  # fresnelS(v), once per column
    unit = (0.0, 1.0, 0.0)
    out: list[float] = []
    for s in (0.1, 0.2, 0.3, 0.4, 0.5):
        row(s, (0.0, 0.0, 0.0), (1.0, 1.0, unit, unit, unit), out)
    assert calls[4:] == [0.1, 0.2, 0.3, 0.4, 0.5]  # fresnelC(s), once per row
    assert len(out) == 5 * 4 * 3


def test_row_kernel_rejects_non_finite_points():
    zero = Num(0.0)
    row = compile_surface_rows(parse("exp(300*v)"), zero, zero, [0.0, 5.0])
    unit = (0.0, 1.0, 0.0)
    origin, tangent = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="non-finite"):
        row(0.0, origin, (1.0, 1.0, tangent, unit, unit), [])


def test_row_kernel_writes_signed_zeros_as_zero():
    # every sum below is -0.0; the mesh stores it as 0.0, so it prints as "0"
    zero = Num(0.0)
    row = compile_surface_rows(zero, zero, zero, [0.0, 1.0])
    minus = (-0.0, -0.0, -0.0)
    out: list[float] = []
    row(0.0, minus, (1.0, 1.0, minus, minus, minus), out)
    assert [c.hex() for c in out] == [(0.0).hex()] * 6


# ---------------------------------------------------------------------------
# Fresnel integrals
# ---------------------------------------------------------------------------


def test_fresnel_at_zero():
    assert fresnel_s(0.0) == 0.0
    assert fresnel_c(0.0) == 0.0


def test_fresnel_reference_values():
    # frozen from the adaptive Simpson oracle (tol 1e-13)
    assert fresnel_s(1.0) == pytest.approx(0.4382591473903547, abs=1e-12)
    assert fresnel_c(1.0) == pytest.approx(0.7798934003768228, abs=1e-12)


def test_fresnel_series_keeps_the_bits_of_integer_divisors():
    # the goldens pin these bits; the series divides by float copies of ints
    for x in [1.6 * k / 4000 for k in range(4001)] + [0.0, 5e-324, math.nextafter(1.6, 0.0)]:
        got, want = _fresnel_series(x), fresnel_series_reference(x)
        assert [v.hex() for v in got] == [v.hex() for v in want], x


def test_fresnel_series_keeps_the_bits_of_its_reference_loop():
    # the loop negates w^2 once and reads its tolerance from a local; the
    # float operations and their order are the reference's
    xs = [1.6 * k / 4000 for k in range(4001)]
    xs += [0.0, 5e-324, 1e-300, math.nextafter(1.6, 0.0), math.nextafter(1.6, 2.0)]
    for x in xs:
        got, want = _fresnel_series(x), fresnel_series_loop(x)
        assert [v.hex() for v in got] == [v.hex() for v in want], x


def test_fresnel_of_nan_is_nan_at_once(monkeypatch):
    def no_fraction(x):
        raise AssertionError("the continued fraction ran on NaN")

    monkeypatch.setattr("g3pencil.exprjet._fresnel_fraction", no_fraction)
    assert math.isnan(fresnel_s(math.nan)) and math.isnan(fresnel_c(-math.nan))


def test_fresnel_odd_extension():
    for x in (0.3, 1.0, 2.5, 7.0):
        assert fresnel_s(-x) == -fresnel_s(x)
        assert fresnel_c(-x) == -fresnel_c(x)


def test_fresnel_against_quadrature_oracle():
    rng = random.Random(5)
    points = [rng.uniform(-20.0, 20.0) for _ in range(60)] + [1.6, -1.6, 0.5, 12.0]
    table = fresnel_table(points)
    for p, (so, co) in table.items():
        assert abs(fresnel_s(p) - so) <= 1e-10
        assert abs(fresnel_c(p) - co) <= 1e-10


def test_fresnel_derivative_identity_via_jets():
    # d/dx S(x) = sin(pi x^2 / 2), checked through the jet machinery
    tree_s = parse("fresnelS(s)")
    tree_c = parse("fresnelC(s)")
    for x in (-2.3, -0.7, 0.1, 0.9, 1.7, 4.2):
        js = eval_jet3(tree_s, "s", x, 0.0)
        jc = eval_jet3(tree_c, "s", x, 0.0)
        assert abs(js.c1 - math.sin(0.5 * math.pi * x * x)) <= 1e-12
        assert abs(jc.c1 - math.cos(0.5 * math.pi * x * x)) <= 1e-12
