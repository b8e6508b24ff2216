from pathlib import Path

import differential

SRC = Path(__file__).resolve().parent.parent / "src"

# a synthesis with v0 < 0, a load error, an as-printed figure's files and
# the printed helix's document twin
SOME = [
    ["verify", "synthesis-v0-neg.json", "--mode", "fd"],
    ["build", "direct-two-faults.json", "-o", "out.obj", "--grid", "4x4"],
    ["reproduce", "fig1b", "-o", "out", "--grid", "40x10", "--as-printed"],
    ["classify", "helix-printed.json"],
]


def test_a_source_tree_against_itself_shows_no_difference():
    assert all(argv in differential.COMMANDS for argv in SOME)
    assert differential.differences(SRC, SRC, SOME) == []


def test_a_run_holds_what_the_command_gave():
    code, out, err, files = differential.run(SRC, SOME[1])
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: SchemaError: $.marching_scale.direct.alpha: must vanish")
    code, out, err, files = differential.run(SRC, SOME[2])
    assert code == 0 and out == b"wrote out/fig1b.obj\nwrote out/fig1b.csv\n"
    assert sorted(files) == ["out/fig1b.csv", "out/fig1b.obj"]
    rows = files["out/fig1b.obj"].splitlines()
    assert sum(row.startswith(b"v ") for row in rows) == 40 * 10


def test_the_compiled_family_of_a_tree_against_itself_shows_no_difference():
    # each tree is a fresh interpreter with its own hash seed, so kernel
    # text or output that follows set or dict order would differ here
    found, total, triples = differential.family_differences(SRC, SRC, "compiled", 1, 40)
    assert (found, triples) == ([], 40)
    assert total > 40 * 6 * len(differential.SPECIAL_S)


def test_a_compiled_outcome_holds_values_errors_and_kinks():
    (outcomes,) = differential.compiled_outcomes([["s*v", "abs(s)*v", "sqrt(v)"]])
    assert list(outcomes) == ["values", *differential.JET_KERNELS, "rows"]
    values = outcomes["values"]
    assert values[0] == [None, []]  # compiled
    assert len(values) == 1 + len(differential.SPECIAL_S) * len(differential.SPECIAL_V)
    assert values[1] == [["0x0.0p+0"] * 3, None, []]  # (0.0, 0.0)
    kink = "abs() differentiated at its kink in 'abs(s)'"
    assert outcomes["jets in s"][1][1:] == [None, [kink]]
    assert outcomes["jets in v"][1] == [
        None, "DomainError: derivative of sqrt at zero in 'sqrt(v)'", []
    ]
    (failed,) = differential.compiled_outcomes([["v", "v", "ln(0)"]])
    message = "DomainError: log of a non-positive value in 'ln(0.0)'"
    assert all(outcomes == [[message, []]] for outcomes in failed.values())


def test_the_parse_family_of_a_tree_against_itself_shows_no_difference():
    found, total, texts = differential.family_differences(SRC, SRC, "parse", 1, 20)
    assert (found, total, texts) == ([], 1000, 1000)


def test_a_parse_outcome_holds_the_tree_or_the_error_and_offset():
    texts = ["s\u00a0+\u2003v", "1 \u2167", "(" * 101 + "v" + ")" * 101]
    assert differential.parse_outcomes(texts) == [
        {"parse": [["BinOp(op='+', left=Var(name='s'), right=Var(name='v'))"]]},
        {"parse": [[None, "ParseError: unexpected character '\u2167' (at offset 2)", 2]]},
        {"parse": [[None, "ParseError: expression nested deeper than 100 levels "
                          "(at offset 100)", 100]]},
    ]
    drawn = differential.draw_parse_texts(1, 20)
    assert any(len(text) > 90 and text.count("(") + text.count("-") >= 90 for text in drawn)
    assert any(set(text) & set(differential.SPACES[4:]) for text in drawn)


def test_the_to_source_family_of_a_tree_against_itself_shows_no_difference():
    found, total, realizations = differential.family_differences(SRC, SRC, "to_source", 1, 1)
    assert found == []
    assert realizations == 2 * (len(differential._figure_docs(False)) + 2)
    assert total > 1000


def test_a_to_source_outcome_holds_each_subtree_text():
    doc = differential.DOCS["direct-control"]
    plain = {key: value for key, value in doc.items() if key != "control"}
    realization = [["direct", plain]]
    (outcomes,) = differential.to_source_outcomes(realization)
    assert list(outcomes) == ["alpha", "beta", "gamma", "f", "g"]
    assert outcomes["alpha"] == [["0.0", True, None, []]]
    assert outcomes["beta"] == [["v", True, None, []]]
    (failed,) = differential.to_source_outcomes([["direct", doc]])
    assert failed == {"realize": [["SchemaError: $.control: not allowed beside a direct block",
                                   []]]}


def test_the_config_family_of_a_tree_against_itself_shows_no_difference():
    found, total, documents = differential.family_differences(
        SRC, SRC, "config_from_dict", 1, 20)
    assert (found, total, documents) == ([], 200, 200)


def test_a_config_outcome_holds_the_record_or_the_error():
    documents = differential.draw_documents(1, 5)
    assert len(documents) == 50
    assert all(":" in label for label, _ in documents)
    outcomes = differential.config_outcomes(documents)
    errors = [outcome["config_from_dict"][0][1] for outcome in outcomes]
    assert any(error is None for error in errors)
    assert any(error and error.startswith("SchemaError: $.") for error in errors)
