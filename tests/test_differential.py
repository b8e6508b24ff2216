from pathlib import Path

import differential

SRC = Path(__file__).resolve().parent.parent / "src"

# a synthesis with v0 < 0, a load error and an as-printed figure's files
SOME = [
    ["verify", "synthesis-v0-neg.json", "--mode", "fd"],
    ["build", "direct-two-faults.json", "-o", "out.obj", "--grid", "4x4"],
    ["reproduce", "fig1b", "-o", "out", "--grid", "40x10", "--as-printed"],
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
    found, total = differential.compiled_differences(SRC, SRC, seed=1, count=40)
    assert found == []
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
