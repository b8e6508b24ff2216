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
