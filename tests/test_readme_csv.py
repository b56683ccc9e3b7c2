"""The README's command-line examples against their committed outputs.

Each INI file in tests/data/readme is one config per scenario. Run
through cli.main, it must reproduce the committed CSV byte for byte.
Five are the README's own example configs. carnot-stroke is a short
stroke instead (durations 2, 3, 4 in place of the README's 10 to 100,
which take about 10 s), so that the swept-bath route is guarded too; its
strokes warn SlowDriveViolation by design. After a change that is meant
to move the numbers, regenerate the files with the command in the
README's Tests section and list the changed cells.
"""

import csv
import io
from pathlib import Path

import pytest

from squeezedbath.cli import main

DATA = Path(__file__).parent / "data" / "readme"
SCENARIOS = (
    "decay", "squeezed-relax", "carnot-stroke", "otto-sweep", "cycle", "multibath"
)


def changed_cells(expected: str, actual: str) -> str:
    """The cells where two CSV texts differ, with the largest numeric |Δ|:
    the first 20 cells, then per column the count and the largest |Δ|."""
    old = list(csv.reader(io.StringIO(expected)))
    new = list(csv.reader(io.StringIO(actual)))
    if len(old) != len(new):
        return f"row count changed from {len(old)} to {len(new)}"
    header = old[1] if len(old) > 1 else []
    cells, columns = [], {}  # column -> [count, largest |Δ|]
    for line, (a, b) in enumerate(zip(old, new), start=1):
        if len(a) != len(b):
            cells.append(f"line {line}: {len(a)} -> {len(b)} cells")
            continue
        for col, (x, y) in enumerate(zip(a, b)):
            if x == y:
                continue
            name = header[col] if line > 2 and col < len(header) else f"#{col}"
            cells.append(f"line {line} {name}: {x} -> {y}")
            column = columns.setdefault(name, [0, 0.0])
            column[0] += 1
            try:
                column[1] = max(column[1], abs(float(x) - float(y)))
            except ValueError:  # a text cell
                pass
    largest = max((d for _, d in columns.values()), default=0.0)
    shown = "\n  ".join(cells[:20])
    summary = "\n  ".join(
        f"{name}: {count} cells, largest |Δ| = {d:.3e}"
        for name, (count, d) in columns.items()
    )
    return (f"{len(cells)} cells changed, largest |Δ| = {largest:.3e}:\n  {shown}"
            f"\nper column:\n  {summary}")


@pytest.mark.filterwarnings("ignore::squeezedbath.SlowDriveViolation")
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_output_matches_the_committed_csv(scenario, tmp_path):
    out = tmp_path / f"{scenario}.csv"
    argv = [scenario, "--config", str(DATA / f"{scenario}.ini"), "--out", str(out)]
    assert main(argv) == 0
    expected = (DATA / f"{scenario}.csv").read_bytes()
    actual = out.read_bytes()
    assert actual == expected, changed_cells(expected.decode(), actual.decode())


def test_changed_cells_names_each_cell_and_the_largest_change():
    expected = "# units\nt,energy,regime\n0,1.5,engine\n1,2.25,engine\n"
    actual = "# units\nt,energy,regime\n0,1.5,engine\n1,2.5,refrigerator\n"
    report = changed_cells(expected, actual)
    assert report.startswith("2 cells changed, largest |Δ| = 2.500e-01")
    assert "line 4 energy: 2.25 -> 2.5" in report
    assert "line 4 regime: engine -> refrigerator" in report
    assert report.endswith(
        "per column:\n  energy: 1 cells, largest |Δ| = 2.500e-01"
        "\n  regime: 1 cells, largest |Δ| = 0.000e+00"
    )
    # past the 20 cells listed, the summary still counts every change
    rows = [f"{t},{t}.5,engine" for t in range(30)]
    moved = [f"{t},{t}.75,engine" for t in range(30)]
    report = changed_cells("\n".join(["# units", "t,energy,regime", *rows]),
                           "\n".join(["# units", "t,energy,regime", *moved]))
    assert report.count("\n  line ") == 20
    assert report.endswith("per column:\n  energy: 30 cells, largest |Δ| = 2.500e-01")
    assert changed_cells(expected, expected + "2,3,engine\n").startswith("row count")
