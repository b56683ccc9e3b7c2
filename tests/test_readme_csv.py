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
    """The cells where two CSV texts differ, with the largest numeric |Δ|."""
    old = list(csv.reader(io.StringIO(expected)))
    new = list(csv.reader(io.StringIO(actual)))
    if len(old) != len(new):
        return f"row count changed from {len(old)} to {len(new)}"
    header = old[1] if len(old) > 1 else []
    cells, largest = [], 0.0
    for line, (a, b) in enumerate(zip(old, new), start=1):
        if len(a) != len(b):
            cells.append(f"line {line}: {len(a)} -> {len(b)} cells")
            continue
        for col, (x, y) in enumerate(zip(a, b)):
            if x == y:
                continue
            name = header[col] if line > 2 and col < len(header) else f"#{col}"
            cells.append(f"line {line} {name}: {x} -> {y}")
            try:
                largest = max(largest, abs(float(x) - float(y)))
            except ValueError:  # a text cell
                pass
    shown = "\n  ".join(cells[:20])
    return f"{len(cells)} cells changed, largest |Δ| = {largest:.3e}:\n  {shown}"


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
    assert changed_cells(expected, expected + "2,3,engine\n").startswith("row count")
