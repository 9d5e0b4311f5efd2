import itertools

from canids.gcn import TrainConfig
from helpers import SCENARIO_KINDS, load_script


def test_accuracy_table_prints_one_row_per_scenario_and_base_and_repeats(capsys):
    """With one seed on a small capture the script prints a header and one
    row per (base, scenario), and a second run prints the same text."""
    script = load_script("accuracy_table")
    argv = ["--seeds", "0", "--frames", "20000"]
    assert script.main(argv) == 0
    first = capsys.readouterr().out
    header, *rows = first.splitlines()
    assert header.split() == ["base", "scenario", "epochs", "seeds", "f1_min",
                              "f1_median", "f1_max", "undefined"]
    bases = [name for name, _, _ in script.BASES]
    assert [tuple(row.split()[:4]) for row in rows] == [
        (base, scenario, str(TrainConfig.epochs), "1") for base, scenario in itertools.product(bases, SCENARIO_KINDS)]
    assert script.main(argv) == 0
    assert capsys.readouterr().out == first
