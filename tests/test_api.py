"""The package's top level: exactly the documented names, and the README example runs."""

import re
from pathlib import Path

import rectcover

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "Rect",
    "BaseServiceZone",
    "DemandZone",
    "Dimension",
    "Eta",
    "Instance",
    "Placement",
    "QosSet",
    "Solution",
    "covered_reward",
    "greedy",
    "pseudo_greedy",
    "solve",
    "solve_1d",
    "OracleSizeError",
    "brute_force_1d",
    "brute_force_2d",
    "GenConfig",
    "generate",
    "generate_1d",
]


def _library_use() -> str:
    return README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_top_level_exports_exactly_the_documented_names():
    assert rectcover.__all__ == PUBLIC
    assert all(hasattr(rectcover, name) for name in PUBLIC)
    # the README lists the same names, between these two phrases
    listed = _library_use().split("exports exactly these names", 1)[1].split("Everything else", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(PUBLIC)


def test_readme_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _library_use(), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0].split()[1] == "True"  # the example proves its optimum
