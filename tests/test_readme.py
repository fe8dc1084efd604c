"""README's examples run as written: the Quick start block prints what its
comment says, and the example scenario file loads and builds."""

import contextlib
import io
import re
from pathlib import Path

from tropcurve import build_scenario, load_spec

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, lang: str) -> str:
    """The first fenced ``lang`` block after the heading ``section``."""
    start = README.index(f"\n{section}\n")
    return re.search(rf"^```{lang}\n(.*?)^```$", README[start:], re.S | re.M).group(1)


def test_quick_start_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Quick start", "python"), {})
    assert out.getvalue().splitlines()[0] == "True 2"


def test_the_example_scenario_loads_and_builds():
    scen = build_scenario(load_spec(_block("### Scenario files", "json")))
    assert scen.curve.degree == 4 and scen.curve.is_honeycomb()
    assert scen.query == ((1, 1), (0, 0))
