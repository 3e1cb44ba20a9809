"""README's examples run as written: the library block computes the values
its comments state, and the Quick-start transcript is what `solve` prints."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from timedgames.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def fenced_blocks(lang: str) -> list[str]:
    """The bodies of README's fenced blocks tagged `lang`, "" for untagged."""
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```$", README, re.S | re.M)
            if tag == lang]


def test_library_example_computes_its_commented_values(monkeypatch):
    (block,) = fenced_blocks("python")
    # the values asserted below are the ones the block's comments state
    for comment in ("res.values[0] == 2", "exactly 2/3", "Fraction(3, 2)"):
        assert comment in block
    monkeypatch.chdir(ROOT)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert ns["res"].values[0] == 2
    assert ns["d"].values[0] == Fraction(2, 3)
    assert ns["value_at"](ns["arena"], "l0", ns["v"]) == Fraction(3, 2)


def test_quick_start_transcript_is_what_solve_prints(capsys, monkeypatch):
    prompt = "$ timedgames solve models/M2.model --exact\n"
    (block,) = [b for b in fenced_blocks("") if b.startswith(prompt)]
    monkeypatch.chdir(ROOT)
    assert main(prompt.split()[2:]) == 0
    assert capsys.readouterr().out == block[len(prompt):]
