"""The README's quick starts run as written and print the digits they promise."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from amplasso.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, language: str) -> str:
    """The first ``language`` fenced block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_python_quick_start():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code_block("Quick start (Python)", "python"), {})
    (lam, gap), (mse, _, _), (rho_c,), (alpha,) = [
        line.split() for line in out.getvalue().splitlines()]
    assert float(lam) > 0 and float(gap) < 1e-10
    # the digits as printed, which the README's comments quote
    assert mse.startswith("0.1047")
    assert rho_c.startswith("0.24330")
    assert alpha.startswith("1.40817")


CLI_LINES = [shlex.split(line) for line in
             code_block("Quick start (CLI)", "sh").replace("\\\n", " ").splitlines()]


@pytest.mark.parametrize("argv", CLI_LINES, ids=[" ".join(a[1:3]) for a in CLI_LINES])
def test_cli_quick_start(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the lines write under out/
    assert argv[0] == "amplasso"
    assert main(argv[1:]) == 0
