"""The README's code runs as written, so a renamed or deleted API cannot
leave it stale."""

import re
from dataclasses import fields
from pathlib import Path

from dinctr.config import RunConfig
from dinctr.model import ModelConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block under the ``## heading`` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(python_block("Library use"), "README.md", "exec"), {})
    out = capsys.readouterr().out.split()
    assert len(out) == 2 and all(0.0 <= float(v) <= 1.0 for v in out)


def test_accepted_values_table_matches_the_declarations():
    table = dict(re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", README.read_text(encoding="utf-8"), re.M))
    declared = {f.name: str(f.metadata["accepts"]) for cls in (RunConfig, ModelConfig) for f in fields(cls)
                if "accepts" in f.metadata}
    assert table == declared
