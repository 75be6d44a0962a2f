"""README's Python examples run as written: each block is executed, and
each `print` line's output must equal the `# …` comment that ends it."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    re.S | re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_prints_its_comments(block, capsys):
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    want = [re.fullmatch(r"print\(.*\)\s+# (.*)", line).group(1)
            for line in prints]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
