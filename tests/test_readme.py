"""README.md's python examples run as written and print what their comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
#: ``print(...)``, optionally followed by ``# <expected output>[: remark]``.
PRINT = re.compile(r"^\s*print\(.*?\)\s*(?:#\s*(?P<want>[^:]*?))?\s*(?::.*)?$")


def _pattern(comment: str) -> str:
    """The output a comment states; its ``...`` stands for further digits."""
    return re.escape(comment).replace(re.escape("..."), r"\d*")


def test_readme_python_blocks_print_what_their_comments_state():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) == 2
    printed: list[str] = []
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    wants: list[str | None] = []
    for block in blocks:  # in order, in one namespace
        exec(compile(block, str(README), "exec"), namespace)
        wants += [m["want"] for line in block.splitlines() if (m := PRINT.match(line))]
    assert len(printed) == len(wants)
    checked = [(got, want) for got, want in zip(printed, wants) if want]
    assert [want for _, want in checked] == ["found 24.46...", "(3, 3)", "4 1.414..."]
    for got, want in checked:
        assert re.fullmatch(_pattern(want), got), (got, want)
