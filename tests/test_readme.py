"""README.md's python examples run as written and print what their comments state, and
its scenario file loads as the text around it says."""

import re
from pathlib import Path

import pytest

from nff import FRONT, ConfigError, UlaConfig, load_scenario

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


INI = re.compile(r"^```ini\n(.*?)^```", re.S | re.M)


def test_readme_scenario_file_loads_as_documented(tmp_path):
    (block,) = INI.findall(README.read_text(encoding="utf-8"))
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    config = load_scenario(path)
    assert type(config) is UlaConfig
    assert (config.n, config.spacing, config.direction) == (8, 0.5, FRONT)
    assert [spec.kind for spec in config.boundaries] == ["qr", "ar", "up", "wc"]

    # the commented trace line belongs to the other source
    lines = block.splitlines()
    (lineno,) = [i for i, line in enumerate(lines, start=1) if line.startswith("# trace =")]
    lines[lineno - 1] = lines[lineno - 1].removeprefix("# ")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}:{lineno}: dipole-ula scenarios read no trace"
