"""Every refusal is a named domain error: the message of each
``raise ValueError(...)`` in ``src/capra`` starts with a tag, and README's
table of domain errors lists exactly the tags raised, plus ``io-error``
(which ``capra.cli.main`` gives a file that cannot be read or written)."""

import ast
import re
from pathlib import Path

import capra

SRC = Path(capra.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
TAG = re.compile(r"^([a-z0-9]+(?:-[a-z0-9]+)*): ")


def _messages(source: str) -> list:
    """``(line, text)`` of each ``raise ValueError(...)`` in ``source``:
    the literal text its message starts with, "" when it starts with none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"):
            continue
        arg = node.exc.args[0] if node.exc.args else None
        if isinstance(arg, ast.JoinedStr) and arg.values:
            arg = arg.values[0]
        text = arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else ""
        found.append((node.lineno, text))
    return found


def _scan() -> tuple[set, list]:
    """The tags raised in ``src/capra``, and the sites that raise none."""
    tags, untagged = set(), []
    for path in sorted(SRC.glob("*.py")):
        for line, text in _messages(path.read_text(encoding="utf-8")):
            match = TAG.match(text)
            if match:
                tags.add(match.group(1))
            else:
                untagged.append(f"{path.name}:{line}: {text!r}")
    return tags, untagged


def test_scan_reads_every_message_form():
    source = "\n".join([
        'raise ValueError("some-tag: text")',
        'raise ValueError(f"tag2: {x}")',
        'raise ValueError("split-tag: " "text") from None',
        'raise ValueError(message)',
        'raise ValueError(f"{x}: text")',
        'raise ValueError("Upper-tag: text")',
        'raise ValueError("no tag")',
        'raise ValueError()',
        'raise TypeError("not scanned")',
    ])
    assert [bool(TAG.match(text)) for _, text in _messages(source)] == [
        True, True, True, False, False, False, False, False]


def test_every_value_error_starts_with_a_tag():
    tags, untagged = _scan()
    assert tags and untagged == []


def test_readme_lists_exactly_the_raised_tags():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Domain errors\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == _scan()[0] | {"io-error"}
