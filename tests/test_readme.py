"""README's *Library* snippet runs as written against a small corpus."""

import re
from pathlib import Path

from molmine.corpus import generate_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "corpus.jsonl").write_text(
        generate_corpus(60, 600, (2001, 2003), seed=7), encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(library_snippet(), "<README Library>", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("{(2001, 0): ")  # the k=3 cut, one entry per community
    assert len(lines) > 1 and all("'mode': 'structural'" in line for line in lines[1:])
