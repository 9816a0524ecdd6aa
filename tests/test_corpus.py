"""The report corpus: every committed run still writes the same bytes.

A change that moves report bytes on purpose rewrites the corpus with
``tests/corpus/regen.py`` and commits the diff.
"""

import pytest

from corpus import regen


@pytest.mark.parametrize("name", sorted(regen.RUNS))
def test_corpus_entry_writes_its_committed_bytes(tmp_path, name):
    code, files = regen.artifacts(regen.RUNS[name], tmp_path / "out")
    assert code == 0
    entry = regen.HERE / name
    committed = {p.name: p.read_text() for p in sorted(entry.iterdir())
                 if p.name != "scenario.json"}
    assert files.keys() == committed.keys()
    for file_name, text in files.items():
        assert text == committed[file_name], f"{name}/{file_name} moved"


def test_every_corpus_directory_is_an_entry():
    dirs = {p.name for p in regen.HERE.iterdir() if p.is_dir() and p.name != "__pycache__"}
    assert dirs == set(regen.RUNS)
