"""The report corpus: every committed run still writes the same bytes, or,
for an entry marked GAUGE_FREE, the same gauge-free report fields; a value
one ulp off on the verify --quick path fails the comparison.

A change that moves report bytes on purpose rewrites the corpus with
``tests/corpus/regen.py`` and commits the diff.
"""

import json

import numpy as np
import pytest

from conftest import battery_cpus
from corpus import regen
from splitlab import verify


@pytest.mark.parametrize("name", sorted(regen.RUNS))
def test_corpus_entry_writes_its_committed_bytes(tmp_path, name):
    code, files = regen.artifacts(regen.RUNS[name], tmp_path / "out")
    assert code == 0
    entry = regen.HERE / name
    committed = {p.name: p.read_text() for p in sorted(entry.iterdir())
                 if p.name not in ("scenario.json", regen.GAUGE_FREE_MARK)}
    assert files.keys() == committed.keys()
    for file_name, text in files.items():
        assert regen.agrees(name, file_name, text, committed[file_name]), \
            f"{name}/{file_name} moved"


def test_every_corpus_directory_is_an_entry():
    dirs = {p.name for p in regen.HERE.iterdir() if p.is_dir() and p.name != "__pycache__"}
    assert dirs == set(regen.RUNS)


def test_a_marked_entry_is_compared_on_its_gauge_free_fields():
    marked = [n for n in sorted(regen.RUNS) if (regen.HERE / n / regen.GAUGE_FREE_MARK).is_file()]
    assert marked == ["attack_random_commuting_9"]
    committed = (regen.HERE / marked[0] / "report.json").read_text()

    def agrees_after(edit) -> bool:
        report = json.loads(committed)
        edit(report)
        return regen.agrees(marked[0], "report.json", json.dumps(report), committed)

    def gauge(r):
        r["results"]["operator"] = [[[1.0, 0.0]]]
        r["checks"][0]["measured"] += 1e-15
        r["results"]["delta_e"] += 1e-15
        r["results"]["details"]["analytic_delta_e"] -= 1e-15

    def flip_verdict(r):
        r["checks"][-1]["passed"] = not r["checks"][-1]["passed"]

    assert agrees_after(gauge)
    assert not agrees_after(lambda r: r["results"].update(delta_e=r["results"]["delta_e"] + 1e-9))
    assert not agrees_after(lambda r: r["results"]["details"].update(sector_rank=2))
    assert not agrees_after(lambda r: r["results"].update(site=1))
    assert not agrees_after(flip_verdict)
    assert not agrees_after(lambda r: r.update(scenario_digest="0" * 64))
    # an unmarked entry stays byte for byte
    assert not regen.agrees("attack_random_commuting_6", "report.json", committed + " ", committed)


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_one_ulp_shift_on_the_verify_path_moves_the_corpus(tmp_path, monkeypatch, cpus):
    # every witness score one ulp up moves the no_hiding_witness_floor
    # figure by one ulp, and the verify_quick comparison must see it; a
    # forked lane inherits the patch
    batch = verify.no_hiding_witness_batch
    monkeypatch.setattr(verify, "no_hiding_witness_batch",
                        lambda *args: np.nextafter(batch(*args), np.inf))
    battery_cpus(monkeypatch, cpus)
    code, files = regen.artifacts(regen.RUNS["verify_quick"], tmp_path / "out")
    assert code == 0
    committed = (regen.HERE / "verify_quick" / "report.json").read_text()
    assert not regen.agrees("verify_quick", "report.json", files["report.json"], committed)
