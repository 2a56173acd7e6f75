import hashlib
import json
import shutil

import numpy as np
import pytest

import golden

from entroflow import cli, qmath


@pytest.mark.parametrize("threads", ["1", "2"])
def test_payload_digests_match_golden_file(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("ENTROFLOW_THREADS", threads)
    want = golden.load()
    got = golden.digests(tmp_path)
    assert got.keys() == want.keys()
    moved = sorted(key for key in want if got[key] != want[key])
    assert moved == [], f"payload digests moved: {moved}; see tests/golden.py to regenerate"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ineq_keys_its_trials_per_batch(tmp_path, monkeypatch, threads):
    # every ineq trial reads the stream of substream(seed, tag, t), but no
    # trial builds one: with substream refused the digests stay, and one
    # Philox is made per batch (per substream_draws call), not per trial
    monkeypatch.setenv("ENTROFLOW_THREADS", threads)

    def refused(*path):
        raise AssertionError(f"ineq called substream{path}")

    monkeypatch.setattr(qmath, "substream", refused)
    monkeypatch.setattr(cli, "substream", refused, raising=False)
    batches, philoxes = [], []
    draws, philox = cli.substream_draws, np.random.Philox
    monkeypatch.setattr(cli, "substream_draws", lambda *a: batches.append(a) or draws(*a))
    monkeypatch.setattr(np.random, "Philox", lambda *a: philoxes.append(a) or philox(*a))
    want = golden.load()
    for key, argv in golden.cases(tmp_path).items():
        if key.startswith("ineq."):
            batches.clear()
            philoxes.clear()
            got = hashlib.sha256(golden.payload_bytes(argv, tmp_path)).hexdigest()
            assert got == want[key]
            trials = int(argv[argv.index("--trials") + 1])
            assert 0 < len(philoxes) == len(batches) < trials, key


def test_diff_of_a_dump_against_itself_reports_no_key(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ENTROFLOW_THREADS", "1")
    dump = tmp_path / "dump"
    assert golden.main(["--dump", str(dump)]) == 0
    assert sorted(path.name for path in dump.iterdir()) == sorted(golden.load())
    assert golden.main(["--diff", str(dump), str(dump)]) == 0
    assert capsys.readouterr().out == ""
    # a moved JSON number and a moved CSV cell are named with their size
    moved = tmp_path / "moved"
    shutil.copytree(dump, moved)
    payload = json.loads((moved / "demo.v").read_text())
    payload["q_a"] += 0.25
    (moved / "demo.v").write_text(cli.payload_json(payload))
    header, first, *rest = (moved / "exchange.sweep@7").read_text().splitlines()
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) - 0.5)
    (moved / "exchange.sweep@7").write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert golden.diff(dump, moved) == [
        "demo.v: largest 0.25", "  q_a 0.25", "exchange.sweep@7: largest 0.5", "  Q_A 0.5"
    ]
