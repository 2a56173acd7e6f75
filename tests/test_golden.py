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
    # trial t of an ineq check reads row t of one table of uniforms: each
    # batch keys one Philox and makes one draw, ``random``, of its rows, the
    # rows of all batches add up to the trials, and no substream is built;
    # the payloads' bits are test_payload_digests_match_golden_file's
    monkeypatch.setenv("ENTROFLOW_THREADS", threads)
    substreams, philoxes, draws, rows = [], [], [], []
    keyed, philox, generator = qmath.substream, np.random.Philox, np.random.Generator

    class Recorded:
        def __init__(self, bits):
            self._rng = generator(bits)
            draws.append([])

        def __getattr__(self, name):
            draws[-1].append(name)
            return getattr(self._rng, name)

    monkeypatch.setattr(qmath, "substream", lambda *a: substreams.append(a) or keyed(*a))
    monkeypatch.setattr(
        np.random, "Philox", lambda *a, **k: philoxes.append(a) or philox(*a, **k)
    )
    monkeypatch.setattr(np.random, "Generator", Recorded)
    monkeypatch.setattr(cli, "uniform_rows", lambda *a: rows.append(a[3]) or qmath.uniform_rows(*a))
    for key, argv in golden.cases(tmp_path).items():
        if key.startswith("ineq."):
            for calls in (substreams, philoxes, draws, rows):
                calls.clear()
            golden.payload_bytes(argv, tmp_path)
            trials = int(argv[argv.index("--trials") + 1])
            assert 0 < len(philoxes) == len(draws) == len(rows), key
            assert draws == [["random"]] * len(rows), key
            assert sum(rows) == trials and substreams == [], key


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
    (moved / "demo.v").write_text(cli._dumps(payload))
    header, first, *rest = (moved / "exchange.sweep@7").read_text().splitlines()
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) - 0.5)
    (moved / "exchange.sweep@7").write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert golden.diff(dump, moved) == [
        "demo.v: largest 0.25", "  q_a 0.25", "exchange.sweep@7: largest 0.5", "  Q_A 0.5"
    ]


def test_diff_exits_1_when_it_prints_a_key(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ENTROFLOW_THREADS", "1")  # golden.main sets it
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    (old / "demo.v").write_text(cli._dumps({"q_a": 0.125, "verdict": 1}))
    (old / "exchange.sweep@7").write_text("phi,Q_A\n0.1,0.25\n")
    shutil.copytree(old, new)
    assert golden.main(["--diff", str(old), str(new)]) == 0
    assert capsys.readouterr().out == ""
    # one flipped bit in one byte of a number: '1' becomes '0'
    data = bytearray((new / "demo.v").read_bytes())
    data[data.index(b"1")] ^= 1
    (new / "demo.v").write_bytes(bytes(data))
    assert golden.main(["--diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "demo.v: largest 0.1"
    # a key on one side only
    (new / "demo.v").unlink()
    assert golden.main(["--diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out == f"demo.v: only in {old}\n"
