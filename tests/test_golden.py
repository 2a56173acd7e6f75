import hashlib

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
