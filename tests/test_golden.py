import pytest

import golden


@pytest.mark.parametrize("threads", ["1", "2"])
def test_payload_digests_match_golden_file(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("ENTROFLOW_THREADS", threads)
    want = golden.load()
    got = golden.digests(tmp_path)
    assert got.keys() == want.keys()
    moved = sorted(key for key in want if got[key] != want[key])
    assert moved == [], f"payload digests moved: {moved}; see tests/golden.py to regenerate"
