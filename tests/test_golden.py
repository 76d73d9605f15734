"""Every report of the golden corpus (tests/golden) keeps its digest and
exit code."""

import pytest

from golden import corpus

_DIGESTS = corpus.load()


@pytest.mark.parametrize(
    "scenario, instances, seed, want",
    [
        pytest.param(scenario, instances, seed, _DIGESTS[run_id], id=run_id)
        for run_id, scenario, instances, seed in corpus.runs()
    ],
)
def test_report_digest(scenario, instances, seed, want):
    sha, code = corpus.digest(scenario(), instances, seed)
    assert {"sha256": sha, "exit": code} == want
