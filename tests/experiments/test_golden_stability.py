"""The control-plane rewrite must not move a single golden byte.

PR 3 replaced the allocator, the metrics pipeline, and the periodic-timer
machinery under the experiments.  None of that is allowed to change any
*decision* the system makes, so the golden files regression-tested by
``test_zero_copy_regression.py``, ``test_chaos.py``, ``test_migration.py``
and ``test_registry_chaos.py`` must remain bit-identical — not merely "equivalent after regeneration".  Pinning the
SHA-256 of the committed bytes catches the failure mode those tests
cannot: someone silently regenerating a golden to paper over drift.

If a future PR changes simulated behaviour *on purpose*, regenerate the
golden, update the digest here, and say so in the commit message.
"""

import hashlib
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"

GOLDEN_DIGESTS = {
    "golden_table2.json":
        "d8b3fb66dc84f3b31b890512a215873d09a3ea95a026919e92cf2dc160448eee",
    "golden_chaos.json":
        "1310b4f31035d989dabf04d0f29653d644df804d618c42527f925a3c89fbf37f",
    "golden_migration.json":
        "9674068e0bc99fdd080185f4008a4afa9da0bec2d993c9b0ed1ddd263ca3272e",
    "golden_registry_chaos.json":
        "d5e754c1599a59825db74422d3968546354240e308e4baa0cc4dc3e47c1672c3",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_bytes_are_pinned(name):
    digest = hashlib.sha256((DATA / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[name], (
        f"{name} changed on disk; goldens may only change together with "
        f"an intentional, explained behaviour change"
    )
