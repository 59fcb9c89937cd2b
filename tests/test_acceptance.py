"""Acceptance gate: every exit criterion at its pinned tolerance.

One test per criterion; each prints its pass/fail line (visible with -s or on
failure). The criteria themselves live in chiralkit.selftest so the CLI
`chiralkit selftest` runs exactly the same checks.
"""

import pytest

from chiralkit import selftest


@pytest.mark.parametrize(
    "key,title", [(k, t) for k, t, _ in selftest.CRITERIA], ids=[k for k, _, _ in selftest.CRITERIA]
)
def test_acceptance_criterion(key, title):
    result = selftest.run_criterion(key)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.key} {title} ({result.seconds:.1f}s): {result.detail}")
    assert result.passed, f"{result.key} {title}: {result.detail}"


@pytest.mark.parametrize("keys", [["C99"], {"c3"}], ids=["C99", "c3"])
def test_run_all_refuses_unknown_keys(keys):
    # a key that names no criterion ran nothing and returned [], which a
    # caller reading all(r.passed for r in results) took for a pass
    lines = []
    with pytest.raises(KeyError, match="unknown criterion"):
        selftest.run_all(keys=keys, report=lines.append)
    assert lines == []
