"""Acceptance suite: every criterion at full scale, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the same checks at reduced counts back the CLI selftest verb.
"""

import time

import pytest

from redstab import selftest

FULL_SCALE = {
    1: {"pairs": 500, "oracle_samples": 256},
    2: {"instances": 200},
    3: {"instances": 200},
    4: {"tuples": 100, "corr_samples": 200},
    5: {"lines": 50},
    6: {"lines": 50, "gamma_grid": 100, "members": 50},
    7: {"draws": 200},
    8: {"mmax": 10 ** 4, "boundary_ms": (1, 2, 5)},
    9: {"tuples": 200, "validity_draws": 1000, "near_boundary": 100},
    10: {"draws": 200, "push_samples": 5},
    11: {"configs": 200},
}

RUNTIME_BUDGET = {1: 30.0, 2: 60.0, 6: 180.0}


def _run(cid, **kwargs):
    t0 = time.time()
    if cid in selftest.CRITERIA:
        fn = selftest.CRITERIA[cid]
        argnames = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        if "seed" in argnames:
            kwargs["seed"] = 0
        result = fn(**kwargs)
    else:
        result = selftest.criterion_12(seed=0)
    elapsed = time.time() - t0
    status = "PASS" if result["pass"] else "FAIL"
    print(f"\n[{status}] criterion {result['id']}: {result['name']} "
          f"({elapsed:.1f}s)")
    return result, elapsed


@pytest.mark.parametrize("cid", sorted(FULL_SCALE))
def test_criterion(cid):
    result, elapsed = _run(cid, **FULL_SCALE[cid])
    assert result["pass"], result["detail"]
    if cid in RUNTIME_BUDGET:
        assert elapsed < RUNTIME_BUDGET[cid], f"runtime {elapsed:.1f}s over budget"


def test_criterion_12():
    result, _ = _run(12)
    assert result["pass"], result["detail"]


def _broken(*args, **kwargs):
    raise TypeError("a bug, not a domain error")


@pytest.mark.parametrize("cid", [6, 10])
def test_unexpected_errors_propagate(cid, monkeypatch):
    """Criteria record domain errors as failures but let a bug through."""
    if cid == 6:
        monkeypatch.setattr(selftest, "q_tilde", _broken)
        kwargs = {"lines": 2, "members": 10}
    else:
        # only xi(xi(t, m), m2) inside the chain fails: its argument is an output
        real_xi, outputs = selftest.xi, []

        def chained_xi(t, m):
            if any(t is o for o in outputs):
                _broken()
            outputs.append(real_xi(t, m))
            return outputs[-1]

        monkeypatch.setattr(selftest, "xi", chained_xi)
        kwargs = {"draws": 20, "push_samples": 1}
    with pytest.raises(TypeError, match="a bug"):
        selftest.CRITERIA[cid](**kwargs)
