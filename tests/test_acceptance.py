"""One test per acceptance criterion, each echoing its pass/fail line.

Run with -s (or via `padicops verify all`) to see the lines as they
print; under plain pytest the per-criterion verdict is the test result.
"""

import pytest

from padicops.config import ExperimentConfig
from padicops.verify import _CRITERIA, run_all


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig()


# every criterion at the default config and at precision 80 / target 60;
# the default cases keep their plain ids
CONFIGS = {"": ExperimentConfig(),
           "-precision-80-target-60": ExperimentConfig(precision=80, target_valuation=60)}


@pytest.mark.parametrize("number,name,fn,config",
                         [(n, name, fn, c) for c in CONFIGS.values() for n, name, fn in _CRITERIA],
                         ids=[f"{n:02d}-{name.replace(' ', '-')}{suffix}"
                              for suffix in CONFIGS for n, name, _ in _CRITERIA])
def test_criterion(number, name, fn, config):
    passed, detail = fn(config)
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:2d} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criteria_are_numbered_one_to_thirteen():
    assert [n for n, _, _ in _CRITERIA] == list(range(1, 14))


def test_run_all_echoes_one_line_per_criterion(cfg, monkeypatch):
    import padicops.verify as verify

    def boom(cfg):
        raise RuntimeError("exploded")

    stub = [(1, "good", lambda cfg: (True, "fine")),
            (2, "bad", lambda cfg: (False, "broken")),
            (3, "crash", boom)]
    monkeypatch.setattr(verify, "_CRITERIA", stub)
    lines = []
    results = run_all(cfg, echo=lines.append)
    assert [r.passed for r in results] == [True, False, False]
    assert lines == [
        "[PASS] criterion  1 good: fine",
        "[FAIL] criterion  2 bad: broken",
        "[FAIL] criterion  3 crash: RuntimeError: exploded",
    ]
