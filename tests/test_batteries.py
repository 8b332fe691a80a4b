"""Every named verification battery must pass with its default settings."""

import functools
import inspect

import pytest

from clsibound import batteries


@pytest.mark.parametrize("name", sorted(batteries.REGISTRY))
def test_battery_passes(name):
    result = batteries.REGISTRY[name]()
    assert result.passed, result.line()


def test_run_batteries_filters():
    results = batteries.run_batteries(only="constant-chain")
    assert len(results) == 1
    assert results[0].name == "constant-chain"


def test_run_batteries_trial_override():
    results = batteries.run_batteries(only="entropy-interpolation", trials=5)
    assert results[0].passed
    assert "5 pairs" in results[0].detail


TAKES_TRIALS = {
    "doi-identity", "quadrature", "entropy-interpolation", "doi-monotonicity",
    "diagonal-entropy-comparison", "diagonal-fisher-monotone",
    "pinching-p-sobolev", "p-limits", "fisher-forms", "fisher-derivative",
    "semigroup", "expectations", "change-of-measure", "data-processing",
    "iter-chain", "scaling", "expo-decay", "graph-bounds",
}


def test_overrides_follow_battery_signatures(monkeypatch):
    # the trial count is the only parameter; seeds stay in the bodies
    for name, fn in batteries.REGISTRY.items():
        params = set(inspect.signature(fn).parameters)
        assert params <= {"trials"}, (name, params)
    calls = {}

    def spy(name, fn):
        @functools.wraps(fn)
        def record(**kwargs):
            calls[name] = kwargs
            return batteries.BatteryResult(name, True, 0.0)
        return record

    for name, fn in list(batteries.REGISTRY.items()):
        monkeypatch.setitem(batteries.REGISTRY, name, spy(name, fn))
    batteries.run_batteries(trials=3)
    assert set(calls) == set(batteries.REGISTRY)
    tuned = {name for name, kwargs in calls.items() if kwargs.get("trials") == 3}
    assert tuned == TAKES_TRIALS
    assert calls["diagonal-entropy-comparison"] == {"trials": 3}
    assert calls["constant-chain"] == {}


def test_unknown_battery_rejected():
    with pytest.raises(KeyError):
        batteries.run_batteries(only="missing")


def test_result_line_format():
    line = batteries.battery_constant_chain().line()
    assert line.startswith("constant-chain: PASS")
    assert "max residual" in line
