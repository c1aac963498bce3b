import json

import pytest

from padicops.config import (ExperimentConfig, _is_prime, load_config,
                             require_prime)
from padicops.errors import ParseError
from padicops.io import file_header


def test_defaults():
    cfg = load_config()
    assert (cfg.prime, cfg.precision, cfg.target_valuation, cfg.seed) == (3, 40, 30, 0)


def test_validation():
    with pytest.raises(ParseError):
        ExperimentConfig(prime=4)
    with pytest.raises(ParseError):
        ExperimentConfig(precision=4)
    # a target below 1 certifies no digit
    for target in (0, -5):
        with pytest.raises(ParseError):
            ExperimentConfig(target_valuation=target)
    # a target above the config's precision is checked where both are
    # read: against an input file's precision, or by verify all
    assert ExperimentConfig(precision=20, target_valuation=25).target_valuation == 25
    with pytest.raises(ParseError):
        load_config(prime=1)
    # values must be ints: no strings, floats or bools
    for bad in ({"prime": "3"}, {"precision": "40"}, {"precision": 40.0},
                {"target_valuation": True}, {"seed": None}, {"prime": 3.0}):
        with pytest.raises(ParseError):
            ExperimentConfig(**bad)


def test_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"prime": 5, "precision": 32}))
    cfg = load_config(str(cfgfile))
    assert (cfg.prime, cfg.precision) == (5, 32)
    # explicit flags beat the file
    cfg = load_config(str(cfgfile), prime=7)
    assert (cfg.prime, cfg.precision) == (7, 32)
    # a None override means "not given"
    assert load_config(str(cfgfile), prime=None).prime == 5


def test_file_errors(tmp_path):
    with pytest.raises(ParseError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_config(str(bad))
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"primes": 3}))
    with pytest.raises(ParseError):
        load_config(str(unknown))
    # budgets are set by --budget alone, so the old key is unknown now
    unknown.write_text(json.dumps({"budgets": {"refine": 8}}))
    with pytest.raises(ParseError):
        load_config(str(unknown))
    mistyped = tmp_path / "mistyped.json"
    for bad in ({"prime": "3"}, {"precision": "40"}, {"precision": False}):
        mistyped.write_text(json.dumps(bad))
        with pytest.raises(ParseError):
            load_config(str(mistyped))


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(-3, 20000))
    # strong pseudoprimes to the first k prime bases, k = 1, 4, 7, 9, 12
    for n in (2047, 3215031751, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)


def test_large_primes_are_checked_at_once():
    # trial division would need about 10^9 steps on this prime
    require_prime(10**18 + 3)
    assert file_header({"p": 10**18 + 3, "precision": 40})[0] == 10**18 + 3
    assert ExperimentConfig(prime=10**18 + 3).prime == 10**18 + 3
    with pytest.raises(ParseError):
        require_prime(10**18 + 7)
    # the Mersenne prime 2^89 - 1 lies beyond the proven range of the bases
    with pytest.raises(ParseError):
        require_prime(2**89 - 1)
