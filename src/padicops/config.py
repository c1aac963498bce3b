"""Experiment configuration shared by the CLI and the acceptance suite.

Precedence: explicit flags, then the JSON file named by --config, then
the defaults below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ParseError

# Miller-Rabin with the thirteen prime bases 2..41 decides primality
# exactly below this bound (Sorenson and Webster, Math. Comp. 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def require_prime(n: int) -> None:
    """Raise ParseError unless n is prime.

    Deterministic Miller-Rabin, so a prime near 10^18 is checked at
    once; n beyond the bound where the bases are proven exact is
    refused rather than guessed."""
    if n >= _MILLER_RABIN_EXACT_BELOW:
        raise ParseError(f"{n} is too large: primality is certified only below "
                         f"{_MILLER_RABIN_EXACT_BELOW}")
    if not _is_prime(n):
        raise ParseError(f"{n} is not prime")


def require_int(name: str, value) -> None:
    """Raise ParseError unless value is an int; a bool is refused too."""
    if type(value) is not int:
        raise ParseError(f"{name} must be an integer, not {value!r}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ExperimentConfig:
    prime: int = 3
    precision: int = 40
    target_valuation: int = 30
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            require_int(f.name, getattr(self, f.name))
        require_prime(self.prime)
        if self.precision < 8:
            raise ParseError("precision must be at least 8")
        if self.target_valuation < 1:
            raise ParseError("target_valuation must be at least 1")


def load_config(path: str | None = None, **overrides) -> ExperimentConfig:
    """Build a config honoring the flag > file > default order.
    Pass overrides with value None to mean "not given"."""
    data: dict = {}
    if path:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ParseError(f"config file {path}: expected a JSON object")
        data.update(raw)
    data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)
