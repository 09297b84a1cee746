"""Run configuration: seed, genericity prime, retry budget; the certified search.

Flags override the MIXMULT_SEED / MIXMULT_PRIME / MIXMULT_MAX_RETRIES
environment variables, which override the defaults. The seed feeds Python's
Mersenne-Twister generator (``random.Random``) and fully determines every
random choice in a run. Every certified search takes one ``RunConfig``; a
search that passes a derived seed on makes it with ``RunConfig.with_seed``.
Every random choice that must be certified goes through ``certified_search``,
the one loop that spends the retry budget.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, TypeVar

from .errors import GenericityExhausted, InputError
from .fields import DEFAULT_PRIME, FieldSpec, require_prime

_U64 = 1 << 64
MAX_RETRIES = 16

_T = TypeVar("_T")
_C = TypeVar("_C")


def certified_search(draw: Callable[[], _T], certify: Callable[[_T], Optional[_C]],
                     budget: int, what: str) -> tuple[_T, _C]:
    """Draw candidates until one is certified; return it with its certificate.

    ``certify`` returns a false value to reject a candidate. Each attempt
    calls ``draw`` and then ``certify``, so the random stream is consumed in
    a fixed order. After ``budget`` rejections the search raises
    ``GenericityExhausted``.
    """
    for _ in range(budget):
        candidate = draw()
        certificate = certify(candidate)
        if certificate:
            return candidate, certificate
    raise GenericityExhausted(f"no {what} found in {budget} attempts")


class RunConfig:
    """The settings every certified search runs under. ``load_config``
    checks them on user input; a derived seed may leave the 64-bit range.
    Equal, and hashed, as its field tuple: it keys caches."""

    seed: int = 0
    prime: int = DEFAULT_PRIME
    max_retries: int = MAX_RETRIES

    def __init__(self, seed: int = seed, prime: int = prime, max_retries: int = max_retries):
        self.seed, self.prime, self.max_retries = seed, prime, max_retries

    def _key(self) -> tuple[int, int, int]:
        return self.seed, self.prime, self.max_retries

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def with_seed(self, seed: int) -> RunConfig:
        """This config with ``seed`` in place of its own."""
        return RunConfig(seed, self.prime, self.max_retries)

    def span(self, field: FieldSpec) -> int:
        """Random coefficients are drawn below this: the characteristic of
        a prime field, or the configured prime over the rationals."""
        return field.p or self.prime


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {raw!r}") from None


def load_config(
    seed: Optional[int] = None,
    prime: Optional[int] = None,
    max_retries: Optional[int] = None,
) -> RunConfig:
    """Merge explicit values over environment overrides over defaults."""
    if seed is None:
        seed = _env_int("MIXMULT_SEED")
    if prime is None:
        prime = _env_int("MIXMULT_PRIME")
    if max_retries is None:
        max_retries = _env_int("MIXMULT_MAX_RETRIES")
    config = RunConfig(
        seed=0 if seed is None else seed,
        prime=DEFAULT_PRIME if prime is None else prime,
        max_retries=MAX_RETRIES if max_retries is None else max_retries,
    )
    if not 0 <= config.seed < _U64:
        raise InputError("seed must fit in 64 unsigned bits")
    require_prime(config.prime, "configured prime")
    if config.max_retries < 1:
        raise InputError("max_retries must be positive")
    return config
