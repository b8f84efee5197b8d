"""Prime fields F_p with a discrete-log table on the unit group.

The unit group F_p^x is cyclic of order p-1; fixing the least primitive
root once makes every multiplicative equation a linear equation over
Z/(p-1), which is what the cochain solvers work with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class PrimeField:
    p: int
    generator: int
    dlog: tuple[int, ...]  # dlog[u] for units u; index 0 is unused (-1)

    def __post_init__(self):
        # with p = 2 the unit group is trivial and every multiplicative check
        # becomes vacuous; unit_order is at least 2 on every field built
        if self.p < 3:
            raise ValueError(f"p = {self.p} makes the unit group trivial")

    @property
    def unit_order(self) -> int:
        return self.p - 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def exp(self, k: int) -> int:
        """generator**k as a unit."""
        return pow(self.generator, k % self.unit_order, self.p)

    def log(self, u: int) -> int:
        u %= self.p
        if u == 0:
            raise ZeroDivisionError("dlog of 0")
        return self.dlog[u]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def field(p: int) -> PrimeField:
    """F_p for an odd prime p; PrimeField itself rejects p = 2."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = p - 1
    gen = None
    for g in range(1, p):
        k, x = 0, 1
        order = 0
        while True:
            x = (x * g) % p
            k += 1
            if x == 1:
                order = k
                break
        if order == m:
            gen = g
            break
    assert gen is not None
    dlog = [-1] * p
    x = 1
    for k in range(m):
        dlog[x] = k
        x = (x * gen) % p
    return PrimeField(p, gen, tuple(dlog))
