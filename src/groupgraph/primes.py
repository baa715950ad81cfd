"""Prime factorization by trial division.

Group orders here are at most a few thousand, so trial division is exact
and instant. This is the package's only factorization routine.
"""

from __future__ import annotations


def factorize(n: int) -> dict[int, int]:
    """``{p: e}`` with ``n == prod(p ** e)``, primes ascending; ``{}`` for
    ``n <= 1``."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}
