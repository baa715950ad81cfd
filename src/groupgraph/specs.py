"""Group-spec expressions and their realization as permutation groups.

Grammar (whitespace-insensitive): ``expr := name '(' args ')'`` with
constructors cyclic(n), dihedral(n), dicyclic(n), symmetric(n),
alternating(n), elem_abelian(p, k), direct(a, b),
semidirect(normal, acting, action_id), psl2(q) and raw(perm, ...).

Canonical generators are frozen per constructor so realization is
byte-for-byte reproducible:

* cyclic(n): the n-cycle (0 1 ... n-1)
* dihedral(n), n >= 3: rotation (0 1 ... n-1) and the reflection fixing 0
* symmetric(n): (0 1) and (0 1 ... n-1)
* alternating(n): (0 1 2), plus (0 1 ... n-1) for odd n or (1 2 ... n-1)
  for even n
* elem_abelian(p, k): one p-cycle per block of p points
* dicyclic(n): left-regular action on the 4n elements a^i b^j
* direct: factors act on disjoint point sets
* semidirect(N, K, action): K's points follow a regular block for N;
  the action table maps each K generator to an automorphism of N given
  by generator images
* psl2(q): projective line on q+1 points, generated by the unit
  translations x -> x + b for each F_p-basis monomial b and x -> -1/x
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, gcd

import numpy as np

from . import perms
from .errors import (ActionTableError, RealizeError, SpecDomainError,
                     SpecSyntaxError)
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, stabilizer_chain_order
from .perms import Perm
from .primes import factorize, is_prime

_CONSTRUCTORS = {
    "cyclic": 1, "dihedral": 1, "dicyclic": 1, "symmetric": 1,
    "alternating": 1, "elem_abelian": 2, "direct": 2, "semidirect": 3,
    "psl2": 1, "raw": None,
}

_PRIME_POWERS_13 = {2, 3, 4, 5, 7, 8, 9, 11, 13}


@dataclass(frozen=True)
class GroupSpec:
    """Validated constructor expression. args holds ints, nested specs,
    an action identifier, or raw permutation tuples."""

    kind: str
    args: tuple

    def __str__(self) -> str:
        if self.kind == "raw":
            return "raw(" + ", ".join(perms.format_cycles(p) for p in self.args) + ")"
        return f"{self.kind}(" + ", ".join(str(a) for a in self.args) + ")"


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([(),]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip():
                raise SpecSyntaxError(f"unexpected character {text[pos]!r}", pos)
            break
        num, name, punct = m.groups()
        start = m.end() - len((num or name or punct))
        if num is not None:
            tokens.append(("int", int(num), start))
        elif name is not None:
            tokens.append(("name", name, start))
        else:
            tokens.append((punct, punct, start))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise SpecSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> GroupSpec:
        spec = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise SpecSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return spec

    def expr(self) -> GroupSpec:
        kind_tok = self.take("name")
        kind = kind_tok[1]
        if kind not in _CONSTRUCTORS:
            raise SpecSyntaxError(f"unknown constructor {kind!r}", kind_tok[2])
        self.take("(")
        if kind == "raw":
            args = self.raw_args()
        else:
            args = self.args(kind)
        self.take(")")
        return _validate(GroupSpec(kind, tuple(args)), kind_tok[2])

    def args(self, kind: str) -> list:
        out = []
        while True:
            tok = self.peek()
            if tok[0] == "int":
                out.append(self.take()[1])
            elif tok[0] == "name":
                # lookahead: nested constructor vs bare identifier (action id)
                if self.tokens[self.i + 1][0] == "(":
                    out.append(self.expr())
                else:
                    out.append(self.take()[1])
            else:
                raise SpecSyntaxError(f"expected argument, found {tok[1]!r}", tok[2])
            if self.peek()[0] == ",":
                self.take(",")
                continue
            return out

    def raw_args(self) -> list:
        """Permutations in cycle notation; commas separate permutations."""
        parsed = []
        while True:
            cycles = []
            while self.peek()[0] == "(":
                self.take("(")
                pts = []
                while self.peek()[0] == "int":
                    pts.append(self.take()[1])
                self.take(")")
                cycles.append(pts)
            if not cycles:
                tok = self.peek()
                raise SpecSyntaxError("expected a cycle-notation permutation", tok[2])
            parsed.append(cycles)
            if self.peek()[0] == ",":
                self.take(",")
                continue
            break
        degree = max((p for cyc in parsed for c in cyc for p in c), default=-1) + 1
        out = []
        for cyc in parsed:
            text = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc) or "()"
            out.append(perms.parse_cycles(text, degree))
        return out


def _validate(spec: GroupSpec, pos: int) -> GroupSpec:
    kind, args = spec.kind, spec.args
    arity = _CONSTRUCTORS[kind]
    if arity is not None and len(args) != arity:
        raise SpecSyntaxError(f"{kind} takes {arity} argument(s), got {len(args)}", pos)
    if kind in ("cyclic", "dicyclic", "symmetric", "alternating"):
        if not isinstance(args[0], int) or args[0] < 1:
            raise SpecDomainError(f"{kind}({args[0]}): parameter must be >= 1")
    elif kind == "dihedral":
        if not isinstance(args[0], int) or args[0] < 3:
            raise SpecDomainError(
                f"dihedral({args[0]}): needs n >= 3 for a faithful action on n "
                "points; use cyclic(2) or elem_abelian(2, 2) for the small cases")
    elif kind == "elem_abelian":
        p, k = args
        if not (isinstance(p, int) and is_prime(p)):
            raise SpecDomainError(f"elem_abelian({p}, {k}): {p} is not prime")
        if not (isinstance(k, int) and k >= 1):
            raise SpecDomainError(f"elem_abelian({p}, {k}): exponent must be >= 1")
    elif kind == "psl2":
        q = args[0]
        if not (isinstance(q, int) and q in _PRIME_POWERS_13):
            raise SpecDomainError(f"psl2({q}): {q} is not a prime power <= 13")
    elif kind == "direct":
        if not all(isinstance(a, GroupSpec) for a in args):
            raise SpecDomainError("direct() needs two group expressions")
    elif kind == "semidirect":
        if not (isinstance(args[0], GroupSpec) and isinstance(args[1], GroupSpec)
                and isinstance(args[2], str)):
            raise SpecDomainError(
                "semidirect() needs (normal expr, acting expr, action id)")
    elif kind == "raw":
        if not args:
            raise SpecDomainError("raw() needs at least one permutation")
    return spec


def parse_group_spec(text: str) -> GroupSpec:
    """Parse and validate a constructor expression."""
    return _Parser(text).parse()


# --- semidirect action registry --------------------------------------------

# action id -> rows, one per generator of the acting group; each row maps the
# normal part's generators to their images, written in cycle notation over
# the normal part's points.
ACTIONS: dict[str, tuple[tuple[str, ...], ...]] = {}


def register_action(action_id: str, rows) -> None:
    ACTIONS[action_id] = tuple(tuple(row) for row in rows)


# Z5 x| Z8: the Z8 generator doubles, an automorphism of order 4.
register_action("z5_by_doubling", [("(0 2 4 1 3)",)])
# (Z3 x Z3) x| Z3: transvection e1 -> e1 + e2, e2 -> e2 (Heisenberg over F3).
register_action("heisenberg3", [("(0 1 2)(3 4 5)", "(3 4 5)")])
# Z9 x| Z3: x -> 4x, an automorphism of order 3.
register_action("z9_by_pow4", [("(0 4 8 3 7 2 6 1 5)",)])
# (Z2^3) x| (Z2^2): frozen output of harness.find_gap3249_action(), the
# first commuting pair of order <= 2 automorphisms (in canonical scan order)
# whose semidirect product has a non-bipartite difference graph and a
# disconnected reduced difference graph.
register_action("gap3249", [
    ("(0 1)(4 5)", "(2 3)", "(4 5)"),
    ("(0 1)", "(2 3)(4 5)", "(4 5)"),
])


# --- small Galois fields for psl2 -------------------------------------------

_IRREDUCIBLE = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1)}


class _GF:
    """Arithmetic tables for GF(q), q <= 13. Elements are 0..q-1, encoding
    polynomial coefficient digits in base p."""

    def __init__(self, q: int):
        self.q = q
        factors = factorize(q)
        if len(factors) != 1:
            raise SpecDomainError(f"{q} is not a prime power")
        (self.p, self.k), = factors.items()
        self.add = [[self._add(a, b) for b in range(q)] for a in range(q)]
        self.mul = [[self._mul(a, b) for b in range(q)] for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] + [next(b for b in range(q) if self.mul[a][b] == 1)
                          for a in range(1, q)]

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds) -> int:
        out = 0
        for d in reversed(ds):
            out = out * self.p + d
        return out

    def _add(self, a: int, b: int) -> int:
        return self._undigits([(x + y) % self.p
                               for x, y in zip(self._digits(a), self._digits(b))])

    def _mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        modulus = _IRREDUCIBLE[self.q]
        for top in range(len(prod) - 1, self.k - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for j, m in enumerate(modulus[:-1]):
                    prod[top - self.k + j] = (prod[top - self.k + j] - c * m) % self.p
        return self._undigits(prod[:self.k])


# --- realization ------------------------------------------------------------

def _cycle(n: int) -> Perm:
    return tuple(list(range(1, n)) + [0]) if n > 1 else (0,)


def _gens_cyclic(n: int) -> list[Perm]:
    return [_cycle(n)]


def _gens_dihedral(n: int) -> list[Perm]:
    reflection = tuple((n - i) % n for i in range(n))
    return [_cycle(n), reflection]


def _gens_symmetric(n: int) -> list[Perm]:
    if n == 1:
        return [perms.identity(1)]
    transposition = tuple([1, 0] + list(range(2, n)))
    return [transposition, _cycle(n)]


def _gens_alternating(n: int) -> list[Perm]:
    if n <= 2:
        return [perms.identity(max(n, 1))]
    three = perms.parse_cycles("(0 1 2)", n)
    if n % 2 == 1:
        return [three, _cycle(n)]
    big = tuple([0] + list(range(2, n)) + [1])  # (1 2 ... n-1)
    return [three, big]


def _gens_elem_abelian(p: int, k: int) -> list[Perm]:
    return [perms.shift(_cycle(p), block * p, p * k) for block in range(k)]


def _gens_dicyclic(n: int) -> list[Perm]:
    # left-regular action on the 4n elements a^i b^j (i mod 2n, j mod 2),
    # with b^2 = a^n and b a = a^-1 b.
    def enc(i: int, j: int) -> int:
        return (i % (2 * n)) + 2 * n * (j % 2)

    def mul_a(i, j):  # a * (a^i b^j)
        return enc(i + 1, j)

    def mul_b(i, j):  # b * (a^i b^j)
        return enc(n - i, 0) if j else enc(-i, 1)

    a = tuple(mul_a(i, j) for j in range(2) for i in range(2 * n))
    b = tuple(mul_b(i, j) for j in range(2) for i in range(2 * n))
    return [a, b]


def _gens_psl2(q: int) -> list[Perm]:
    # points: field elements 0..q-1 then infinity at index q
    gf = _GF(q)
    infinity = q
    gens = []
    for i in range(gf.k):
        b = gf.p ** i
        t = tuple(gf.add[a][b] for a in range(q)) + (infinity,)
        gens.append(t)
    s = [0] * (q + 1)
    s[0] = infinity
    s[infinity] = 0
    for a in range(1, q):
        s[a] = gf.neg[gf.inv[a]]
    gens.append(tuple(s))
    return gens


def _automorphism_from_images(group: FiniteGroup, images: list[Perm]) -> np.ndarray:
    """Extend generator images to an index map on the whole element table,
    and verify that the map really is an automorphism."""
    img_idx = []
    for im in images:
        if im not in group.element_index:
            raise ActionTableError(
                f"action image {perms.format_cycles(im)} is not an element "
                f"of {group.spec_label}")
        img_idx.append(group.element_index[im])
    mul = group.mul
    phi = np.full(group.order, -1, dtype=np.int64)
    phi[0] = 0
    frontier = [0]
    gen_idx = group.generator_indices()
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(gen_idx, img_idx):
                y = int(mul[x, g])
                if phi[y] < 0:
                    phi[y] = mul[phi[x], img]
                    nxt.append(y)
        frontier = nxt
    if len(set(phi.tolist())) != group.order or (phi < 0).any():
        raise ActionTableError("action images do not define a bijection")
    if not (phi[mul] == mul[np.ix_(phi, phi)]).all():
        raise ActionTableError("action images do not define an automorphism")
    return phi


def _realize_semidirect(normal: FiniteGroup, acting: FiniteGroup, rows,
                        order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """N x| K for an action table: one row per K generator, each row the
    images of N's generators in cycle notation (see ``ACTIONS``)."""
    if len(rows) != len(acting.generators):
        raise ActionTableError(
            f"{len(rows)} rows but the acting group has "
            f"{len(acting.generators)} generators")
    nsize = normal.order
    degree = nsize + acting.degree
    gens: list[Perm] = []
    for g in normal.generator_indices():
        left = tuple(int(v) for v in normal.mul[g])
        gens.append(left + tuple(range(nsize, degree)))
    for row, k in zip(rows, acting.generators):
        if len(row) != len(normal.generators):
            raise ActionTableError(
                f"row length {len(row)} != {len(normal.generators)} normal "
                f"generators")
        images = [perms.parse_cycles(text, normal.degree) for text in row]
        phi = _automorphism_from_images(normal, images)
        gens.append(tuple(int(v) for v in phi) +
                    tuple(nsize + i for i in k))
    group = FiniteGroup(gens, order_cap=order_cap)
    expected = normal.order * acting.order
    if group.order != expected:
        raise ActionTableError(
            f"not a homomorphism: semidirect product has order "
            f"{group.order}, expected {expected}")
    normal_mask = 0
    complement_mask = 0
    block1 = tuple(range(nsize, degree))
    for i, p in enumerate(group.elements):
        if p[nsize:] == block1:
            normal_mask |= 1 << i
        if p[0] == 0:
            complement_mask |= 1 << i
    group.semidirect_normal_mask = normal_mask
    group.semidirect_complement_mask = complement_mask
    return group


def _theoretical_order(spec: GroupSpec, parts: list[FiniteGroup]) -> int | None:
    kind, args = spec.kind, spec.args
    if kind == "cyclic":
        return args[0]
    if kind == "dihedral":
        return 2 * args[0]
    if kind == "dicyclic":
        return 4 * args[0]
    if kind == "symmetric":
        return factorial(args[0])
    if kind == "alternating":
        return max(1, factorial(args[0]) // 2)
    if kind == "elem_abelian":
        return args[0] ** args[1]
    if kind == "direct":
        return parts[0].order * parts[1].order
    if kind == "semidirect":
        return parts[0].order * parts[1].order
    if kind == "psl2":
        q = args[0]
        return q * (q * q - 1) // gcd(2, q - 1)
    return None


def realize(spec: GroupSpec | str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build the group named by a spec. Deterministic: identical specs give
    byte-identical element tables."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    kind, args = spec.kind, spec.args
    parts: list[FiniteGroup] = []
    if kind == "cyclic":
        gens = _gens_cyclic(args[0])
    elif kind == "dihedral":
        gens = _gens_dihedral(args[0])
    elif kind == "dicyclic":
        gens = _gens_dicyclic(args[0])
    elif kind == "symmetric":
        gens = _gens_symmetric(args[0])
    elif kind == "alternating":
        gens = _gens_alternating(args[0])
    elif kind == "elem_abelian":
        gens = _gens_elem_abelian(*args)
    elif kind == "psl2":
        gens = _gens_psl2(args[0])
    elif kind == "raw":
        gens = list(args)
    elif kind == "direct":
        parts = [realize(args[0], order_cap), realize(args[1], order_cap)]
        a, b = parts
        degree = a.degree + b.degree
        gens = [perms.pad(g, degree) for g in a.generators]
        gens += [perms.shift(g, a.degree, degree) for g in b.generators]
    elif kind == "semidirect":
        if args[2] not in ACTIONS:
            raise ActionTableError(f"unknown action id {args[2]!r}")
        parts = [realize(args[0], order_cap), realize(args[1], order_cap)]
        try:
            group = _realize_semidirect(parts[0], parts[1], ACTIONS[args[2]],
                                        order_cap)
        except ActionTableError as exc:
            raise ActionTableError(f"action {args[2]!r}: {exc}") from exc
        group.spec_label = str(spec)
        _check_realized(group, _theoretical_order(spec, parts))
        return group
    else:  # pragma: no cover - parser rejects unknown kinds
        raise SpecDomainError(f"unknown constructor {kind}")
    group = FiniteGroup(gens, spec_label=str(spec), order_cap=order_cap)
    _check_realized(group, _theoretical_order(spec, parts))
    return group


def _check_realized(group: FiniteGroup, expected: int | None) -> None:
    if expected is not None and group.order != expected:
        raise RealizeError(
            f"{group.spec_label}: realized order {group.order} != "
            f"theoretical order {expected}")
    certificate = stabilizer_chain_order(group.generators)
    if certificate != group.order:
        raise RealizeError(
            f"{group.spec_label}: stabilizer-chain order {certificate} "
            f"disagrees with element count {group.order}")
