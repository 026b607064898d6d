"""Simple graphs, their stabilizer states, and the package's vertex caps.

A graph on n vertices is held as n adjacency-row masks over GF(2).  The
graph state |G> is the unique joint +1 eigenvector of the vertex
stabilizers G_a = X_a Z_{N(a)}; in the computational basis its amplitude
at mu is (-1)**(number of edges inside the support of mu) / sqrt(2**n).
Everything here is mask arithmetic, those signs included: the stabilizer
table stores each element in X-before-Z normal form, (-1)**sigma X**mu
Z**(Gamma mu), and sigma is exactly that amplitude sign.  The dense-vector
oracle that checks it lives in `dense`.

Every exhaustive structure has a size cap, and `_VERTEX_CAPS` is the one
place they are declared; `_check_cap` is the one check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from ._masks import mask_of, vertices_of
from .pauli import PauliOperator, identity, mul, phase_value

# Largest n each exhaustive structure is built for.  "table": the one 2**n
# stabilizer table behind every scan, projector, enumerator and amplitude
# sign, and the 2**n dense state vector; "matrix": a 4**n dense
# Pauli matrix; "search": the clique search over up to 2**n candidate
# codewords with pairwise adjacency.
_VERTEX_CAPS = {"table": 14, "matrix": 10, "search": 12}


def _check_cap(n: int, cap: str, subject: str, unit: str = "vertices") -> None:
    """Raise ValueError("<subject> limited to <cap> <unit>") when n exceeds the cap."""
    limit = _VERTEX_CAPS[cap]
    if n > limit:
        raise ValueError(f"{subject} limited to {limit} {unit}")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; rows[a-1] is the neighbor mask of vertex a."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count differs from n")
        full = (1 << self.n) - 1
        for a, row in enumerate(self.rows):
            if not 0 <= row <= full:
                raise ValueError(f"row {a + 1} outside vertex range")
            if row & (1 << a):
                raise ValueError(f"self-loop at vertex {a + 1}")
        # walk the set bits only, so the check is linear in the edges
        asymmetric = []
        for a, row in enumerate(self.rows):
            while row:
                low = row & -row
                row ^= low
                b = low.bit_length() - 1
                if not self.rows[b] >> a & 1:
                    asymmetric.append((min(a, b), max(a, b)))
        if asymmetric:
            a, b = min(asymmetric)
            raise ValueError(f"asymmetric edge between {a + 1} and {b + 1}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a}, {b}) outside 1..{n}")
            rows[a - 1] |= 1 << (b - 1)
            rows[b - 1] |= 1 << (a - 1)
        return cls(n, tuple(rows))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (a, b) pairs with a < b, sorted."""
        return tuple((a, b) for a in range(1, self.n + 1) for b in range(a + 1, self.n + 1)
                     if self.rows[a - 1] >> (b - 1) & 1)


def loop_graph(n: int) -> Graph:
    """The cycle 1-2-...-n-1."""
    if n < 3:
        raise ValueError("a loop needs at least 3 vertices")
    rows = tuple((1 << ((a + 1) % n)) | (1 << ((a - 1) % n)) for a in range(n))
    return Graph(n, rows)


def is_loop_graph(g: Graph) -> bool:
    """True iff g is exactly the canonical cycle labeling from loop_graph."""
    return g.n >= 3 and g == loop_graph(g.n)


def vertex_stabilizer(g: Graph, a: int) -> PauliOperator:
    """G_a = X_a Z_{N(a)}."""
    if not 1 <= a <= g.n:
        raise ValueError(f"vertex {a} outside 1..{g.n}")
    return PauliOperator(g.n, 1 << (a - 1), g.rows[a - 1], 0)


def stabilizer_element(g: Graph, u: Iterable[int]) -> PauliOperator:
    """The product of vertex stabilizers over the subset u.

    The factors commute exactly, so the product is order-free; its x mask
    equals the mask of u and its z mask is the adjacency image of u.
    """
    return _stab_element(g, mask_of(u, g.n))


def _stab_element(g: Graph, u_mask: int) -> PauliOperator:
    p = identity(g.n)
    for a in range(1, g.n + 1):
        if u_mask >> (a - 1) & 1:
            p = mul(p, vertex_stabilizer(g, a))
    return p


# Each public call works on one graph, so one cached table serves all of
# its weights; a bound of 1 keeps memory flat over many graphs.
@lru_cache(maxsize=1)
def _stabilizer_table(g: Graph) -> list[tuple[int, int]]:
    """(Gamma u, sign) for every x mask u: the element is (-1)**sign X**u Z**(Gamma u).

    sign is the parity of the edges inside u, the graph state's amplitude
    sign at u.  Internal scan substrate, only sensible for small n since
    the table has 2**n entries.
    """
    _check_cap(g.n, "table", "stabilizer table")
    table: list[tuple[int, int]] = [(0, 0)]
    for m in range(1, 1 << g.n):
        # element(m) = element(rest) * G_low; Z**z passing X_low flips sign iff z has bit
        rest = m & (m - 1)
        bit = m & -m
        z, sign = table[rest]
        table.append((z ^ g.rows[bit.bit_length() - 1], sign ^ (z & bit != 0)))
    return table


def overlap(g: Graph, p: PauliOperator) -> complex:
    """<G| p |G>, exactly one of 0, +1, -1, +i, -i.

    Non-zero iff p reduces to the empty pattern, that is, iff p is a
    phase times the stabilizer element sharing its x mask; the value is
    then that phase, the sign of `reduce_error`.
    """
    pattern, sign = reduce_error(g, p)
    return 0 if pattern else sign


class ReducedError(NamedTuple):
    pattern: frozenset[int]
    sign: complex


def reduce_error(g: Graph, e: PauliOperator) -> ReducedError:
    """Reduce e modulo the stabilizer group to a pure phase-flip pattern.

    Returns (S, sign) with S = z_mask(e) + Gamma.x_mask(e) over GF(2) and
    sign the phase of e times the stabilizer element matching its x mask.
    On basis states the two sides agree up to a tracked commutation sign:
    e Z_B|G> = sign * (-1)**|x_support(e) & B| * Z_S Z_B|G>, so e and Z_S
    connect exactly the same pairs of codewords.
    """
    if e.n != g.n:
        raise ValueError("qubit counts differ")
    # the element s is an involution, so q*s = e, and s|G> = |G>
    q = mul(e, _stab_element(g, e.x))
    return ReducedError(vertices_of(q.z), phase_value(q.phase))
