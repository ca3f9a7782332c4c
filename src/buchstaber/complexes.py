"""Simplicial complexes on labeled vertices, stored as bitmask face sets.

A face on vertex set {1, ..., m} is packed into an int: bit i-1 <-> vertex i.
All set algebra (cardinality, union, intersection, subset tests) is then a
single machine-word operation, which is what the search layers rely on.
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import Iterable

MAX_VERTICES = 64

# Largest m at which minimal_nonsimplices() takes the subset scan: none. The
# transversal computation was faster on every complex measured, from m = 5
# up, so N(K) always comes from it; minimal_nonsimplices_by_scan stays as the
# independent check the tests compare against. The name is kept because code
# outside the package reads it.
SCAN_VERTEX_LIMIT = 0


def face_mask(vertices: Iterable[int], m: int) -> int:
    """Pack 1-based vertices into a bitmask, validating the range."""
    mask = 0
    for v in vertices:
        if not 1 <= v <= m:
            raise ValueError(f"vertex {v} out of range 1..{m}")
        mask |= 1 << (v - 1)
    return mask


def face_vertices(mask: int) -> list[int]:
    """Unpack a bitmask into a sorted list of 1-based vertices."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def full_mask(m: int) -> int:
    return (1 << m) - 1


def is_antichain(masks: Iterable[int]) -> bool:
    """True when no mask in the collection contains another; a repeated mask
    counts as containing its copy.

    Only a strictly larger mask can strictly contain another, so each mask is
    tested against the strictly smaller ones alone and equal sizes never meet.
    """
    ms = list(masks)
    if len(set(ms)) != len(ms):
        return False
    by_size: dict[int, list[int]] = {}
    for w in ms:
        by_size.setdefault(w.bit_count(), []).append(w)
    smaller: list[int] = []
    for size in sorted(by_size):
        group = by_size[size]
        if any(a & ~b == 0 for b in group for a in smaller):
            return False
        smaller.extend(group)
    return True


def minimal_transversals(sets: Iterable[int], m: int) -> list[int]:
    """All minimal hitting sets of a family of vertex-set masks on m vertices.

    Depth-first MMCS enumeration (Murakami and Uno, "Efficient algorithms for
    dualizing large-scale hypergraphs", Discrete Appl. Math. 170, 2014), with
    the family members indexed as bits:

    * hit[v] is the set of members that contain vertex v;
    * a node carries the current set S, the members S leaves uncovered and
      the candidate vertices that may still join S;
    * it branches on the lowest-indexed uncovered member with the fewest
      candidates (the scan stops at the first with at most one), over that
      member's candidates in ascending order, each dropped from the
      candidates before the next branch. So each transversal is reached
      once, and a member with no candidate left ends the node;
    * crit[u] is the set of members only u in S hits. A vertex v joins S
      only if every crit[u] keeps a bit outside hit[v], so S is minimal at
      every node and a cover is output without a containment test.

    A family holding the empty set is unhittable and yields []; the empty
    family yields [0]. Duplicate and non-minimal members change nothing.
    """
    family = sorted(set(sets))
    for s in family:
        if s < 0 or s >> m:
            raise ValueError(f"member {s:#x} has a vertex outside 1..{m}")
    if family and family[0] == 0:
        return []
    # hit[v] is column v of the members, last first, written as m-digit
    # binary rows after a row of zeros: one slice with step m read as one
    # int per vertex, instead of one OR into a growing int per member bit
    text = "0" * m + "".join(map(format, reversed(family), repeat(f"0{m}b")))
    hit = [int(text[j::m], 2) for j in range(m - 1, -1, -1)]
    out: list[int] = []

    def extend(S: int, crit: list[int], cand: int, uncov: int) -> None:
        if not uncov:
            out.append(S)
            return
        fewest = m + 1
        rest = uncov
        while rest:
            low = rest & -rest
            rest ^= low
            c = family[low.bit_length() - 1] & cand
            n = c.bit_count()
            if n < fewest:
                fewest, branch = n, c
                if n <= 1:
                    break
        while branch:
            bit = branch & -branch
            branch ^= bit
            cand ^= bit
            hv = hit[bit.bit_length() - 1]
            keep = ~hv
            sub = [c & keep for c in crit]
            if all(sub):
                sub.append(uncov & hv)
                extend(S | bit, sub, cand, uncov & keep)

    extend(0, [], full_mask(m), (1 << len(family)) - 1)
    return sorted(out)


class SimplicialComplex:
    """A simplicial complex given by its antichain of maximal faces.

    Instances are immutable after construction; the minimal non-face list is
    filled at most once and then shared, so objects are safe to use from
    concurrent workers.
    """

    __slots__ = ("m", "facets", "_nonsimplices", "_dim", "_auts")

    def __init__(self, m: int, facets: Iterable[int]):
        if not 1 <= m <= MAX_VERTICES:
            raise ValueError(f"vertex count m={m} outside 1..{MAX_VERTICES}")
        self.m = m
        fm = full_mask(m)
        raw = sorted(set(facets))
        for f in raw:
            if f & ~fm:
                raise ValueError(f"facet {face_vertices(f)} references a vertex above m={m}")
        # Only a strictly larger facet can contain f, and containment is
        # transitive, so each size is tested against the maximal ones above;
        # the largest size has none to test against.
        by_size: dict[int, list[int]] = {}
        for f in raw:
            by_size.setdefault(f.bit_count(), []).append(f)
        kept: list[int] = []
        for size in sorted(by_size, reverse=True):
            group = by_size[size]
            if kept:
                larger = tuple(kept)
                group = [f for f in group if not any(f & ~g == 0 for g in larger)]
            kept.extend(group)
        kept.sort()
        if not kept:
            kept = [0]
        self.facets = tuple(kept)
        self._nonsimplices: tuple[int, ...] | None = None
        self._auts: tuple[tuple[int, ...], ...] | None = None
        self._dim = max(f.bit_count() for f in self.facets) - 1

    @classmethod
    def from_facets(cls, m: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        return cls(m, (face_mask(f, m) for f in facets))

    @classmethod
    def from_min_nonsimplices(cls, m: int, nonsimplices: Iterable[Iterable[int]]) -> "SimplicialComplex":
        masks = [face_mask(w, m) for w in nonsimplices]
        return cls.from_min_nonsimplex_masks(m, masks)

    @classmethod
    def from_min_nonsimplex_masks(cls, m: int, masks: Iterable[int]) -> "SimplicialComplex":
        """Reconstruct the unique complex whose minimal non-faces are given.

        A subset is a face iff it contains no listed non-face, so the maximal
        faces are exactly the complements of the minimal transversals of the
        non-face family.
        """
        if not 1 <= m <= MAX_VERTICES:
            raise ValueError(f"vertex count m={m} outside 1..{MAX_VERTICES}")
        ms = list(masks)
        fm = full_mask(m)
        for w in ms:
            if w == 0:
                raise ValueError("minimal non-face must be nonempty")
            if w & ~fm:
                raise ValueError("non-face references a vertex above m")
        if not is_antichain(ms):
            raise ValueError("minimal non-faces must form an antichain")
        facets = [fm ^ t for t in minimal_transversals(ms, m)]
        return cls(m, facets)

    # -- queries ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        """max |F| - 1 over maximal faces; -1 for the empty complex."""
        return self._dim

    def maximal_simplices(self) -> tuple[int, ...]:
        return self.facets

    def contains_face(self, sigma: int) -> bool:
        for f in self.facets:
            if sigma & ~f == 0:
                return True
        return False

    def minimal_nonsimplices(self) -> tuple[int, ...]:
        """The antichain of minimal non-faces, canonically ordered; cached."""
        if self._nonsimplices is None:
            self._nonsimplices = tuple(minimal_nonsimplices_by_transversal(self))
        return self._nonsimplices

    def is_flag(self) -> bool:
        return all(w.bit_count() == 2 for w in self.minimal_nonsimplices())

    def vertices(self) -> list[int]:
        """1-based vertices that are faces (ghost vertices excluded)."""
        support = 0
        for f in self.facets:
            support |= f
        return face_vertices(support)

    def ghost_vertices(self) -> list[int]:
        support = 0
        for f in self.facets:
            support |= f
        return face_vertices(full_mask(self.m) & ~support)

    def one_skeleton(self) -> "SimplicialComplex":
        """Subcomplex of all faces with at most 2 vertices."""
        faces = []
        for v in range(self.m):
            if self.contains_face(1 << v):
                faces.append(1 << v)
        for u, v in combinations(range(self.m), 2):
            e = (1 << u) | (1 << v)
            if self.contains_face(e):
                faces.append(e)
        return SimplicialComplex(self.m, faces)

    def edges(self) -> list[int]:
        return [f for f in self.one_skeleton().facets if f.bit_count() == 2]

    def automorphisms(self, limit: int = 256) -> tuple[tuple[int, ...], ...]:
        """Up to `limit` vertex permutations preserving the facet family,
        identity first; cached. No search in this package uses them."""
        if self._auts is None:
            fset = set(self.facets)
            m = self.m
            sig = []
            for x in range(m):
                sizes = sorted(f.bit_count() for f in self.facets if f >> x & 1)
                sig.append((len(sizes), tuple(sizes)))
            found: list[tuple[int, ...]] = [tuple(range(m))]
            image = [-1] * m
            used = [False] * m

            def extend(x: int) -> None:
                if len(found) >= limit:
                    return
                if x == m:
                    perm = tuple(image)
                    if perm != found[0]:
                        found.append(perm)
                    return
                domain_mask = (1 << x) - 1
                for y in range(m):
                    if used[y] or sig[y] != sig[x]:
                        continue
                    image[x] = y
                    used[y] = True
                    ok = True
                    # facets fully inside the assigned prefix must map to facets
                    for f in fset:
                        if f & ~(domain_mask | (1 << x)):
                            continue
                        g = 0
                        rest = f
                        while rest:
                            low = rest & -rest
                            rest ^= low
                            g |= 1 << image[low.bit_length() - 1]
                        if g not in fset:
                            ok = False
                            break
                    if ok:
                        extend(x + 1)
                    used[y] = False
                image[x] = -1

            extend(0)
            self._auts = tuple(found)
        return self._auts

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.m == other.m and self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self.m, self.facets))

    def __repr__(self) -> str:
        faces = ", ".join("{" + ",".join(map(str, face_vertices(f))) + "}" for f in self.facets)
        return f"SimplicialComplex(m={self.m}, facets=[{faces}])"


def minimal_nonsimplices_by_scan(K: SimplicialComplex) -> list[int]:
    """Ascending-cardinality subset scan for minimal non-faces.

    A subset is a minimal non-face iff it is not a face but all its
    one-element-smaller subsets are. Exponential in m; use only at desk scale.
    """
    out = []
    for t in range(1, K.m + 1):
        for combo in combinations(range(K.m), t):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if K.contains_face(mask):
                continue
            if all(K.contains_face(mask ^ (1 << v)) for v in combo):
                out.append(mask)
    return sorted(out)


def minimal_nonsimplices_by_transversal(K: SimplicialComplex) -> list[int]:
    """Minimal non-faces as minimal transversals of the facet complements.

    A subset fails to fit in facet F exactly when it meets [m]\\F, so the
    minimal non-faces are the minimal hitting sets of {[m]\\F}.
    """
    fm = full_mask(K.m)
    return minimal_transversals([fm ^ f for f in K.facets], K.m)
