"""Simplicial complexes on labeled vertices, stored as bitmask face sets.

A face on vertex set {1, ..., m} is packed into an int: bit i-1 <-> vertex i.
All set algebra (cardinality, union, intersection, subset tests) is then a
single machine-word operation, which is what the search layers rely on.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, repeat
from typing import Iterable, Sequence

MAX_VERTICES = 64

# Largest m at which face_bits() builds and keeps the face set, a 2^m-bit
# int that N(K), every face test and the subspace scan read; above it N(K)
# comes from the transversals of the facet complements and a face test from
# the facet incidence. At m = 16 building the set and reading N(K) off it
# took 0.2-1.7 ms on every complex measured, where the transversals took
# 0.1 ms (a 16-cycle) to 59 ms (the 4-skeleton of the 15-simplex). Each
# further vertex doubles the set, and sparse complexes lose: C^4(20) 4.1 ms
# against 1.2 ms by transversals, C^5(22) 22 against 2.8 ms. Code outside
# the package reads the name.
SCAN_VERTEX_LIMIT = 16


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


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """The masks, given distinct, that no other one contains, ascending.

    Only a strictly larger mask can contain another, and containment is
    transitive, so each size is tested against the kept masks of the larger
    sizes alone; the largest size has none to test against.
    """
    by_size: dict[int, list[int]] = {}
    for w in masks:
        by_size.setdefault(w.bit_count(), []).append(w)
    kept: list[int] = []
    for size in sorted(by_size, reverse=True):
        group = by_size[size]
        if kept:
            larger = tuple(kept)
            group = [w for w in group if not any(w & ~g == 0 for g in larger)]
        kept.extend(group)
    kept.sort()
    return kept


def is_antichain(masks: Iterable[int]) -> bool:
    """True when no mask in the collection contains another; a repeated mask
    counts as containing its copy."""
    ms = list(masks)
    return len(set(ms)) == len(ms) and len(_maximal_masks(ms)) == len(ms)


# Fewest masks at which incidence() transposes them as text; below it one
# OR per member bit is faster. The two cost the same at about 32 masks of 2
# to 4 vertices on 9 to 16 vertices; at 1 820 masks (the 2-skeleton of the
# 15-simplex) the transpose takes 0.6 ms against 1.4 ms.
TRANSPOSE_MIN_MASKS = 32


def incidence(masks: Sequence[int], width: int) -> list[int]:
    """Per vertex bit v < width, the bitset over indices of the masks that
    contain v: bit i of entry v is bit v of masks[i].

    From TRANSPOSE_MIN_MASKS masks up, the masks are written last first as
    width-digit binary rows after a row of zeros, and each column is one
    slice with step width read as one int; below it, each member bit is
    ORed into its column. Every mask must lie below 2^width.
    """
    if len(masks) < TRANSPOSE_MIN_MASKS:
        columns = [0] * width
        for i, w in enumerate(masks):
            bit = 1 << i
            while w:
                low = w & -w
                w ^= low
                columns[low.bit_length() - 1] |= bit
        return columns
    text = "0" * width + "".join(map(format, reversed(masks), repeat(f"0{width}b")))
    return [int(text[j::width], 2) for j in range(width - 1, -1, -1)]


def minimal_transversals(sets: Iterable[int], m: int) -> list[int]:
    """All minimal hitting sets of a family of vertex-set masks on m vertices.

    Depth-first MMCS enumeration (Murakami and Uno, "Efficient algorithms for
    dualizing large-scale hypergraphs", Discrete Appl. Math. 170, 2014), with
    the family members indexed as bits:

    * hit[v] is the set of members that contain vertex v (incidence());
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
    hit = incidence(family, m)
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
    del extend  # a recursive closure holds itself: free it without gc
    return sorted(out)


class SimplicialComplex:
    """A simplicial complex given by its antichain of maximal faces.

    Instances are immutable after construction; the face set (at
    m <= SCAN_VERTEX_LIMIT), the minimal non-face list, the incidences of
    the non-faces and of the facets, and the facet sides are each filled on
    first use and then shared. A fill computes a pure function of the
    facets, so objects are safe to use from concurrent workers.
    """

    __slots__ = (
        "m", "facets", "_nonsimplices", "_face_bits", "_incidence", "_facet_incidence", "_sides", "_dim",
        "_auts",
    )

    def __init__(self, m: int, facets: Iterable[int]):
        if not 1 <= m <= MAX_VERTICES:
            raise ValueError(f"vertex count m={m} outside 1..{MAX_VERTICES}")
        self.m = m
        fm = full_mask(m)
        raw = sorted(set(facets))
        for f in raw:
            if f & ~fm:
                raise ValueError(f"facet {face_vertices(f)} references a vertex above m={m}")
        self.facets = tuple(_maximal_masks(raw) or [0])
        self._nonsimplices: tuple[int, ...] | None = None
        # bit sigma is set iff sigma is a face
        self._face_bits: int | None = None
        self._incidence: tuple[int, ...] | None = None
        self._facet_incidence: tuple[int, ...] | None = None
        self._sides: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...] | None = None
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

    def contains_face(self, sigma: int) -> bool:
        """Whether sigma lies in some facet: bit sigma of face_bits(), or
        without a face set, whether the facet_incidence() columns of sigma's
        vertices share a facet. A sigma outside 0..2^m - 1 is not a face."""
        faces = self.face_bits()
        if faces is not None:
            return sigma >= 0 and faces >> sigma & 1 == 1
        if sigma < 0 or sigma >> self.m:
            return False
        columns = self.facet_incidence()
        common = -1
        while sigma and common:
            common &= columns[(sigma & -sigma).bit_length() - 1]
            sigma &= sigma - 1
        return common != 0

    def face_bits(self) -> int | None:
        """The face set as one 2^m-bit int, bit sigma set iff sigma is a
        face, built by the subset zeta transform on first call and cached;
        None above SCAN_VERTEX_LIMIT, where no face set is kept."""
        if self._face_bits is None and self.m <= SCAN_VERTEX_LIMIT:
            self._face_bits = _face_set(self.facets, _low_masks(self.m))
        return self._face_bits

    def minimal_nonsimplices(self) -> tuple[int, ...]:
        """The antichain of minimal non-faces, canonically ordered; cached.

        Read off face_bits() where there is a face set, otherwise by the
        transversals of the facet complements.
        """
        if self._nonsimplices is None:
            faces = self.face_bits()
            if faces is None:
                self._nonsimplices = tuple(minimal_nonsimplices_by_transversal(self))
            else:
                self._nonsimplices = tuple(_minimal_nonfaces(faces, _low_masks(self.m)))
        return self._nonsimplices

    def nonface_incidence(self) -> tuple[int, ...]:
        """Per vertex bit v < m, the bitset over indices into
        minimal_nonsimplices() of the non-faces that contain v; cached."""
        if self._incidence is None:
            self._incidence = tuple(incidence(self.minimal_nonsimplices(), self.m))
        return self._incidence

    def facet_incidence(self) -> tuple[int, ...]:
        """Per vertex bit v < m, the bitset over indices into facets of the
        facets that contain v; cached."""
        if self._facet_incidence is None:
            self._facet_incidence = tuple(incidence(self.facets, self.m))
        return self._facet_incidence

    def facet_sides(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        """Per facet sigma in K.facets order, (sigma, the vertex indices
        outside sigma, those inside it), both ascending; cached. The
        verifiers read each facet's rows and columns through these."""
        if self._sides is None:
            vertices = range(self.m)
            self._sides = tuple(
                (
                    sigma,
                    tuple(i for i in vertices if not sigma >> i & 1),
                    tuple(i for i in vertices if sigma >> i & 1),
                )
                for sigma in self.facets
            )
        return self._sides

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
        edges = []
        covered = 0
        for u, v in combinations(range(self.m), 2):
            e = (1 << u) | (1 << v)
            if self.contains_face(e):
                edges.append(e)
                covered |= e
        isolated = [
            1 << v for v in range(self.m) if not covered >> v & 1 and self.contains_face(1 << v)
        ]
        return SimplicialComplex(self.m, edges + isolated)

    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Up to 256 vertex permutations preserving the facet family,
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
                if len(found) >= 256:
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


def _build_low_masks(m: int) -> tuple[int, ...]:
    """Per vertex bit b < m, the 2^m-bit mask of the subsets without b."""
    return tuple(
        int(("0" * (1 << b) + "1" * (1 << b)) * (1 << m - b - 1), 2) for b in range(m)
    )


_kept_low_masks = cache(_build_low_masks)


def _low_masks(m: int) -> tuple[int, ...]:
    """_build_low_masks(m), kept for the life of the process only at
    m <= SCAN_VERTEX_LIMIT, the sizes face_bits() builds: a direct scan
    above it builds its masks (m of 2^m bits) and drops them."""
    return _kept_low_masks(m) if m <= SCAN_VERTEX_LIMIT else _build_low_masks(m)


def _face_set(facets: Iterable[int], lows: Sequence[int]) -> int:
    """The face set as one 2^m-bit int, m = len(lows): the facets marked,
    then closed downward by m steps `faces |= faces >> 2^b & LO_b` (the
    subset zeta transform)."""
    marks = bytearray(max(1, (1 << len(lows)) >> 3))
    for f in facets:
        marks[f >> 3] |= 1 << (f & 7)
    faces = int.from_bytes(marks, "little")
    for b, low in enumerate(lows):
        faces |= faces >> (1 << b) & low
    return faces


def _minimal_nonfaces(faces: int, lows: Sequence[int]) -> list[int]:
    """The minimal non-faces, ascending, of a face set on m = len(lows)
    vertices: the non-faces ANDed, per b, with whether removing b leaves a
    face."""
    size = 1 << len(lows)
    minimal = ((1 << size) - 1) ^ faces
    for b, low in enumerate(lows):
        minimal &= faces << (1 << b) | low
    bits = format(minimal, f"0{size}b")[::-1]
    out = []
    sigma = bits.find("1")
    while sigma >= 0:
        out.append(sigma)
        sigma = bits.find("1", sigma + 1)
    return out


def minimal_nonsimplices_by_scan(K: SimplicialComplex) -> list[int]:
    """N(K) read off the face set as minimal_nonsimplices() reads it, at
    any m and storing nothing on K. Time and memory grow as 2^m."""
    lows = _low_masks(K.m)
    return _minimal_nonfaces(_face_set(K.facets, lows), lows)


def minimal_nonsimplices_by_transversal(K: SimplicialComplex) -> list[int]:
    """Minimal non-faces as minimal transversals of the facet complements.

    A subset fails to fit in facet F exactly when it meets [m]\\F, so the
    minimal non-faces are the minimal hitting sets of {[m]\\F}.
    """
    fm = full_mask(K.m)
    return minimal_transversals([fm ^ f for f in K.facets], K.m)
