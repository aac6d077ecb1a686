"""Irreducible root systems and the two-step non-singular grading scan.

A root system (reduced types A..G plus the non-reduced BC) is generated
in integer simple-root coordinates.  The doubled simple roots 2 a_i of
the standard orthogonal realization have integer coordinates (F4, E6,
E7 and E8 have half-integer ones), so their Gram form 4 (a_k, a_i) is
integral.  It gives the integer Cartan matrix
<a_k, a_i^vee> = 2 (a_k, a_i) / (a_i, a_i), and the simple roots are
closed under the reflections s_i b = b - <b, a_i^vee> a_i acting on
expansion tuples, among the positive roots only: s_i permutes the
positive roots other than a_i (Humphreys, Introduction to Lie Algebras
and Representation Theory, section 10.2, Lemma B; Bourbaki, Lie Groups
ch. VI), so the closure skips s_i on a_i and raises on any image that is
not positive.  Squared lengths, kept as four times their value, are read
off the diagonal of the Gram form and carried along the closure, because
reflections preserve them; BC adds the doubled short roots afterwards,
and the negative roots are the negated positive ones.  The ambient
coordinates of the roots are a lazy view for callers that want them;
the scan never reads them.

A parabolic choice is a subset Phi of simple roots, and two exact
combinatorial predicates on the highest root gamma drive the scan:

* two-step: gamma has Phi-height exactly 2;
* non-singular: for every positive root alpha of Phi-height 1,
  gamma - alpha is again a root of Phi-height 1.

`scan` tests the Phi that can be two-step, reports the survivors and
their orbits under diagram automorphisms.  The curated table of real
forms records restricted root data (type, rank, multiplicities by
squared root length) for named real forms; `nilradical_profile`
recomputes the graded layer dimensions from that data and cross-checks
them against the declared H-type family, and `load_table` requires the
`phi` of every row that is not abelian-only to pass the scan, so an
inconsistent row cannot load silently.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from importlib import resources

from .division import Tag
from .htype import HTypeFamilyId
from .nilalg import json_int, read_json

Coords = Tuple[Fraction, ...]
Expansion = Tuple[int, ...]

_VALID_TYPES = ("A", "B", "C", "D", "BC", "G2", "F4", "E6", "E7", "E8")

# Largest root system `build` accepts; BC30, the largest at rank 30, has 1,860 roots.
MAX_ROOTS = 5000


class RootSystemResourceError(RuntimeError):
    """Raised when a requested root system has more roots than MAX_ROOTS."""


_MIN_RANKS = {"A": 1, "B": 2, "C": 2, "D": 4, "BC": 1}


def _check_rank(type_tag: str, rank: int) -> None:
    """Reject a rank the type does not have; G2, F4 and E6-E8 have one fixed rank."""
    if type_tag in _MIN_RANKS:
        if rank < _MIN_RANKS[type_tag]:
            raise ValueError(f"{type_tag} needs rank >= {_MIN_RANKS[type_tag]}")
    elif rank != int(type_tag[1]):
        raise ValueError(f"{type_tag} has rank {type_tag[1]}")


def _doubled_simple_roots(type_tag: str, rank: int) -> List[Tuple[int, ...]]:
    """Twice the simple roots of the standard realization, in integers, for a checked rank."""
    if type_tag == "A":
        return [tuple(2 if k == i else (-2 if k == i + 1 else 0) for k in range(rank + 1))
                for i in range(rank)]
    if type_tag in ("B", "C", "D", "BC"):
        base = [tuple(2 if k == i else (-2 if k == i + 1 else 0) for k in range(rank))
                for i in range(rank - 1)]
        if type_tag in ("B", "BC"):
            last = tuple(2 if k == rank - 1 else 0 for k in range(rank))
        elif type_tag == "C":
            last = tuple(4 if k == rank - 1 else 0 for k in range(rank))
        else:
            last = tuple(2 if k >= rank - 2 else 0 for k in range(rank))
        return base + [last]
    if type_tag == "G2":
        return [(2, -2, 0), (-4, 2, 2)]
    if type_tag == "F4":
        return [(0, 2, -2, 0),
                (0, 0, 2, -2),
                (0, 0, 0, 2),
                (1, -1, -1, -1)]
    if type_tag in ("E6", "E7", "E8"):
        e8 = [
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
        ]
        return e8[:rank]
    raise ValueError(f"unknown root system type {type_tag!r}")


_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "BC": lambda n: 2 * n * (n + 1),
    "G2": lambda n: 12,
    "F4": lambda n: 48,
    "E6": lambda n: 72,
    "E7": lambda n: 126,
    "E8": lambda n: 240,
}


@dataclass(frozen=True)
class RootSystem:
    """Roots as integer expansions on the simple roots, with their lengths.

    `expansions[i]` holds the simple-root coefficients of root i and
    `length4[i]` four times its squared length.  `roots` gives the same roots
    in the standard orthogonal coordinates, computed on first use.
    """

    type_tag: str
    rank: int
    expansions: Tuple[Expansion, ...]
    length4: Tuple[int, ...]
    simples: Tuple[int, ...]                  # indices into expansions
    positives: Tuple[int, ...]
    highest: int

    @property
    def label(self) -> str:
        return self.type_tag if self.type_tag[-1].isdigit() else f"{self.type_tag}{self.rank}"

    @cached_property
    def roots(self) -> Tuple[Coords, ...]:
        """Ambient coordinates: each expansion applied to the simple roots."""
        # summed in ints on the doubled simple roots
        doubled = _doubled_simple_roots(self.type_tag, self.rank)
        return tuple(tuple(Fraction(sum(c * a[d] for c, a in zip(e, doubled)), 2)
                           for d in range(len(doubled[0])))
                     for e in self.expansions)

    @cached_property
    def gamma_minus(self) -> Dict[int, Optional[int]]:
        """For each positive root alpha, the index of gamma - alpha, or None."""
        index = {e: i for i, e in enumerate(self.expansions)}
        gamma = self.expansions[self.highest]
        return {i: index.get(tuple(map(operator.sub, gamma, self.expansions[i])))
                for i in self.positives}

    def length_sq(self, idx: int) -> Fraction:
        return Fraction(self.length4[idx], 4)


def _check_root_count(type_tag: str, rank: int) -> None:
    count = _ROOT_COUNTS[type_tag](rank)
    if count > MAX_ROOTS:
        raise RootSystemResourceError(
            f"{type_tag} at rank {rank} has {count} roots, above the ceiling of {MAX_ROOTS}")


@lru_cache(maxsize=None)
def build(type_tag: str, rank: int) -> RootSystem:
    """Construct a root system by a reflection closure of its positive roots.

    Roots are integer expansion tuples on the simple roots, and s_i moves
    beta to beta - c a_i with the integer Cartan number
    c = <beta, a_i^vee> = sum_k beta_k <a_k, a_i^vee>.  Since s_i permutes
    the positive roots other than a_i (Humphreys, section 10.2, Lemma B),
    and every positive root is reached from a simple root through positive
    roots, the closure never leaves the positive roots: s_i is skipped on
    a_i itself, and an image that is zero or has a negative coefficient
    raises ArithmeticError.  A reflection keeps the length, so each new
    root inherits it.  BC adds the doubled short roots, and the negative
    roots are the negated positive ones.  The root count is checked
    against MAX_ROOTS before anything is allocated.  The result is frozen
    and cached per (type, rank), so every caller shares one object.
    """
    type_tag = type_tag.upper()
    if type_tag not in _VALID_TYPES:
        raise ValueError(f"unknown root system type {type_tag!r}")
    _check_rank(type_tag, rank)
    _check_root_count(type_tag, rank)
    doubled = _doubled_simple_roots(type_tag, rank)
    # gram4[k][i] = 4 (a_k, a_i), and <a_k, a_i^vee> = 2 gram4[k][i] / gram4[i][i]
    nonzeros = [[(d, x) for d, x in enumerate(s) if x] for s in doubled]
    gram4 = [[sum([x * t[d] for d, x in nz]) for t in doubled] for nz in nonzeros]
    sparse_rows = []
    for k in range(rank):
        row = []
        for i in range(rank):
            c, r = divmod(2 * gram4[k][i], gram4[i][i])
            if r:
                raise ArithmeticError(f"{type_tag}{rank}: non-integral Cartan number "
                                      f"{Fraction(2 * gram4[k][i], gram4[i][i])}")
            if c:
                row.append((i, c))
        sparse_rows.append(row)
    units = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    length4: Dict[Expansion, int] = {e: gram4[i][i] for i, e in enumerate(units)}
    frontier = list(units)
    while frontier:
        beta = frontier.pop()
        pairing = [0] * rank
        for k, b in enumerate(beta):
            if b:
                for i, a in sparse_rows[k]:
                    pairing[i] += b * a
        for i, c in enumerate(pairing):
            if c and beta != units[i]:
                img = list(beta)
                img[i] -= c
                img = tuple(img)
                if img not in length4:
                    # only coefficient i moved, and beta has no negative one
                    if img[i] < 0 or not any(img):
                        raise ArithmeticError(
                            f"{type_tag}{rank}: s_{i + 1} sends the positive root {beta} "
                            f"to {img}, which is not positive")
                    length4[img] = length4[beta]
                    frontier.append(img)
    if type_tag == "BC":
        shortest = min(length4.values())
        for e, n in list(length4.items()):
            if n == shortest:
                length4[tuple(2 * x for x in e)] = 4 * n
    positive = list(length4)
    for e in positive:
        length4[tuple(map(operator.neg, e))] = length4[e]
    expansions = sorted(length4)
    expected = _ROOT_COUNTS[type_tag](rank)
    if len(expansions) != expected:
        raise ArithmeticError(
            f"{type_tag}{rank}: generated {len(expansions)} roots, expected {expected}")
    index = {e: i for i, e in enumerate(expansions)}
    simple_idx = tuple(index[u] for u in units)
    positives = tuple(sorted(index[e] for e in positive))
    highest = _highest_root(expansions, positives)
    return RootSystem(type_tag, rank, tuple(expansions),
                      tuple(length4[e] for e in expansions),
                      simple_idx, positives, highest)


def _highest_root(expansions, positives) -> int:
    best = max(positives, key=lambda i: sum(expansions[i]))
    be = expansions[best]
    for i in positives:
        if any(map(operator.lt, be, expansions[i])):
            raise ArithmeticError("no dominant highest root; system not irreducible?")
    return best


@dataclass(frozen=True)
class ParabolicChoice:
    """A root system together with a subset Phi of its simple roots."""

    system: RootSystem
    phi: FrozenSet[int]      # positions within the simple-root list (0-based)

    def __post_init__(self):
        if not all(0 <= i < self.system.rank for i in self.phi):
            raise ValueError("phi must consist of simple-root positions")


def phi_height(pc: ParabolicChoice, root_idx: int) -> int:
    """Sum of the root's simple-root coefficients over the positions in Phi."""
    exp = pc.system.expansions[root_idx]
    return sum(exp[i] for i in pc.phi)


def is_two_step(pc: ParabolicChoice) -> bool:
    """True iff the highest root has Phi-height exactly 2."""
    if not pc.phi:
        raise ValueError("phi must be nonempty")
    return phi_height(pc, pc.system.highest) == 2


def is_nonsingular_combinatorial(pc: ParabolicChoice) -> bool:
    """For every height-1 positive root a, gamma - a is a height-1 root."""
    expansions, phi = pc.system.expansions, list(pc.phi)
    for i, j in pc.system.gamma_minus.items():
        if sum([expansions[i][k] for k in phi]) == 1 and (
                j is None or sum([expansions[j][k] for k in phi]) != 1):
            return False
    return True


# ---------------------------------------------------------------------------
# Diagram automorphisms and the scan
# ---------------------------------------------------------------------------

def diagram_automorphisms(system: RootSystem) -> List[Tuple[int, ...]]:
    """Automorphism group of the Dynkin diagram as simple-root permutations."""
    n = system.rank
    ident = tuple(range(n))
    gens: List[Tuple[int, ...]] = []
    t = system.type_tag
    if t == "A" and n >= 2:
        gens.append(tuple(n - 1 - i for i in range(n)))
    elif t == "D":
        swap = list(range(n))
        swap[n - 2], swap[n - 1] = swap[n - 1], swap[n - 2]
        gens.append(tuple(swap))
        if n == 4:
            tri = list(range(4))
            tri[0], tri[2] = tri[2], tri[0]     # the three outer nodes are 0, 2, 3
            gens.append(tuple(tri))
    elif t == "E6":
        gens.append((5, 1, 4, 3, 2, 0))
    group: Set[Tuple[int, ...]] = {ident}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for h in gens:
            comp = tuple(g[h[i]] for i in range(n))
            if comp not in group:
                group.add(comp)
                frontier.append(comp)
    return sorted(group)


@dataclass(frozen=True)
class ScanReport:
    system: RootSystem
    passing: Tuple[Tuple[int, ...], ...]          # sorted Phi position tuples
    orbits: Tuple[Tuple[Tuple[int, ...], ...], ...]
    unique_up_to_automorphism: bool


def scan(type_tag: str, rank: int) -> ScanReport:
    """All Phi passing both predicates, grouped by diagram-automorphism orbit.

    Only the Phi that can be two-step are tested.  `build` checks that the
    highest root gamma dominates every positive root, the simple roots
    included, so its coefficients m_i are positive integers.  The
    Phi-height sum_{i in Phi} m_i is then 2 only for Phi = {i} with
    m_i = 2 or Phi = {i, j} with m_i = m_j = 1: O(rank^2) candidates out of
    the 2^rank - 1 nonempty subsets.  Singletons are tested before pairs,
    each in lexicographic order; this is the size-then-lex order of a scan
    over all subsets, and it fixes the order of `orbits`.
    """
    system = build(type_tag, rank)
    top = system.expansions[system.highest]
    candidates = [(i,) for i, m in enumerate(top) if m == 2]
    candidates += itertools.combinations([i for i, m in enumerate(top) if m == 1], 2)
    passing: List[Tuple[int, ...]] = []
    for combo in candidates:
        pc = ParabolicChoice(system, frozenset(combo))
        if is_two_step(pc) and is_nonsingular_combinatorial(pc):
            passing.append(combo)
    autos = diagram_automorphisms(system)
    seen: Set[Tuple[int, ...]] = set()
    orbits: List[Tuple[Tuple[int, ...], ...]] = []
    for phi in passing:
        if phi in seen:
            continue
        orbit = sorted({tuple(sorted(g[i] for i in phi)) for g in autos})
        orbit = [o for o in orbit if o in set(passing)]
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return ScanReport(system, tuple(sorted(passing)), tuple(orbits),
                      len(orbits) == 1)


def scan_standard_types(max_rank: int = 8) -> Dict[str, ScanReport]:
    """The default sweep: classical families to max_rank plus G2 F4 E6 E7 E8.

    The sweep is walked lazily twice: once to check every system's root count
    against MAX_ROOTS before the first one is built, once to scan.
    """
    def systems():
        yield from (("A", n) for n in range(1, max_rank + 1))
        yield from ((t, n) for n in range(2, max_rank + 1) for t in ("B", "C"))
        yield from (("D", n) for n in range(4, max_rank + 1))
        yield from (("BC", n) for n in range(1, max_rank + 1))
        yield from ((name, int(name[1])) for name in ("G2", "F4", "E6", "E7", "E8"))
    for t, n in systems():
        _check_root_count(t, n)
    return {rep.system.label: rep for rep in (scan(t, n) for t, n in systems())}


# ---------------------------------------------------------------------------
# Curated real-form table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealFormEntry:
    """Restricted-root data of a named real form and its graded nilradical.

    Multiplicities are keyed by squared root length in the standard
    realization.  `satake_label` preserves the grading's label in terms
    of the complex simple roots (Satake indexing), which generally
    differs from the restricted `phi` used by the scan; no translation
    between the two is attempted.
    """

    name: str
    restricted_type: str
    restricted_rank: int
    multiplicities: Dict[int, int]
    phi: Tuple[int, ...]
    satake_label: str
    nilradical: Optional[HTypeFamilyId]
    abelian_only: bool = False
    notes: str = ""

    def system(self) -> RootSystem:
        return build(self.restricted_type, self.restricted_rank)

    @cached_property
    def profile(self) -> NilradicalProfile:
        """`nilradical_profile` of the row, computed once."""
        return nilradical_profile(self)


@dataclass(frozen=True)
class NilradicalProfile:
    dim_v: int
    dim_z: int


def nilradical_profile(entry: RealFormEntry) -> NilradicalProfile:
    """Layer dimensions of the graded nilradical from the restricted data.

    dimV sums the multiplicities over Phi-height-1 positive roots, dimZ
    over Phi-height-2 roots.  A mismatch with the declared family is a
    data error and raises.
    """
    system = entry.system()
    pc = ParabolicChoice(system, frozenset(entry.phi))
    dim_v = dim_z = 0
    for i in system.positives:
        h = phi_height(pc, i)
        if h == 0:
            continue
        key = int(system.length_sq(i))
        if key not in entry.multiplicities:
            raise ValueError(f"{entry.name}: no multiplicity for length^2 = {key}")
        m = entry.multiplicities[key]
        if h == 1:
            dim_v += m
        elif h == 2:
            dim_z += m
        else:
            raise ValueError(f"{entry.name}: grading is not two-step (height {h})")
    profile = NilradicalProfile(dim_v, dim_z)
    if entry.abelian_only:
        if dim_z != 0:
            raise ValueError(f"{entry.name}: declared abelian but dimZ = {dim_z}")
    elif entry.nilradical is not None:
        want = entry.nilradical.dims()
        if (dim_v, dim_z) != want:
            raise ValueError(
                f"{entry.name}: computed dims {(dim_v, dim_z)} do not match "
                f"{entry.nilradical} = {want}")
    return profile


def _family_from_json(obj: Optional[dict]) -> Optional[HTypeFamilyId]:
    if obj is None:
        return None
    kind = obj["kind"]
    tag = Tag.parse(obj["field"])
    if kind == "h":
        return HTypeFamilyId("h", tag, (json_int(obj["n"], "n"),))
    if kind == "hprime":
        return HTypeFamilyId("hprime", tag, (json_int(obj["p"], "p"), json_int(obj["q"], "q")))
    raise ValueError(f"unknown family kind {kind!r}")


def _length_key(k: str) -> int:
    """A multiplicity key, a squared root length: a positive int spelled canonically
    ("2", not "02", " 2", "+2" or "1_0"), so no two keys name one length."""
    n = int(k)
    if n <= 0 or str(n) != k:
        raise ValueError(f"multiplicity keys must be positive integers in canonical form, "
                         f"got {k!r}")
    return n


def entry_from_json(obj: dict) -> RealFormEntry:
    if not isinstance(obj, dict):
        raise ValueError(f"real-form entry must be a JSON object, got {type(obj).__name__}")
    try:
        entry = RealFormEntry(
            name=obj["name"],
            restricted_type=obj["restricted"]["type"],
            restricted_rank=json_int(obj["restricted"]["rank"], "rank"),
            multiplicities={_length_key(k): json_int(v, "a multiplicity")
                            for k, v in obj["multiplicities"].items()},
            phi=tuple(json_int(i, "a phi entry") for i in obj["phi"]),
            satake_label=obj.get("satake_label", ""),
            nilradical=_family_from_json(obj.get("nilradical")),
            abelian_only=obj.get("abelian_only", False),
            notes=obj.get("notes", ""),
        )
        if not all(isinstance(x, str) for x in (entry.name, entry.restricted_type,
                                                 entry.satake_label, entry.notes)):
            raise ValueError("name, type, satake_label and notes must be JSON strings")
        if type(entry.abelian_only) is not bool:
            raise ValueError(f"abelian_only must be JSON true or false, got {entry.abelian_only!r}")
        if not all(m > 0 for m in entry.multiplicities.values()):
            raise ValueError(f"multiplicities must be positive, got {obj['multiplicities']}")
        if entry.restricted_type not in _VALID_TYPES:
            raise ValueError(f"type must be one of {', '.join(_VALID_TYPES)}")
        _check_rank(entry.restricted_type, entry.restricted_rank)
        if not entry.phi or len(set(entry.phi)) != len(entry.phi) or not all(
                0 <= i < entry.restricted_rank for i in entry.phi):
            raise ValueError("phi must be a nonempty list of distinct simple-root positions")
        return entry
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed real-form entry {obj.get('name', '?')!r}: {exc}") from exc


def load_table(path: Optional[str] = None) -> List[RealFormEntry]:
    """The curated table, from a file or the packaged data.

    The document must be a non-empty JSON list of objects; every row is
    validated through its `profile` on load, and the `phi` of every row
    that is not abelian-only must be one that `scan` passes.
    """
    if path is None:
        path = resources.files("nilrad").joinpath("data/real_forms.json")
    docs = read_json(path)
    if not isinstance(docs, list) or not docs:
        raise ValueError(f"{path}: real-form table must be a non-empty JSON list of objects")
    entries = [entry_from_json(d) for d in docs]
    for e in entries:
        e.profile       # raises on a data error
        if not e.abelian_only and tuple(sorted(e.phi)) not in scan(
                e.restricted_type, e.restricted_rank).passing:
            raise ValueError(f"{e.name}: phi {list(e.phi)} is not a two-step non-singular "
                             f"choice on {e.system().label}")
    return entries


@dataclass(frozen=True)
class A1ExceptionReport:
    a1_rows: Tuple[str, ...]
    a1_rows_all_so_n1: bool
    so_rows_all_a1: bool
    a1_max_height_one: bool


def a1_exception_report(table: Sequence[RealFormEntry]) -> A1ExceptionReport:
    """Certify the rank-one exception over the curated table.

    Exactly the so(n,1) rows have restricted type A1, and on A1 the only
    nonempty Phi gives maximal Phi-height 1, i.e. an abelian nilradical.
    """
    a1 = tuple(e.name for e in table
               if e.restricted_type == "A" and e.restricted_rank == 1)
    non_a1 = tuple(e.name for e in table if e.name not in a1)
    is_so = lambda name: (bare := name.replace(" ", "")).startswith("so(") and bare.endswith(",1)")
    a1_sys = build("A", 1)
    pc = ParabolicChoice(a1_sys, frozenset({0}))
    max_height = max(phi_height(pc, i) for i in a1_sys.positives)
    return A1ExceptionReport(
        a1_rows=a1,
        a1_rows_all_so_n1=all(is_so(n) for n in a1),
        so_rows_all_a1=all(not is_so(n) for n in non_a1),
        a1_max_height_one=(max_height == 1),
    )


def render_table(table: Sequence[RealFormEntry], as_json: bool = False):
    """Rows: real form | restricted system | Phi | label | nilradical | dims."""
    rows = []
    for e in table:
        phi_txt = "{" + ", ".join(f"a{i+1}" for i in e.phi) + "}"
        nil = "abelian" if e.abelian_only else str(e.nilradical)
        rows.append({
            "name": e.name,
            "restricted": e.system().label,
            "phi": phi_txt,
            "label": e.satake_label,
            "nilradical": nil,
            "dimV": e.profile.dim_v,
            "dimZ": e.profile.dim_z,
        })
    if as_json:
        return rows
    widths = {k: max(len(str(r[k])) for r in rows + [dict.fromkeys(rows[0], k)])
              for k in rows[0]}
    header = " | ".join(k.ljust(widths[k]) for k in rows[0])
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(" | ".join(str(r[k]).ljust(widths[k]) for k in r))
    lines.append("note: so(n,1) rows are the A1 exception; their single "
                 "parabolic class has an abelian nilradical")
    return "\n".join(lines)
