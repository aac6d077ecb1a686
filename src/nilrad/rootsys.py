"""Irreducible root systems and the two-step non-singular grading scan.

Root systems (reduced types A..G plus the non-reduced BC) are realized
in standard orthogonal coordinates and generated by reflection closure
from the simple roots; BC adds the doubled short roots afterwards.  A
parabolic choice is a subset Phi of simple roots, and two exact
combinatorial predicates on the highest root gamma drive the scan:

* two-step: gamma has Phi-height exactly 2;
* non-singular: for every positive root alpha of Phi-height 1,
  gamma - alpha is again a root of Phi-height 1.

`scan` enumerates all nonempty Phi, reports the survivors and their
orbits under diagram automorphisms.  The curated table of real forms
records restricted root data (type, rank, multiplicities by squared
root length) for named real forms; `nilradical_profile` recomputes the
graded layer dimensions from that data and cross-checks them against
the declared H-type family, so an inconsistent row cannot load silently.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from importlib import resources

from .division import Tag
from .htype import HTypeFamilyId

Coords = Tuple[Fraction, ...]

_VALID_TYPES = ("A", "B", "C", "D", "BC", "G2", "F4", "E6", "E7", "E8")


def _dot(x: Coords, y: Coords) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _simple_roots(type_tag: str, rank: int) -> List[Coords]:
    F = Fraction
    if type_tag == "A":
        if rank < 1:
            raise ValueError("A needs rank >= 1")
        dim = rank + 1
        return [tuple(F(1 if k == i else (-1 if k == i + 1 else 0)) for k in range(dim))
                for i in range(rank)]
    if type_tag in ("B", "C", "D", "BC"):
        min_rank = {"B": 2, "C": 2, "D": 4, "BC": 1}[type_tag]
        if rank < min_rank:
            raise ValueError(f"{type_tag} needs rank >= {min_rank}")
        dim = rank
        base = [tuple(F(1 if k == i else (-1 if k == i + 1 else 0)) for k in range(dim))
                for i in range(rank - 1)]
        if type_tag in ("B", "BC"):
            last = tuple(F(1 if k == rank - 1 else 0) for k in range(dim))
        elif type_tag == "C":
            last = tuple(F(2 if k == rank - 1 else 0) for k in range(dim))
        else:
            last = tuple(F(1 if k >= rank - 2 else 0) for k in range(dim))
        return base + [last]
    if type_tag == "G2":
        if rank != 2:
            raise ValueError("G2 has rank 2")
        return [(F(1), F(-1), F(0)), (F(-2), F(1), F(1))]
    if type_tag == "F4":
        if rank != 4:
            raise ValueError("F4 has rank 4")
        return [(F(0), F(1), F(-1), F(0)),
                (F(0), F(0), F(1), F(-1)),
                (F(0), F(0), F(0), F(1)),
                (F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2))]
    if type_tag in ("E6", "E7", "E8"):
        want = int(type_tag[1])
        if rank != want:
            raise ValueError(f"{type_tag} has rank {want}")
        half = F(1, 2)
        e8 = [
            (half, -half, -half, -half, -half, -half, -half, half),
            (F(1), F(1), F(0), F(0), F(0), F(0), F(0), F(0)),
            (F(-1), F(1), F(0), F(0), F(0), F(0), F(0), F(0)),
            (F(0), F(-1), F(1), F(0), F(0), F(0), F(0), F(0)),
            (F(0), F(0), F(-1), F(1), F(0), F(0), F(0), F(0)),
            (F(0), F(0), F(0), F(-1), F(1), F(0), F(0), F(0)),
            (F(0), F(0), F(0), F(0), F(-1), F(1), F(0), F(0)),
            (F(0), F(0), F(0), F(0), F(0), F(-1), F(1), F(0)),
        ]
        return e8[:want]
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
    """Roots in orthogonal coordinates with simple-root bookkeeping."""

    type_tag: str
    rank: int
    roots: Tuple[Coords, ...]
    expansions: Tuple[Tuple[int, ...], ...]   # per root, coefficients on simples
    simples: Tuple[int, ...]                  # indices into roots
    positives: Tuple[int, ...]
    highest: int

    @property
    def label(self) -> str:
        return self.type_tag if self.type_tag[-1].isdigit() else f"{self.type_tag}{self.rank}"

    @cached_property
    def _index(self) -> Dict[Coords, int]:
        return {r: i for i, r in enumerate(self.roots)}

    def is_root(self, coords: Coords) -> Optional[int]:
        return self._index.get(coords)

    def length_sq(self, idx: int) -> Fraction:
        r = self.roots[idx]
        return _dot(r, r)


def build(type_tag: str, rank: int) -> RootSystem:
    """Construct a root system by reflection closure of the simple roots.

    Each root's simple-root expansion is carried along the closure:
    s_i(beta) = beta - c alpha_i with the integer Cartan number c.
    """
    type_tag = type_tag.upper()
    if type_tag not in _VALID_TYPES:
        raise ValueError(f"unknown root system type {type_tag!r}")
    simples = _simple_roots(type_tag, rank)
    expansion: Dict[Coords, Tuple[int, ...]] = {
        a: tuple(1 if k == i else 0 for k in range(rank)) for i, a in enumerate(simples)}
    frontier = list(simples)
    norms = [_dot(a, a) for a in simples]
    while frontier:
        beta = frontier.pop()
        e_beta = expansion[beta]
        for i, (alpha, n2) in enumerate(zip(simples, norms)):
            c = 2 * _dot(beta, alpha) / n2
            if c.denominator != 1:
                raise ArithmeticError(f"{type_tag}{rank}: non-integral Cartan number {c}")
            img = tuple(b - c * a for b, a in zip(beta, alpha))
            if img not in expansion:
                e_img = list(e_beta)
                e_img[i] -= int(c)
                expansion[img] = tuple(e_img)
                frontier.append(img)
    for r, e in list(expansion.items()):
        expansion.setdefault(tuple(-c for c in r), tuple(-x for x in e))
    if type_tag == "BC":
        shortest = min(_dot(r, r) for r in expansion)
        for r, e in list(expansion.items()):
            if _dot(r, r) == shortest:
                expansion[tuple(2 * c for c in r)] = tuple(2 * x for x in e)
    ordered = sorted(expansion)
    expected = _ROOT_COUNTS[type_tag](rank)
    if len(ordered) != expected:
        raise AssertionError(
            f"{type_tag}{rank}: generated {len(ordered)} roots, expected {expected}")
    expansions = [expansion[r] for r in ordered]
    simple_idx = tuple(ordered.index(s) for s in simples)
    positives = tuple(i for i, e in enumerate(expansions)
                      if any(e) and min(e) >= 0)
    if 2 * len(positives) != len(ordered):
        raise ArithmeticError(f"{type_tag}{rank}: positive roots are not half of all roots")
    highest = _highest_root(ordered, expansions, positives)
    return RootSystem(type_tag, rank, tuple(ordered), tuple(expansions),
                      simple_idx, positives, highest)


def _highest_root(roots, expansions, positives) -> int:
    best = max(positives, key=lambda i: sum(expansions[i]))
    be = expansions[best]
    for i in positives:
        if any(b < e for b, e in zip(be, expansions[i])):
            raise AssertionError("no dominant highest root; system not irreducible?")
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
    sys_ = pc.system
    gamma = sys_.roots[sys_.highest]
    for i in sys_.positives:
        if phi_height(pc, i) != 1:
            continue
        diff = tuple(g - a for g, a in zip(gamma, sys_.roots[i]))
        j = sys_.is_root(diff)
        if j is None or phi_height(pc, j) != 1:
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
    """All Phi passing both predicates, grouped by diagram-automorphism orbit."""
    system = build(type_tag, rank)
    passing: List[Tuple[int, ...]] = []
    for size in range(1, system.rank + 1):
        for combo in itertools.combinations(range(system.rank), size):
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
    """The default sweep: classical families to max_rank plus G2 F4 E6 E7 E8."""
    reports: Dict[str, ScanReport] = {}
    for n in range(1, max_rank + 1):
        reports[f"A{n}"] = scan("A", n)
    for n in range(2, max_rank + 1):
        reports[f"B{n}"] = scan("B", n)
        reports[f"C{n}"] = scan("C", n)
    for n in range(4, max_rank + 1):
        reports[f"D{n}"] = scan("D", n)
    for n in range(1, max_rank + 1):
        reports[f"BC{n}"] = scan("BC", n)
    for name in ("G2", "F4", "E6", "E7", "E8"):
        reports[name] = scan(name, int(name[1]))
    return reports


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


@dataclass(frozen=True)
class NilradicalProfile:
    dim_v: int
    dim_z: int
    height1_roots: Tuple[int, ...]
    height2_roots: Tuple[int, ...]


def nilradical_profile(entry: RealFormEntry) -> NilradicalProfile:
    """Layer dimensions of the graded nilradical from the restricted data.

    dimV sums the multiplicities over Phi-height-1 positive roots, dimZ
    over Phi-height-2 roots.  A mismatch with the declared family is a
    data error and raises.
    """
    system = entry.system()
    pc = ParabolicChoice(system, frozenset(entry.phi))
    h1, h2 = [], []
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
            h1.append(i)
            dim_v += m
        elif h == 2:
            h2.append(i)
            dim_z += m
        else:
            raise ValueError(f"{entry.name}: grading is not two-step (height {h})")
    profile = NilradicalProfile(dim_v, dim_z, tuple(h1), tuple(h2))
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
        return HTypeFamilyId("h", tag, (int(obj["n"]),))
    if kind == "hprime":
        return HTypeFamilyId("hprime", tag, (int(obj["p"]), int(obj["q"])))
    raise ValueError(f"unknown family kind {kind!r}")


def _family_to_json(fid: Optional[HTypeFamilyId]) -> Optional[dict]:
    if fid is None:
        return None
    if fid.kind == "h":
        return {"kind": "h", "field": fid.tag.name, "n": fid.params[0]}
    return {"kind": "hprime", "field": fid.tag.name,
            "p": fid.params[0], "q": fid.params[1]}


def entry_from_json(obj: dict) -> RealFormEntry:
    try:
        return RealFormEntry(
            name=obj["name"],
            restricted_type=obj["restricted"]["type"],
            restricted_rank=int(obj["restricted"]["rank"]),
            multiplicities={int(k): int(v) for k, v in obj["multiplicities"].items()},
            phi=tuple(int(i) for i in obj["phi"]),
            satake_label=obj.get("satake_label", ""),
            nilradical=_family_from_json(obj.get("nilradical")),
            abelian_only=bool(obj.get("abelian_only", False)),
            notes=obj.get("notes", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed real-form entry {obj.get('name', '?')!r}: {exc}") from exc


def entry_to_json(entry: RealFormEntry) -> dict:
    doc = {
        "name": entry.name,
        "restricted": {"type": entry.restricted_type, "rank": entry.restricted_rank},
        "multiplicities": {str(k): v for k, v in sorted(entry.multiplicities.items())},
        "phi": list(entry.phi),
        "satake_label": entry.satake_label,
        "nilradical": _family_to_json(entry.nilradical),
        "abelian_only": entry.abelian_only,
    }
    if entry.notes:
        doc["notes"] = entry.notes
    return doc


def load_table(path: Optional[str] = None) -> List[RealFormEntry]:
    """The curated table, from a file or the packaged data.

    Every row is validated through `nilradical_profile` on load.
    """
    if path is None:
        text = resources.files("nilrad").joinpath("data/real_forms.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        docs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"real-form table: invalid JSON at line {exc.lineno}") from exc
    entries = [entry_from_json(d) for d in docs]
    for e in entries:
        nilradical_profile(e)
    return entries


@dataclass(frozen=True)
class A1ExceptionReport:
    a1_rows: Tuple[str, ...]
    non_a1_rows: Tuple[str, ...]
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
    is_so = lambda name: name.replace(" ", "").startswith("so(") and name.endswith(",1)")
    a1_sys = build("A", 1)
    pc = ParabolicChoice(a1_sys, frozenset({0}))
    max_height = max(phi_height(pc, i) for i in a1_sys.positives)
    return A1ExceptionReport(
        a1_rows=a1,
        non_a1_rows=non_a1,
        a1_rows_all_so_n1=all(is_so(n) for n in a1),
        so_rows_all_a1=all(not is_so(n) for n in non_a1),
        a1_max_height_one=(max_height == 1),
    )


def render_table(table: Sequence[RealFormEntry], as_json: bool = False):
    """Rows: real form | restricted system | Phi | label | nilradical | dims."""
    rows = []
    for e in table:
        profile = nilradical_profile(e)
        phi_txt = "{" + ", ".join(f"a{i+1}" for i in e.phi) + "}"
        sys_label = e.restricted_type if e.restricted_type[-1].isdigit() \
            else f"{e.restricted_type}{e.restricted_rank}"
        nil = "abelian" if e.abelian_only else str(e.nilradical)
        rows.append({
            "name": e.name,
            "restricted": sys_label,
            "phi": phi_txt,
            "label": e.satake_label,
            "nilradical": nil,
            "dimV": profile.dim_v,
            "dimZ": profile.dim_z,
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
