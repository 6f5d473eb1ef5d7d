"""The benchmark's workloads: op lists, the files the program reads, and the
checks on what it writes.

Every op is one `knotforge.cli.main(argv)` call with a known verdict (its
exit code).  The program only ever sees files made here, in the run's work
directory: copies of the committed positives in `inputs/`, variants of
them, and negatives built from them with mutation positions drawn from the
workload seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
MANIFEST = INPUTS / "manifest.json"

GEN_LADDER_N = (21, 31, 41)
SMALL_BATCH_N = tuple(range(1, 16, 2))
CSV_SAMPLES = 2000

CURVE_KEYS = ("N", "epsilon", "nodes", "x", "y", "z")


@dataclass(frozen=True)
class Op:
    label: str                     # unique within a workload, e.g. "verify curve_n41"
    kind: str                      # "gen", "verify" or "export"
    argv: tuple[str, ...]
    verdict: int                   # the exit code a correct program returns
    out: Optional[Path] = None     # the file the op writes, removed before each pass
    check: Optional[Callable[[], Optional[str]]] = None  # run after the pass; a reason on failure


@dataclass
class Workload:
    groups: list[list[Op]]         # a group's first op runs before the rest of the group
    hostile: list[tuple[str, str]]  # (label, path): exit 1 or 2 expected, probed untimed

    def pass_ops(self, rng: random.Random) -> list[Op]:
        """One pass: groups in seeded order, each group's dependents shuffled."""
        groups = list(self.groups)
        rng.shuffle(groups)
        ops: list[Op] = []
        for group in groups:
            rest = list(group[1:])
            rng.shuffle(rest)
            ops.append(group[0])
            ops.extend(rest)
        return ops


# -- correctness checks -----------------------------------------------------------


def curve_digest(doc: dict) -> str:
    """sha256 of the curve-defining fields, independent of formatting."""
    key = [doc.get(k) for k in CURVE_KEYS]
    text = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _coeffs(obj: dict) -> list[Fraction]:
    return [Fraction(c) for c in obj["coeffs"]]


def t_to_monomial(coeffs: list[Fraction]) -> list[Fraction]:
    """Expand sum c_k T_k to monomial coefficients, using only the recurrence
    T_0 = 2, T_1 = t, T_{k+1} = t T_k - T_{k-1} (independent of knotforge)."""
    out = [Fraction(0)] * len(coeffs)
    prev, cur = [], [Fraction(2)]
    for k, c in enumerate(coeffs):
        if k == 1:
            prev, cur = cur, [Fraction(0), Fraction(1)]
        elif k >= 2:
            nxt = [Fraction(0)] + cur
            for i, v in enumerate(prev):
                nxt[i] -= v
            prev, cur = cur, nxt
        for i, v in enumerate(cur):
            out[i] += c * v
    return out


def coeff_bits(coeffs: list[Fraction]) -> int:
    """Largest bit length of a numerator or denominator."""
    return max((max(abs(c.numerator), c.denominator).bit_length() for c in coeffs), default=0)


def epsilon_halvings(epsilon: Optional[str]) -> int:
    """How often the node scale was halved from its default 1/4 (-1 if not a halving)."""
    if epsilon is None:
        return -1
    ratio = Fraction(1, 4) / Fraction(epsilon)
    if ratio.denominator != 1 or ratio.numerator & (ratio.numerator - 1):
        return -1
    return ratio.numerator.bit_length() - 1


class GenChecker:
    """Checks a `gen` output: its digest equals the seed reference, and the
    program's brute-force `crossing_oracle` counts exactly N double points.

    Results are cached by the output's bytes, so a pass that writes the same
    file again costs one hash.
    """

    def __init__(self, references: dict[str, str], oracle: Callable, poly_cls: type):
        self._refs = references
        self._oracle = oracle
        self._poly = poly_cls
        self._seen: dict[tuple[int, str], Optional[str]] = {}
        self.sizes: dict[int, tuple[int, int, int]] = {}  # N -> (y bits, z bits, halvings)

    def check(self, n: int, path: Path) -> Optional[str]:
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"no output: {exc}"
        key = (n, hashlib.sha256(data).hexdigest())
        if key not in self._seen:
            self._seen[key] = self._check_doc(n, data)
        return self._seen[key]

    def _check_doc(self, n: int, data: bytes) -> Optional[str]:
        try:
            doc = json.loads(data)
            if doc.get("N") != n:
                return f"N is {doc.get('N')!r}, expected {n}"
            if curve_digest(doc) != self._refs.get(str(n)):
                return f"N={n}: curve digest differs from the seed reference"
            if doc["x"]["basis"] != "monomial" or doc["y"]["basis"] != "T":
                return f"N={n}: unexpected bases"
            ys = _coeffs(doc["y"])
            zs = _coeffs(doc["z"]) if doc.get("z") else []
            self.sizes[n] = (coeff_bits(ys), coeff_bits(zs), epsilon_halvings(doc.get("epsilon")))
            count = self._oracle(self._poly(_coeffs(doc["x"])), self._poly(t_to_monomial(ys)))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"N={n}: unreadable output: {exc!r}"
        if count != n:
            return f"N={n}: crossing oracle counts {count}"
        return None


def check_export(path: Path, csv_rows: Optional[int]) -> Optional[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return f"no output: {exc}"
    if csv_rows is not None:
        lines = text.splitlines()
        if len(lines) != csv_rows + 1 or not lines[0].startswith("t,x,y"):
            return f"{path.name}: {len(lines)} csv lines, expected {csv_rows + 1}"
    elif not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return f"{path.name}: not an svg document"
    return None


# -- workload definitions ---------------------------------------------------------


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def _gen_op(n: int, out: Path, checker: GenChecker) -> Op:
    return Op(f"gen n{n}", "gen", ("gen", "--n", str(n), "--out", str(out)), 0, out,
              lambda: checker.check(n, out))


def gen_ladder(work: Path, seed: int, manifest: dict, checker: GenChecker) -> Workload:
    groups = [[_gen_op(n, work / f"gen_n{n}.json", checker)] for n in GEN_LADDER_N]
    return Workload(groups, [])


def small_batch(work: Path, seed: int, manifest: dict, checker: GenChecker) -> Workload:
    groups = []
    for n in SMALL_BATCH_N:
        curve = work / f"gen_n{n}.json"
        svg_out, csv_out = work / f"n{n}.svg", work / f"n{n}.csv"
        groups.append([
            _gen_op(n, curve, checker),
            Op(f"verify n{n}", "verify", ("verify", str(curve)), 0),
            Op(f"export svg n{n}", "export",
               ("export", "--svg", str(curve), "--out", str(svg_out)), 0, svg_out,
               partial(check_export, svg_out, None)),
            Op(f"export csv n{n}", "export",
               ("export", "--csv", "--samples", str(CSV_SAMPLES), str(curve),
                "--out", str(csv_out)),
               0, csv_out, partial(check_export, csv_out, CSV_SAMPLES)),
        ])
    return Workload(groups, [])


def _visible_positions(coeffs: list[str]) -> list[int]:
    """T-basis indices whose coefficient is nonzero and not in the kernel of
    the divided difference (k = 0 mod 3), so changing it changes the curve's
    crossings or signs."""
    return [k for k, c in enumerate(coeffs) if k % 3 != 0 and Fraction(c) != 0]


def verify_negatives(base: dict, rng: random.Random) -> dict[str, dict]:
    """N=21 files that a correct `verify` rejects with exit 2.

    Each mutation provably breaks a certificate: a visible z or y
    coefficient changes dd(z) or R = dd(y) at every nonzero planted node
    (those nodes are rational in (0, 1), so no V_k vanishes there); a node
    moved strictly between two planted nodes is not a root of R, whose N
    roots are exactly the planted ones; and N +- 2 or 4 contradicts the
    Sturm count.
    """
    out = {}
    doc = copy.deepcopy(base)
    k = rng.choice(_visible_positions(doc["z"]["coeffs"]))
    doc["z"]["coeffs"][k] = str(-Fraction(doc["z"]["coeffs"][k]))
    out["neg_z_sign"] = doc

    doc = copy.deepcopy(base)
    k = rng.choice(_visible_positions(doc["y"]["coeffs"]))
    c = Fraction(doc["y"]["coeffs"][k])
    doc["y"]["coeffs"][k] = str(c + c / 2**20)
    out["neg_y_perturbed"] = doc

    doc = copy.deepcopy(base)
    nodes = [Fraction(s) for s in doc["nodes"]]
    j = rng.randrange(len(nodes))
    below = nodes[j - 1] if j else Fraction(0)
    nodes[j] = (below + nodes[j]) / 2
    doc["nodes"] = [str(d) for d in nodes]
    out["neg_node_not_root"] = doc

    doc = copy.deepcopy(base)
    doc["N"] = base["N"] + rng.choice((-4, -2, 2, 4))
    out["neg_wrong_n"] = doc
    return out


def verify_hostile(base: dict, rng: random.Random) -> dict[str, dict]:
    """Malformed N=21 files: `verify` must exit 1 or 2 and never raise."""
    out = {}
    doc = copy.deepcopy(base)
    doc["nodes"][rng.randrange(len(doc["nodes"]))] = rng.choice(("-1/8", "0", "1", "3/2"))
    out["hostile_node_outside"] = doc

    doc = copy.deepcopy(base)
    field = rng.choice(("x", "y", "z"))
    doc[field]["coeffs"][rng.randrange(len(doc[field]["coeffs"]))] = 1
    out["hostile_int_coefficient"] = doc

    doc = copy.deepcopy(base)
    doc["nodes"] = rng.choice(base["nodes"])
    out["hostile_nodes_string"] = doc
    return out


def verify_store(work: Path, seed: int, manifest: dict, checker: GenChecker) -> Workload:
    rng = random.Random(seed)
    files: dict[str, tuple[dict, int]] = {}
    stored = {}
    for name, verdict in manifest["stored"].items():
        with open(INPUTS / name, encoding="utf-8") as fh:
            stored[name] = json.load(fh)
        files[Path(name).stem] = (stored[name], verdict)
    for n in (21, 31):
        doc = dict(stored[f"curve_n{n}.json"], nodes=None, epsilon=None)
        files[f"curve_n{n}_nodeless"] = (doc, 0)
    files["curve_n21_plane"] = (dict(stored["curve_n21.json"], z=None), 0)
    base = stored["curve_n21.json"]
    for name, doc in verify_negatives(base, rng).items():
        files[name] = (doc, 2)
    groups = []
    for name, (doc, verdict) in files.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        groups.append([Op(f"verify {name}", "verify", ("verify", str(path)), verdict)])
    hostile = []
    for name, doc in verify_hostile(base, rng).items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        hostile.append((name, str(path)))
    return Workload(groups, hostile)


WORKLOADS = {
    "gen-ladder": gen_ladder,
    "verify-store": verify_store,
    "small-batch": small_batch,
}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
