"""Independent pure-Python reference for the benchmark's parity gate.

Nothing here imports ``gementropy``: the crosswalk is re-parsed with
``str.split``, column entropies come from ``collections.Counter``, v is the
stand-alone count plus, per scenario, the product of its choice-list sizes,
and z-scores use the sample standard deviation. The ``check_*`` functions
compare CLI reports (or values the traced run captured) with this reference
and return a list of mismatch messages; an empty list means the gate passed.
Full-precision values must agree to 1e-12; CSV cells, which carry six
significant digits, must equal the reference rounded to six digits.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import re
from collections import Counter
from pathlib import Path

NO_MATCH = ("NODX", "NOPCS")
PAD = "*"
FULL_TOL = 1e-12
MEASURES = ("h_a", "h_b", "ur")
Z_NAMES = ("z_alpha", "z_beta", "z_ur")
RESIDUALS = frozenset({"other", "unspecified", "specified", "nec", "nos"})
UNCLASSIFIED = "unclassified"


# --------------------------------------------------------------------------
# reference computations


def group_lines(text: str) -> list[tuple[str, list[tuple[str, str]]]]:
    """(source, [(target, flag), ...]) in first-appearance order."""
    groups: dict[str, list[tuple[str, str]]] = {}
    for line in text.splitlines():
        fields = line.split()
        if fields:
            source, target, flag = fields
            groups.setdefault(source, []).append((target, flag))
    return list(groups.items())


def column_entropy(symbols: list[str]) -> float:
    m = len(symbols)
    return -sum((c / m) * math.log2(c / m) for c in Counter(symbols).values())


def score_map(rows: list[tuple[str, str]], weights=None) -> dict:
    """Raw measures of one regular map."""
    targets = [t for t, _ in rows]
    m = len(rows)
    m0 = sum(1 for _, f in rows if f[2] == "0")
    list_sizes = Counter((f[3], f[4]) for _, f in rows if f[2] == "1")
    v = m0
    for scenario in sorted({s for s, _ in list_sizes}):
        v += math.prod(size for (s, _), size in list_sizes.items() if s == scenario)
    n = max(len(t) for t in targets)
    cols = [column_entropy([t[j] if j < len(t) else PAD for t in targets]) for j in range(n)]
    out = {"m": m, "m0": m0, "v": v, "h_a": sum(cols), "h_b": math.log2(v), "ur": math.log2(m)}
    if weights is not None:
        w = weights[:n]
        out["h_a_weighted"] = sum(wj * hj for wj, hj in zip(w, cols)) / sum(w)
    return out


def z_scores(values: list[float]) -> list[float]:
    n = len(values)
    mean = math.fsum(values) / n
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (n - 1))
    return [(x - mean) / std for x in values]


def score_corpus(gem_text: str, weights=None, frequencies=None) -> dict:
    """Per-map measures, z-scores and (optionally) frequency-adjusted
    z-scores of every scored map, plus the excluded no-match sources.

    Returns {"maps": [row dict per scored map in file order], "excluded":
    [source, ...]}.
    """
    maps, excluded = [], []
    for source, rows in group_lines(gem_text):
        no_match = [f[1] == "1" or t in NO_MATCH for t, f in rows]
        if any(no_match):
            if not all(no_match):
                raise ValueError(f"source {source} mixes no-match and regular lines")
            excluded.append(source)
            continue
        row = score_map(rows, weights)
        row["source"] = source
        maps.append(row)
    for measure, z_name in zip(MEASURES, Z_NAMES):
        for row, z in zip(maps, z_scores([r[measure] for r in maps])):
            row[z_name] = z
    if frequencies is not None:
        for row in maps:
            p = frequencies.get(row["source"])
            for z_name in Z_NAMES:
                row[f"adjusted_{z_name}"] = None if p is None else row[z_name] * p
    return {"maps": maps, "excluded": excluded}


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_frequencies(path: Path) -> dict[str, float]:
    _, rows = read_csv_rows(path)
    return {code: float(p) for code, p in rows}


def read_classes(path: Path) -> list[tuple[str, str, list[tuple[str, str]]]]:
    """(class id, label, ranges) per label, in first-appearance order."""
    _, rows = read_csv_rows(path)
    by_label: dict[str, list[tuple[str, str]]] = {}
    for low, high, label in rows:
        by_label.setdefault(label, []).append((low, high))
    return [("+".join(f"{lo}-{hi}" for lo, hi in r), label, r) for label, r in by_label.items()]


class ClassIndex:
    """Prefix-range lookup: bounds right-padded with '0' to a common length k
    and compared with the code's first k characters."""

    def __init__(self, classes):
        by_k: dict[int, list[tuple[str, str, str]]] = {}
        for class_id, _, ranges in classes:
            for low, high in ranges:
                k = max(len(low), len(high))
                by_k.setdefault(k, []).append((low.ljust(k, "0"), high.ljust(k, "0"), class_id))
        self._tables = []
        for k, entries in by_k.items():
            entries.sort()
            self._tables.append((k, [e[0] for e in entries], entries))

    def lookup(self, code: str) -> str:
        for k, lows, entries in self._tables:
            prefix = code[:k].ljust(k, "0")
            i = bisect.bisect_right(lows, prefix) - 1
            if i >= 0 and prefix <= entries[i][1]:
                return entries[i][2]
        return UNCLASSIFIED


def aggregate_classes(maps: list[dict], classes) -> dict[str, dict]:
    """Member count, member sources and summed z triple per class id."""
    index = ClassIndex(classes)
    members: dict[str, list[dict]] = {}
    for row in maps:
        members.setdefault(index.lookup(row["source"]), []).append(row)
    return {
        class_id: {
            "count": len(rows),
            "sources": [r["source"] for r in rows],
            **{z: math.fsum(r[z] for r in rows) for z in Z_NAMES},
        }
        for class_id, rows in members.items()
    }


def tau_b(xs: list[float], ys: list[float]) -> float:
    """Kendall tau-b by explicit pair enumeration."""
    concordant = discordant = tied_x = tied_y = pairs = 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            dx, dy = xs[i] - xs[j], ys[i] - ys[j]
            pairs += 1
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    return (concordant - discordant) / math.sqrt((pairs - tied_x) * (pairs - tied_y))


def load_stopwords(path: Path) -> frozenset[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return frozenset(w.strip() for w in lines if w.strip() and not w.startswith("#"))


def word_graph(descriptions: list[str], stopwords) -> tuple[Counter, Counter]:
    """Description-level word counts and co-occurrence pair counts."""
    nodes: Counter = Counter()
    edges: Counter = Counter()
    for text in descriptions:
        words = sorted({
            w for w in re.findall(r"[a-z]+", text.lower())
            if len(w) >= 3 and w not in stopwords and w not in RESIDUALS
        })
        nodes.update(words)
        edges.update((a, b) for i, a in enumerate(words) for b in words[i + 1:])
    return nodes, edges


# --------------------------------------------------------------------------
# comparisons


def _full_ok(got, want) -> bool:
    return abs(got - want) <= FULL_TOL * max(1.0, abs(want))


def _six_digit_ok(cell: str, want: float) -> bool:
    """True when the cell equals ``want`` rounded to six significant digits
    (a rounding tie may go either way)."""
    got = float(cell)
    if want == 0.0:
        return abs(got) <= FULL_TOL
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(want))) - 5)
    return abs(got - want) <= half_unit * (1 + 1e-9) + FULL_TOL


def _compare(errors, where, got, want, full: bool) -> None:
    if want is None or got is None:
        if want is not None or got not in (None, ""):
            errors.append(f"{where}: got {got!r}, want {want!r}")
        return
    if isinstance(want, int):
        if int(got) != want:
            errors.append(f"{where}: got {got}, want {want}")
    elif not (_full_ok(float(got), want) if full else _six_digit_ok(got, want)):
        errors.append(f"{where}: got {got!r}, want {want!r}")


def read_table(path: Path) -> tuple[list[str], list[list]]:
    """Header and rows of a CSV or JSON report."""
    if path.suffix == ".json":
        records = json.loads(path.read_text(encoding="utf-8"))
        header = list(records[0]) if records else []
        return header, [[r[h] for h in header] for r in records]
    return read_csv_rows(path)


def check_score_table(path: Path, expected: dict, columns: list[str]) -> list[str]:
    """Every scored map's measures and z-scores in a score report."""
    errors: list[str] = []
    header, rows = read_table(path)
    if header != ["source"] + columns:
        return [f"{path.name}: header {header}, want {['source'] + columns}"]
    maps = expected["maps"]
    if len(rows) != len(maps):
        return [f"{path.name}: {len(rows)} rows, want {len(maps)}"]
    full = path.suffix == ".json"
    for row, want in zip(rows, maps):
        if row[0] != want["source"]:
            errors.append(f"{path.name}: source {row[0]}, want {want['source']}")
        for name, cell in zip(columns, row[1:]):
            _compare(errors, f"{path.name} {want['source']} {name}", cell, want[name], full)
        if len(errors) > 20:
            break
    return errors


def check_excluded(path: Path, expected: dict) -> list[str]:
    _, rows = read_table(path)
    got = [r[0] for r in rows]
    if got != expected["excluded"]:
        return [f"{path.name}: {len(got)} excluded maps, want {len(expected['excluded'])}"]
    return []


def check_captured(values: dict, expected: dict, columns: list[str]) -> list[str]:
    """Full-precision values that ``score_maps``/``normalize_scores``
    returned in a traced run."""
    errors: list[str] = []
    maps = expected["maps"]
    if list(values["source"]) != [r["source"] for r in maps]:
        return ["traced scores: scored sources differ from the reference"]
    for name in columns:
        for source, got, want in zip(values["source"], values[name], (r[name] for r in maps)):
            _compare(errors, f"traced {source} {name}", got, want, True)
            if len(errors) > 20:
                return errors
    return errors


def check_rank_dir(out: Path, expected: dict) -> list[str]:
    """Rank files: one row per non-empty class with the right member count
    and summed score; class_members: every map in its class with its z."""
    errors: list[str] = []
    classes = expected["classes"]
    for measure in Z_NAMES + ("total",):
        _, rows = read_csv_rows(out / f"rank_{measure}.csv")
        got = {r[1]: r for r in rows}
        if set(got) != set(classes):
            errors.append(f"rank_{measure}: classes {len(got)}, want {len(classes)}")
            continue
        for class_id, want in classes.items():
            score = (math.fsum(want[z] for z in Z_NAMES) if measure == "total"
                     else want[measure])
            _compare(errors, f"rank_{measure} {class_id} score", got[class_id][3], score, False)
            _compare(errors, f"rank_{measure} {class_id} members",
                     got[class_id][5], want["count"], False)
    by_source = {r["source"]: r for r in expected["maps"]}
    in_class = {s: c for c, info in classes.items() for s in info["sources"]}
    _, rows = read_csv_rows(out / "class_members.csv")
    if len(rows) != len(by_source):
        return errors + [f"class_members: {len(rows)} rows, want {len(by_source)}"]
    for class_id, source, *zs in rows:
        if in_class.get(source) != class_id:
            errors.append(f"class_members {source}: class {class_id}, want {in_class.get(source)}")
        for z_name, cell in zip(Z_NAMES, zs):
            _compare(errors, f"class_members {source} {z_name}", cell, by_source[source][z_name], False)
        if len(errors) > 20:
            break
    return errors


def check_corr(path: Path, rank_dir: Path) -> list[str]:
    """The tau matrix against tau-b recomputed from the rank files."""
    scores = {}
    for measure in Z_NAMES + ("total",):
        _, rows = read_csv_rows(rank_dir / f"rank_{measure}.csv")
        scores[f"rank_{measure}"] = {r[1]: float(r[3]) for r in rows}
    header, rows = read_csv_rows(path)
    errors: list[str] = []
    for row in rows:
        a = scores[row[0]]
        keys = sorted(a)
        for name, cell in zip(header[1:], row[1:]):
            b = scores[name]
            want = tau_b([a[k] for k in keys], [b[k] for k in keys])
            _compare(errors, f"corr {row[0]} {name}", cell, want, False)
    return errors


def check_textnet_dir(out: Path, expected: dict, descriptions: dict, stopwords,
                      top_fraction: float) -> list[str]:
    """Outlier count against the reference cut (ties within 1e-9 may fall
    either way), and the word and edge tables against a graph rebuilt from
    the descriptions of the outliers the program listed."""
    errors: list[str] = []
    _, rows = read_csv_rows(out / "outliers_z_alpha.csv")
    values = sorted((r["z_alpha"] for r in expected["maps"]), reverse=True)
    allowed = int(top_fraction * len(values))
    cut = values[allowed] if allowed < len(values) else -math.inf
    strict = sum(1 for v in values if v > cut + 1e-9)
    loose = sum(1 for v in values if v > cut - 1e-9)
    if not strict <= len(rows) <= loose:
        errors.append(f"outliers: {len(rows)} maps, want {strict}..{loose}")
    nodes, edges = word_graph(
        [descriptions[r[0]] for r in rows if r[0] in descriptions], stopwords
    )
    _, word_rows = read_csv_rows(out / "textnet_z_alpha_word_frequencies.csv")
    if {w: int(c) for w, c in word_rows} != dict(nodes):
        errors.append(f"word frequencies: {len(word_rows)} words, want {len(nodes)}")
    _, edge_rows = read_csv_rows(out / "textnet_z_alpha_edges.csv")
    if {(a, b): int(w) for a, b, w in edge_rows} != dict(edges):
        errors.append(f"edges: {len(edge_rows)} edges, want {len(edges)}")
    _, cent_rows = read_csv_rows(out / "textnet_z_alpha_centrality.csv")
    norm = math.fsum(float(c) ** 2 for _, c in cent_rows)
    if len(cent_rows) != len(nodes) or abs(norm - 1.0) > 1e-4:
        errors.append(f"centrality: {len(cent_rows)} words, squared norm {norm}")
    return errors
