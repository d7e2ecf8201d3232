"""Seeded synthetic GEM corpora for the three benchmark workloads.

Every shape is built with vectorized numpy: per-map structure arrays are
expanded into per-line arrays, each line becomes a fixed-width byte row
``SOURCE(8) ' ' TARGET(8) ' ' FLAG(5) '\\n'`` with unused bytes left 0, and
the zero bytes are dropped to give the file. The same (shape, size, seed)
always gives the same bytes.

The generated files honour every invariant ``parse_gem_file`` and
``group_maps`` enforce: codes are 1-8 characters of [A-Z0-9]; scenario and
choice-list digits number contiguously from 1; no-match maps hold exactly one
sentinel line flagged ``11000`` and nothing else; no regular target equals a
sentinel; sentinels never carry a combination flag.
"""

from __future__ import annotations

import csv
import io

import numpy as np

ALPHABET = np.frombuffer(b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ", dtype=np.uint8)
LETTERS = ALPHABET[10:]
LINE_WIDTH = 24  # source 8, space, target 8, space, flag 5, newline

# Words the description generator mixes in so that tokenization has
# stopwords, residual words, short tokens and digits to drop.
FILLER_WORDS = (
    "of", "the", "and", "with", "without", "due", "to", "in", "other",
    "unspecified", "specified", "nos", "nec", "type", "2", "site",
)


def _cumcount(counts: np.ndarray) -> np.ndarray:
    """0..k-1 within each of the consecutive groups whose sizes are counts."""
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total) - np.repeat(starts, counts)


def _base36_sources(rng, n: int, width: int) -> np.ndarray:
    """n distinct sorted codes of ``width`` characters, first one a letter,
    as an (n, 8) byte matrix."""
    ids = np.sort(rng.choice(26 * 36 ** (width - 1), size=n, replace=False))
    mat = np.zeros((n, 8), dtype=np.uint8)
    for j in range(width - 1, 0, -1):
        mat[:, j] = ALPHABET[ids % 36]
        ids //= 36
    mat[:, 0] = LETTERS[ids]
    return mat


def _numeric_sources(rng, n: int) -> np.ndarray:
    """n distinct ICD-9-like numeric codes of 3-5 digits in string order,
    as an (n, 8) byte matrix."""
    ids = rng.choice(111_000, size=n, replace=False)
    width = np.where(ids < 1_000, 3, np.where(ids < 11_000, 4, 5))
    value = ids - np.where(ids < 1_000, 0, np.where(ids < 11_000, 1_000, 11_000))
    mat = np.zeros((n, 8), dtype=np.uint8)
    for j in range(5):
        place = width - 1 - j
        digit = (value // 10 ** np.maximum(place, 0)) % 10
        mat[:, j] = np.where(place >= 0, ord("0") + digit, 0)
    order = np.argsort(mat.view("S8").ravel(), kind="stable")
    return mat[order]


def _targets(rng, line_map, tw, line_len) -> np.ndarray:
    """Target byte matrix: each map draws a stem and each line rewrites a
    random-length suffix of it, so codes of one map share prefixes as in
    real crosswalks."""
    n_maps = tw.shape[0]
    stems = ALPHABET[rng.integers(0, 36, size=(n_maps, 8))]
    stems[:, 0] = LETTERS[rng.integers(0, 26, size=n_maps)]
    rows = stems[line_map]
    fresh = ALPHABET[rng.integers(0, 36, size=rows.shape)]
    keep = np.maximum(line_len - rng.integers(1, 4, size=line_map.shape[0]), 1)
    col = np.arange(8)[None, :]
    rows = np.where(col >= keep[:, None], fresh, rows)
    rows[col >= line_len[:, None]] = 0
    # A regular target must never read as a no-match sentinel.
    for word in (b"NODX", b"NOPCS"):
        pattern = np.zeros(8, dtype=np.uint8)
        pattern[: len(word)] = np.frombuffer(word, dtype=np.uint8)
        clash = np.all(rows == pattern, axis=1)
        rows[clash, 0] = ord("0")
    return rows


def build_gem(rng, sources, no_match, m0, scen, lists, codes, tw, short_frac, sentinel):
    """Assemble a crosswalk file from per-map structure.

    ``no_match`` marks the maps that get one sentinel line and nothing else;
    ``m0`` is the stand-alone line count; ``scen`` the scenario count per map, ``lists`` the choice-list
    count per scenario (in map order) and ``codes`` the code count per
    choice list. ``tw`` is each map's target width; a ``short_frac`` share of
    regular lines is one character shorter, so maps get padded columns.
    Returns the file bytes.
    """
    n = sources.shape[0]
    maps = np.arange(n)
    # stand-alone lines
    sa_map = np.repeat(maps, m0)
    sa_flag = np.zeros((sa_map.shape[0], 5), dtype=np.uint8)
    sa_flag[:, 0] = rng.integers(0, 2, size=sa_map.shape[0])
    # combination lines: map -> scenario -> choice list -> code
    scen_map = np.repeat(maps, scen)
    scen_no = _cumcount(scen) + 1
    list_scen = np.repeat(np.arange(scen_map.shape[0]), lists)
    list_no = _cumcount(lists) + 1
    line_list = np.repeat(np.arange(list_scen.shape[0]), codes)
    cb_map = scen_map[list_scen[line_list]]
    cb_flag = np.zeros((cb_map.shape[0], 5), dtype=np.uint8)
    cb_flag[:, 0] = 1
    cb_flag[:, 2] = 1
    cb_flag[:, 3] = scen_no[list_scen[line_list]]
    cb_flag[:, 4] = list_no[line_list]
    # no-match lines: one sentinel line per no-match map
    nm_map = maps[no_match]
    nm_flag = np.zeros((nm_map.shape[0], 5), dtype=np.uint8)
    nm_flag[:, :2] = 1

    line_map = np.concatenate([sa_map, cb_map, nm_map])
    flags = np.concatenate([sa_flag, cb_flag, nm_flag])
    order = np.argsort(line_map, kind="stable")
    line_map, flags = line_map[order], flags[order]
    is_nm = no_match[line_map]

    line_len = tw[line_map].copy()
    shorten = (rng.random(line_map.shape[0]) < short_frac) & (line_len > 3)
    line_len[shorten] -= 1
    targets = _targets(rng, line_map, tw, line_len)
    sent = np.zeros(8, dtype=np.uint8)
    sent[: len(sentinel)] = np.frombuffer(sentinel, dtype=np.uint8)
    targets[is_nm] = sent

    rows = np.zeros((line_map.shape[0], LINE_WIDTH), dtype=np.uint8)
    rows[:, 0:8] = sources[line_map]
    rows[:, 8] = ord(" ")
    rows[:, 9:17] = targets
    rows[:, 17] = ord(" ")
    rows[:, 18:23] = flags + ord("0")
    rows[:, 23] = ord("\n")
    flat = rows.ravel()
    return flat[flat != 0].tobytes()


def _combination_shape(rng, n_comb, scen_range, list_range, code_range):
    scen = rng.integers(scen_range[0], scen_range[1] + 1, size=n_comb)
    lists = rng.integers(list_range[0], list_range[1] + 1, size=int(scen.sum()))
    codes = rng.integers(code_range[0], code_range[1] + 1, size=int(lists.sum()))
    return scen, lists, codes


def _mixed_structure(rng, n, p_nomatch, p_comb, m_choices, m_probs, comb_shape):
    """Per-map structure for stand-alone-dominated crosswalks."""
    u = rng.random(n)
    no_match = u < p_nomatch
    is_comb = (u >= p_nomatch) & (u < p_nomatch + p_comb)
    m0 = rng.choice(np.asarray(m_choices), size=n, p=np.asarray(m_probs))
    m0[no_match | is_comb] = 0
    scen = np.zeros(n, dtype=np.int64)
    comb_scen, lists, codes = _combination_shape(rng, int(is_comb.sum()), *comb_shape)
    scen[is_comb] = comb_scen
    return no_match, m0, scen, lists, codes


def narrow_score(rng, n):
    """Backward-GEM shape: mostly 1-3 short rows, ~8% combination maps,
    ~3% no-match."""
    sources = _base36_sources(rng, n, 7)
    no_match, m0, scen, lists, codes = _mixed_structure(
        rng, n, 0.03, 0.08, (1, 2, 3, 4, 5), (0.55, 0.25, 0.12, 0.05, 0.03),
        ((1, 2), (2, 3), (1, 2)),
    )
    tw = rng.integers(3, 8, size=n)
    gem = build_gem(rng, sources, no_match, m0, scen, lists, codes, tw, 0.1, b"NODX")
    return {"gems.txt": gem}


def wide_score(rng, n):
    """Forward-procedure shape at 4x size: every map is a combination map of
    1-4 scenarios x 1-4 choice lists x 1-5 codes, all targets 7 characters."""
    sources = _base36_sources(rng, n, 7)
    no_match = np.zeros(n, dtype=bool)
    m0 = np.zeros(n, dtype=np.int64)
    scen, lists, codes = _combination_shape(rng, n, (1, 4), (1, 4), (1, 5))
    tw = np.full(n, 7)
    gem = build_gem(rng, sources, no_match, m0, scen, lists, codes, tw, 0.0, b"NOPCS")
    covered = np.flatnonzero(rng.random(n) < 0.9)
    probs = rng.random(covered.shape[0])
    names = sources.view("S8").ravel()
    freq = "code,probability\n" + "".join(
        f"{names[i].decode()},{p:.6f}\n" for i, p in zip(covered, probs)
    )
    return {"gems.txt": gem, "frequencies.csv": freq.encode()}


def _pseudo_words(rng, count):
    lengths = rng.integers(4, 11, size=count)
    letters = rng.integers(ord("a"), ord("z") + 1, size=(count, 10)).astype(np.uint8)
    letters[np.arange(10)[None, :] >= lengths[:, None]] = 0
    return [w.decode() for w in letters.view("S10").ravel()]


def _descriptions(rng, n, vocab_size=28_000, zipf_s=1.08):
    """n descriptions of 3-10 tokens: Zipf-ranked pseudo-words mixed with
    filler words and a few commas. The vocabulary size and exponent are set
    so that the ~2,850 outlier descriptions of a 14,567-map corpus hold
    ~3,400 distinct words."""
    vocab = _pseudo_words(rng, vocab_size)
    weights = 1.0 / np.arange(1, vocab_size + 1) ** zipf_s
    lengths = rng.integers(3, 11, size=n)
    total = int(lengths.sum())
    words = rng.choice(vocab_size, size=total, p=weights / weights.sum())
    filler = rng.random(total) < 0.3
    filler_pick = rng.integers(0, len(FILLER_WORDS), size=total)
    tokens = [
        FILLER_WORDS[f] if is_f else vocab[w]
        for w, is_f, f in zip(words.tolist(), filler.tolist(), filler_pick.tolist())
    ]
    comma = (rng.random(total) < 0.05).tolist()
    out = []
    start = 0
    for k in lengths.tolist():
        parts = [t + "," if c else t for t, c in zip(tokens[start:start + k], comma[start:start + k])]
        out.append(" ".join(parts).capitalize())
        start += k
    return out


def classes_textnet(rng, n):
    """Forward-diagnosis shape with ~150 block-level class ranges and a
    Zipf-vocabulary description table."""
    sources = _numeric_sources(rng, n)
    # Enough multi-row maps that the top-fifth z_alpha cut of `textnet` does
    # not fall in a large tie of equal H(A) values; with mostly 1-2 row maps
    # the outlier count jumped between ~1,800 and ~2,800 from seed to seed.
    no_match, m0, scen, lists, codes = _mixed_structure(
        rng, n, 0.02, 0.04, (1, 2, 3, 4, 5, 6), (0.4, 0.22, 0.15, 0.11, 0.07, 0.05),
        ((1, 2), (2, 3), (1, 3)),
    )
    tw = rng.integers(3, 8, size=n)
    gem = build_gem(rng, sources, no_match, m0, scen, lists, codes, tw, 0.1, b"NODX")

    cuts = np.sort(rng.choice(np.arange(1, 1000), size=149, replace=False))
    lows = np.concatenate(([0], cuts))
    highs = np.concatenate((cuts - 1, [999]))
    keep = rng.random(150) >= 0.05  # the dropped blocks leave unclassified maps
    classes = "low,high,label\n" + "".join(
        f"{lo:03d},{hi:03d},Block {lo:03d}-{hi:03d}\n"
        for lo, hi in zip(lows[keep].tolist(), highs[keep].tolist())
    )

    names = [s.decode() for s in sources.view("S8").ravel()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["code", "description"])
    writer.writerows(zip(names, _descriptions(rng, n)))
    return {
        "gems.txt": gem,
        "classes.csv": classes.encode(),
        "descriptions.csv": buf.getvalue().encode(),
    }


SHAPES = {
    "narrow-score": narrow_score,
    "wide-score": wide_score,
    "classes-textnet": classes_textnet,
}


def generate(shape: str, n_maps: int, seed: int) -> dict[str, bytes]:
    """Files of one corpus, by name; identical for identical arguments."""
    rng = np.random.default_rng([seed, n_maps, list(SHAPES).index(shape)])
    return SHAPES[shape](rng, n_maps)
