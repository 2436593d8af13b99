"""Seeded scenario configs for the benchmark workloads.

A workload is a list of batches, each a list of configs of the same shape
with its own seeded draws; the benchmark times batches one after another.
The same (workload, seed, scale) always yields the same configs, and the
engine sees nothing but these configs.  ``scale="tiny"`` gives small batches
of the same shape for the self-tests.

Every parameter drawn from the seed comes from a small fixed set, so the
series digests pinned in ``series_digests.json`` cover every config any seed
can produce (see ``series_domain``).
"""

from __future__ import annotations

import random

import numpy

WORKLOADS = ("hk-deep", "lattice-rank", "preset-mix")
SCALES = ("full", "tiny")
BATCHES = {"full": 10, "tiny": 2}

# hk-deep: m_max per half dimension n, sized so that each scenario does about
# 2,000 cone evaluations (the cone count does not depend on q).
HK_DEEP_M_MAX = {1: 14, 2: 10, 3: 7, 4: 6}
HK_Q = (2, 4, 6, 8, 10, 12, 14, 16)
TINY_M_MAX = 3

LATTICE_RANKS = (10, 15, 20, 25, 30)
TINY_RANKS = (4, 6)

# preset-mix parameter sets.
MIX_Q = (2, 4, 6, 8, 10)
SURFACE_KL = (1, 2, 3)
SURFACE_M_MAX = 8
SURFACE_COUNT = 2
HILB_POINTS = range(2, 9)
# Base depth grows with the point count, so the hilb costs form a ladder from
# the cheap kinds up to the presets instead of leaving a gap at the median.
HILB_DEPTH = 2
ENRIQUES_Q = (2, 4, 6, 8)
ENRIQUES_M_MAX = 6
ENRIQUES_HALF_RANK = 4
ENRIQUES_COUNT = 4
ENRIQUES_WORD_LENGTH = 4

# Copies of the engine's four builtin presets, so the inputs stay fixed even
# if the engine's preset table changes.
PRESETS = (
    {"schema_version": 1, "kind": "hk", "n": 1, "q": 10, "m_max": 10},
    {"schema_version": 1, "kind": "hilb", "points": 3,
     "base": {"n": 1, "q": 10, "m_max": 10}},
    {"schema_version": 1, "kind": "hk", "n": 2, "q": 2, "m_max": 8},
    {
        "schema_version": 1,
        "kind": "enriques",
        "cover": {"n": 2, "q": 2, "m_max": 8},
        "lattice": {
            "gram": [[0, 0, -1, 0], [0, 2, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -2]],
            "symmetry_kind": "symmetric",
            "euler_sign": -1,
        },
        "deck": {
            "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
            "order": 2,
        },
        "word": [
            {"kind": "ptwist"},
            {"kind": "tensor",
             "matrix": [[1, 0, 0, 0], [-1, 1, 0, 0], [1, -2, 1, 0], [0, 0, 0, 1]]},
        ],
    },
)


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _unit_upper(rng: random.Random, n: int) -> list[list[int]]:
    return [[1 if i == j else (rng.randint(-1, 1) if j > i else 0)
             for j in range(n)] for i in range(n)]


def _growing_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """A random {-1, 0, 1} matrix whose spectral radius exceeds 1.01, so that
    its log rho is positive and goes through root refinement."""
    while True:
        m = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        if max(abs(numpy.linalg.eigvals(numpy.array(m, dtype=float)))) > 1.01:
            return m


def _hk_deep(rng: random.Random, scale: str) -> list[dict]:
    return [
        {"schema_version": 1, "kind": "hk", "n": n, "q": rng.choice(HK_Q),
         "m_max": TINY_M_MAX if scale == "tiny" else m_max}
        for n, m_max in HK_DEEP_M_MAX.items()
    ]


def _lattice_rank(rng: random.Random, scale: str) -> list[dict]:
    configs = []
    for rank in TINY_RANKS if scale == "tiny" else LATTICE_RANKS:
        lattice = {"gram": identity(rank)}
        configs.append({
            "schema_version": 1, "kind": "lattice_word", "lattice": lattice,
            "word": [{"kind": "explicit", "matrix": _growing_matrix(rng, rank)}],
        })
        configs.append({
            "schema_version": 1, "kind": "lattice_word", "lattice": lattice,
            "word": [
                {"kind": "shift"},
                {"kind": "ptwist"},
                {"kind": "tensor", "matrix": _unit_upper(rng, rank)},
                {"kind": "tensor", "matrix": _unit_upper(rng, rank)},
            ],
        })
    return configs


def _unimodular(rng: random.Random, n: int, steps: int):
    """A seeded unimodular P and its inverse, as products of elementary
    row operations."""
    p, p_inv = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # p <- E p and p_inv <- p_inv E^-1, with E = I + c e_ij.
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return p, p_inv


def _block_diag(a: list[list[int]]) -> list[list[int]]:
    s = len(a)
    return [row + [0] * s for row in a] + [[0] * s + row for row in a]


def _enriques(rng: random.Random, scale: str) -> tuple[dict, dict]:
    """An enriques scenario on a rank-2s lattice whose deck involution swaps
    two copies of a rank-s lattice, in a seeded unimodular basis; plus the
    lattice_word scenario for the same word on the same lattice."""
    s = ENRIQUES_HALF_RANK
    n = 2 * s
    p, p_inv = _unimodular(rng, n, 3 * n)

    def conj(m):
        return matmul(matmul(p, m), p_inv)

    half_gram = [[0] * s for _ in range(s)]
    for i in range(s):
        half_gram[i][i] = 2 * rng.randint(-2, 2)
        for j in range(i + 1, s):
            half_gram[i][j] = half_gram[j][i] = rng.randint(-1, 1)
    p_inv_t = [list(r) for r in zip(*p_inv)]
    gram = matmul(matmul(p_inv_t, _block_diag(half_gram)), p_inv)
    swap = [[int(j == (i + s) % n) for j in range(n)] for i in range(n)]
    tensors = [conj(_block_diag(_unit_upper(rng, s))) for _ in range(2)]
    pool = [{"kind": "shift"}, {"kind": "ptwist"}] + [
        {"kind": "tensor", "matrix": t} for t in tensors
    ]
    word = [rng.choice(pool) for _ in range(ENRIQUES_WORD_LENGTH)]
    lattice = {"gram": gram, "symmetry_kind": "symmetric", "euler_sign": -1}
    cover = {"n": 2, "q": rng.choice(ENRIQUES_Q),
             "m_max": TINY_M_MAX if scale == "tiny" else ENRIQUES_M_MAX}
    return (
        {"schema_version": 1, "kind": "enriques", "cover": cover,
         "lattice": lattice, "deck": {"matrix": conj(swap), "order": 2},
         "word": word},
        {"schema_version": 1, "kind": "lattice_word", "lattice": lattice,
         "word": word},
    )


def _preset_mix(rng: random.Random, scale: str) -> list[dict]:
    tiny = scale == "tiny"
    configs = [] if tiny else [dict(p) for p in PRESETS for _ in range(2)]
    for _ in range(1 if tiny else SURFACE_COUNT):
        configs.append({
            "schema_version": 1, "kind": "surface_twist", "q": rng.choice(MIX_Q),
            "k": rng.choice(SURFACE_KL), "l": rng.choice(SURFACE_KL),
            "m_max": TINY_M_MAX if tiny else SURFACE_M_MAX,
        })
    for points in (2,) if tiny else HILB_POINTS:
        configs.append({
            "schema_version": 1, "kind": "hilb", "points": points,
            "base": {"n": 1, "q": rng.choice(MIX_Q),
                     "m_max": TINY_M_MAX if tiny else points + HILB_DEPTH},
        })
    for _ in range(1 if tiny else ENRIQUES_COUNT):
        configs.extend(_enriques(rng, scale))
    return configs


_BUILDERS = {
    "hk-deep": _hk_deep,
    "lattice-rank": _lattice_rank,
    "preset-mix": _preset_mix,
}


def generate(workload: str, seed: int, scale: str = "full") -> list[list[dict]]:
    """The batches of configs of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    return [
        _BUILDERS[workload](random.Random(f"{workload}/{seed}/{b}"), scale)
        for b in range(BATCHES[scale])
    ]


def series_domain() -> list[dict]:
    """Every config with a series that any seed and scale can produce, up to
    the fields the series depends on."""
    out = [dict(p) for p in PRESETS]
    for q in HK_Q:
        for n, m_max in HK_DEEP_M_MAX.items():
            for m in (m_max, TINY_M_MAX):
                out.append({"kind": "hk", "n": n, "q": q, "m_max": m})
    for q in MIX_Q:
        for k in SURFACE_KL:
            for l in SURFACE_KL:
                for m in (SURFACE_M_MAX, TINY_M_MAX):
                    out.append({"kind": "surface_twist", "q": q, "k": k, "l": l,
                                "m_max": m})
        for points in HILB_POINTS:
            for m in (points + HILB_DEPTH, TINY_M_MAX):
                out.append({"kind": "hilb", "points": points,
                            "base": {"n": 1, "q": q, "m_max": m}})
    for q in ENRIQUES_Q:
        for m in (ENRIQUES_M_MAX, TINY_M_MAX):
            # The series is the cover's; the preset supplies a valid lattice.
            out.append({**PRESETS[3], "cover": {"n": 2, "q": q, "m_max": m}})
    return out
