"""Seeded inputs for the four benchmark workloads.

Every generator takes the workload seed and returns a :class:`Workload`:
a pool of items (one pass of the closed loop runs each item once, in
order) plus the documents the CLI is launched on. Inputs are built from
numpy arrays that the benchmark keeps for itself, so the oracle can
check every answer against those arrays and never against relent's own
compilation of the constraints.

Targets of feasible update requests come from a tilted distribution
p* proportional to prior * exp(F' lam*), where F holds the expectation
and event rows. Conditional-probability and partition targets are read
off p*, so p* meets every constraint and the problems are strictly
interior: no target is exactly 0 or 1 unless a workload asks for a pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

KINDS = ("expectation", "event_prob", "cond_prob", "partition")
#: Range of the share of outcomes in a random event.
EVENT_DENSITY = (0.2, 0.6)


@dataclass
class UpdateItem:
    """One update request: a scenario document and/or prebuilt library objects.

    ``expect`` is "infeasible" for requests built to be infeasible and
    otherwise names the method the request was built for (reported, not
    enforced). ``A``, ``b`` and ``prior`` are the benchmark's own arrays;
    ``exact`` is the known solution p* when the problem was built so
    that p* is the I-projection, else None. ``pinned`` marks requests
    with 0/1 targets, which the yardstick skips.
    """

    expect: str
    prior: np.ndarray
    A: np.ndarray
    b: np.ndarray
    text: str | None = None
    spec: dict | None = None
    objects: Any = None
    exact: np.ndarray | None = None
    pinned: bool = False


@dataclass
class BookItem:
    """A forecast book over the worlds of ``V`` (worlds x events, 0/1)."""

    admissible: bool
    V: np.ndarray
    x: np.ndarray
    text: str = ""
    objects: Any = None


@dataclass
class Workload:
    name: str
    kind: str  # "doc", "library" or "audit": which operation a pass runs
    items: list
    cli: list = field(default_factory=list)  # (subcommand, pool index) pairs
    cli_repeats: int = 5  # launches per CLI document
    build: Callable[[], None] | None = None  # builds library objects (timed as set-up)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _labels(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _prior(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.2, 1.8, n)
    return w / w.sum()


def _tilt(prior: np.ndarray, F: np.ndarray, lam: np.ndarray) -> np.ndarray:
    logits = np.log(prior) + lam @ F
    z = np.exp(logits - logits.max())
    return z / z.sum()


def _members(labels: list[str], mask: np.ndarray) -> list[str]:
    return [labels[i] for i in np.flatnonzero(mask)]


def _random_mask(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    """A nonempty proper subset of range(n)."""
    while True:
        mask = rng.random(n) < density
        if 0 < mask.sum() < n:
            return mask


def _random_cells(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Cell index of each outcome for a partition into k nonempty cells."""
    cell_of = rng.integers(0, k, n)
    cell_of[:k] = np.arange(k)
    return cell_of


@dataclass
class _Rows:
    """Constraints being assembled for one request, with their oracle rows."""

    labels: list[str]
    json: list = field(default_factory=list)
    A: list = field(default_factory=list)
    b: list = field(default_factory=list)

    def expectation(self, f: np.ndarray, value: float) -> None:
        self.json.append({"type": "expectation",
                          "variable": dict(zip(self.labels, f.tolist())), "value": value})
        self.A.append(f)
        self.b.append(value)

    def event_prob(self, mask: np.ndarray, value: float) -> None:
        self.json.append({"type": "event_prob", "event": _members(self.labels, mask),
                          "value": value})
        self.A.append(mask.astype(float))
        self.b.append(value)

    def cond_prob(self, target: np.ndarray, given: np.ndarray, value: float) -> None:
        self.json.append({"type": "cond_prob", "event": _members(self.labels, target),
                          "given": _members(self.labels, given), "value": value})
        self.A.append((target & given).astype(float) - value * given.astype(float))
        self.b.append(0.0)

    def partition(self, cell_of: np.ndarray, weights: np.ndarray) -> None:
        cells = range(len(weights))
        self.json.append({"type": "partition",
                          "cells": [_members(self.labels, cell_of == c) for c in cells],
                          "weights": weights.tolist()})
        self.A.extend((cell_of == c).astype(float) for c in cells)
        self.b.extend(weights.tolist())

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.A, dtype=float), np.array(self.b, dtype=float)


def _tilted_rows(rng, labels, prior, kinds, lam_scale, cells=(2, 6)):
    """Constraints of the given kinds whose targets all come from one tilt p*.

    The tilt acts on the expectation and event rows only, so p* has the
    exponential-family form over the constraint rows with zero
    multipliers on the conditional and partition rows: p* is the
    I-projection of the prior onto the constraint set.
    """
    n = len(labels)
    drawn = []
    for kind in kinds:
        if kind == "expectation":
            drawn.append((kind, np.round(rng.normal(size=n), 6)))
        elif kind == "event_prob":
            drawn.append((kind, _random_mask(rng, n, rng.uniform(*EVENT_DENSITY))))
        elif kind == "cond_prob":
            drawn.append((kind, (_random_mask(rng, n, rng.uniform(*EVENT_DENSITY)),
                                 _random_mask(rng, n, rng.uniform(*EVENT_DENSITY)))))
        else:
            drawn.append((kind, _random_cells(rng, n, int(rng.integers(cells[0], cells[1] + 1)))))
    tilted = [(k, d) for k, d in drawn if k in ("expectation", "event_prob")]
    if tilted and lam_scale > 0.0:
        F = np.array([d.astype(float) for _, d in tilted])
        # a random direction at a fixed length, so that every seed asks for
        # a tilt of the same size and about the same number of Newton steps
        lam = rng.normal(size=len(tilted))
        lam *= lam_scale * np.sqrt(len(tilted)) / np.linalg.norm(lam)
        p_star = _tilt(prior, F, lam)
    else:
        p_star = prior
    rows = _Rows(labels)
    for kind, d in drawn:
        if kind == "expectation":
            rows.expectation(d, float(d @ p_star))
        elif kind == "event_prob":
            rows.event_prob(d, float(d @ p_star))
        elif kind == "cond_prob":
            target, given = d
            rows.cond_prob(target, given, float(p_star[target & given].sum() / p_star[given].sum()))
        else:
            rows.partition(d, np.bincount(d, weights=p_star))
    return rows, p_star


def _document(labels, prior, constraints, queries) -> str:
    doc = {"version": 1, "space": labels, "prior": prior.tolist(),
           "constraints": constraints, "queries": queries}
    return json.dumps(doc)


def _queries(rng, labels) -> list[dict]:
    event = _members(labels, _random_mask(rng, len(labels), 0.3))
    return [{"type": "prob", "event": event}, {"type": "entropy"}]


# ---------------------------------------------------------------------------
# large_update
# ---------------------------------------------------------------------------


def large_update(seed: int) -> Workload:
    """One document with n = 100 000 outcomes and m = 10 constraints."""
    rng = np.random.default_rng([seed, 1])
    n, m = 100_000, 10
    labels = _labels("w", n)
    prior = _prior(rng, n)
    kinds = [KINDS[j % 4] for j in range(m)]
    rows, p_star = _tilted_rows(rng, labels, prior, kinds, lam_scale=0.3, cells=(4, 4))
    A, b = rows.matrices()
    text = _document(labels, prior, rows.json, _queries(rng, labels))
    item = UpdateItem("dual_newton", prior, A, b, text=text, exact=p_star)
    return Workload("large_update", "doc", [item], cli=[("update", 0)], cli_repeats=2)


# ---------------------------------------------------------------------------
# small_batch
# ---------------------------------------------------------------------------

#: Fixed mix of the small-batch pool (400 documents, 5% infeasible).
SMALL_MIX = {"jeffrey": 100, "conditionalization": 90, "no_op": 90,
             "dual_newton": 100, "infeasible": 20}


def _small_doc(rng: np.random.Generator, kind: str, n: int, size: int) -> UpdateItem:
    """One document of ``kind`` with ``n`` outcomes; ``size`` (0, 1, 2, ...)
    sets its cell or row count and variant, so that none depends on the seed."""
    labels = _labels("o", n)
    prior = _prior(rng, n)
    rows = _Rows(labels)
    exact = None
    pinned = False
    if kind == "jeffrey":
        cell_of = _random_cells(rng, n, 2 + size % 5)
        weights = rng.dirichlet(np.ones(cell_of.max() + 1))
        rows.partition(cell_of, weights)
        exact = prior * (weights / np.bincount(cell_of, weights=prior))[cell_of]
    elif kind == "conditionalization":
        mask = _random_mask(rng, n, rng.uniform(0.2, 0.8))
        value = float(size % 2)
        rows.event_prob(mask, value)
        keep = mask if value == 1.0 else ~mask
        exact = np.where(keep, prior, 0.0) / prior[keep].sum()
        pinned = True
    elif kind == "no_op":
        kinds = list(rng.choice(KINDS, size=1 + size % 4))
        rows, exact = _tilted_rows(rng, labels, prior, kinds, lam_scale=0.0)
    elif kind == "dual_newton":
        # the first row is tilted, so the prior does not already meet the targets
        kinds = [KINDS[int(rng.integers(2))]]
        kinds += list(rng.choice(KINDS, size=1 + size % 3))
        rows, exact = _tilted_rows(rng, labels, prior, kinds, lam_scale=1.0)
    else:
        # three certificates that triage finds on its own
        variant = size % 3
        if variant == 0:
            rows.event_prob(_random_mask(rng, n, 0.5), 1.25)
        elif variant == 1:
            f = np.round(rng.normal(size=n), 6)
            rows.expectation(f, float(f.max()) + 0.5)
        else:
            mask = _random_mask(rng, n, 0.3)
            prior = np.where(mask, 0.0, prior)
            prior /= prior.sum()
            rows.event_prob(mask, 0.2)
    A, b = rows.matrices()
    text = _document(labels, prior, rows.json, _queries(rng, labels))
    return UpdateItem(kind, prior, A, b, text=text, exact=exact, pinned=pinned)


def small_batch(seed: int) -> Workload:
    """400 small documents (n 32-256, m 1-4) in a fixed mix of kinds and sizes.

    Each kind's documents have sizes spread evenly over the range; the
    seed sets their order and content only.
    """
    rng = np.random.default_rng([seed, 2])
    docs = [(kind, int(n), size) for kind, count in SMALL_MIX.items()
            for size, n in enumerate(np.linspace(32, 256, count).round())]
    order = rng.permutation(len(docs))
    items = [_small_doc(rng, *docs[i]) for i in order]
    # the CLI runs the middle-sized partition and multi-constraint documents
    middle = {docs[i][0]: index for index, i in enumerate(order)
              if docs[i][2] == SMALL_MIX[docs[i][0]] // 2}
    cli = [("update", middle["jeffrey"]), ("update", middle["dual_newton"])]
    return Workload("small_batch", "doc", items, cli=cli)


# ---------------------------------------------------------------------------
# hard_dual
# ---------------------------------------------------------------------------

#: (outcomes, constraints) of the tilted problems; fixed so that only the
#: content, not the size mix, depends on the seed.
HARD_SIZES = ((2000, 10), (2000, 40), (4000, 100), (6000, 20), (6000, 40), (8000, 60),
              (10000, 10), (10000, 30))


def _hard_kinds(rng: np.random.Generator, m: int) -> list[str]:
    n_exp = min(10, max(1, m // 4))
    n_cond = m // 4
    kinds = ["expectation"] * n_exp + ["cond_prob"] * n_cond
    kinds += ["event_prob"] * (m - len(kinds))
    return [kinds[i] for i in rng.permutation(m)]


def _contingency(rng: np.random.Generator) -> UpdateItem:
    """A 10x10x10 table fitted to all three pairwise marginals of a random table."""
    k = 10
    labels = [f"t{i}{j}{l}" for i in range(k) for j in range(k) for l in range(k)]
    n = len(labels)
    truth = np.exp(rng.normal(0.0, 1.0, n))
    truth /= truth.sum()
    i, j, l = np.unravel_index(np.arange(n), (k, k, k))
    rows = _Rows(labels)
    for cell_of in (i * k + j, i * k + l, j * k + l):
        rows.partition(cell_of, np.bincount(cell_of, weights=truth, minlength=k * k))
    prior = np.full(n, 1.0 / n)
    A, b = rows.matrices()
    return UpdateItem("dual_newton", prior, A, b, spec={"labels": labels, "json": rows.json})


def hard_dual(seed: int) -> Workload:
    """Library-path updates that need many Newton steps, on prebuilt objects."""
    rng = np.random.default_rng([seed, 3])
    items = []
    for n, m in HARD_SIZES:
        labels = _labels("x", n)
        prior = _prior(rng, n)
        rows, p_star = _tilted_rows(rng, labels, prior, _hard_kinds(rng, m), lam_scale=2.0)
        A, b = rows.matrices()
        items.append(UpdateItem("dual_newton", prior, A, b, exact=p_star,
                                spec={"labels": labels, "json": rows.json}))
    items.append(_contingency(rng))

    def build() -> None:
        for item in items:
            item.objects = _library_objects(item)

    cli = [("update", 0), ("update", len(items) - 1)]
    for _, index in cli:
        item = items[index]
        item.text = _document(item.spec["labels"], item.prior, item.spec["json"],
                              [{"type": "entropy"}])
    return Workload("hard_dual", "library", items, cli=cli, build=build)


def _library_objects(item: UpdateItem):
    """Distribution and constraints built straight from the arrays, without parsing."""
    from relent.constraints import CondProb, EventProb, Expectation, PartitionWeights
    from relent.spaces import Distribution, Event, Partition, RandomVariable, SampleSpace

    space = SampleSpace(tuple(item.spec["labels"]))

    def event(members):
        return Event(space, frozenset(members))

    constraints = []
    for c in item.spec["json"]:
        if c["type"] == "expectation":
            values = tuple(c["variable"][x] for x in space.outcomes)
            constraints.append(Expectation(RandomVariable(space, values), c["value"]))
        elif c["type"] == "event_prob":
            constraints.append(EventProb(event(c["event"]), c["value"]))
        elif c["type"] == "cond_prob":
            constraints.append(CondProb(event(c["event"]), event(c["given"]), c["value"]))
        else:
            partition = Partition(tuple(event(cell) for cell in c["cells"]))
            constraints.append(PartitionWeights(partition, tuple(c["weights"])))
    return Distribution(space, tuple(item.prior.tolist())), tuple(constraints)


# ---------------------------------------------------------------------------
# audit_4096
# ---------------------------------------------------------------------------

AUDIT_BITS = 12
AUDIT_DOMINATED = 5
AUDIT_ADMISSIBLE = 8


def audit_4096(seed: int) -> Workload:
    """Forecast books over 2^12 worlds: 12 bit events and 12 conjunctions."""
    rng = np.random.default_rng([seed, 4])
    k = AUDIT_BITS
    worlds = np.arange(2 ** k)
    labels = _labels("w", 2 ** k)
    bits = ((worlds[:, None] >> np.arange(k)) & 1).astype(float)
    pairs = [(a, (a + 1) % k) for a in range(k)]
    conj = np.stack([bits[:, a] * bits[:, c] for a, c in pairs], axis=1)
    V = np.hstack([bits, conj])
    events = [_members(labels, V[:, j] > 0) for j in range(V.shape[1])]

    books = []
    for _ in range(AUDIT_DOMINATED):
        # random forecasts, with one conjunction forecast above a conjunct's:
        # P(a and c) <= P(a) holds on the hull, so the book is outside it
        x = rng.uniform(0.0, 1.0, 2 * k)
        j = int(rng.integers(k))
        a, c = pairs[j]
        x[k + j] = min(x[a], x[c]) + rng.uniform(0.05, 0.3)
        books.append(BookItem(False, V, x))
    for _ in range(AUDIT_ADMISSIBLE):
        # forecasts a distribution over the worlds would announce
        p = rng.dirichlet(np.full(2 ** k, 0.05))
        books.append(BookItem(True, V, p @ V))
    books = [books[i] for i in rng.permutation(len(books))]
    for book in books:
        book.text = json.dumps({
            "version": 1, "space": labels, "prior": "uniform", "constraints": [],
            "forecasts": [{"event": e, "value": v} for e, v in zip(events, book.x.tolist())],
        })

    def build() -> None:
        from relent.coherence import ForecastSystem
        from relent.spaces import Event, SampleSpace

        space = SampleSpace(tuple(labels))
        evs = tuple(Event(space, frozenset(e)) for e in events)
        for book in books:
            book.objects = ForecastSystem(space, evs, tuple(book.x.tolist()))

    last = {b.admissible: index for index, b in enumerate(books)}  # last book of each kind
    return Workload("audit_4096", "audit", books,
                    cli=[("audit", last[True]), ("audit", last[False])], build=build)


WORKLOADS = {
    "large_update": large_update,
    "small_batch": small_batch,
    "hard_dual": hard_dual,
    "audit_4096": audit_4096,
}

