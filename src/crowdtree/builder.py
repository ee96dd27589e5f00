"""Decision tree construction: greedy metric-driven, random, and exhaustive.

The greedy and random builders share one level loop, :func:`_grow`, which
does each level's common work once: it lists the still-ambiguous (open)
blocks, finds the tests applicable to each, and names an inseparable pair
for the first block with none (:func:`_inseparable_error`). Only then does
the builder's own choice function pick one applicable test per open block,
until every block is a singleton. Each level splits every open block into
two non-empty halves, so a build ends within classes - 1 levels. The greedy
choice is joint across the level's blocks and scored by the configured
metric. Both metrics are sums over blocks of one point per (block,
applicable test): h, the mass times entropy of the two sub-blocks, and one
mass, which is the error mass g under the additive metric and the correct
mass c under the multiplicative one. The choice is exact without
enumerating the cross product: Dinkelbach's iteration for the additive
ratio, a walk along the lower-left hull of the Minkowski sum of the
per-block points for the multiplicative product. Under one scalar error
every point of a block carries the same mass, so both choices take each
block's least-h point, the lowest test index on equal h, and the greedy
tree does not depend on the error; :func:`crowdtree.simulate.sweep_error`
builds it once. The additive selector takes that point outright in a block
of one mass, so that rounding in its key h + lam * g cannot tie points
whose h differ.

Both builders read what does not change between levels from one
:class:`_Cells` per build, or per table for random builds and the
designed build of :func:`crowdtree.simulate.sweep_error`, which share it:
bit masks of the cells answering 1 and of the undefined ones, the outcome
rows and, for a greedy build, the products ``p·e`` (additive) or
``p·(1−e)`` (multiplicative) of every cell, made by numpy with the same
bits as Python's ``*``, and the screen's per-class rows made from them by
the first screened level, so a build whose levels are all scored point by
point never makes them. A test applies to a block when it is defined for
every member and answers 1 for some but not all of them. Each chosen block
is split once, and that split makes both the next level's blocks and the
tree's node, which :func:`_assemble` makes from the build's levels of
splits, the shape of a compiled tree's levels;
:func:`crowdtree.simulate.sweep_error` scores the splits without it. A
greedy build's per-level figures come from its own levels: each level's
entropy is the sum its choice made, and only the masses are summed again
(:func:`crowdtree.metrics._level_figures`, which
:func:`crowdtree.metrics.level_quantities` also uses), so no compile is
made.

Scoring. The exact value of a point is :func:`_block_points`'s: the mass
is ``fsum`` of the block's products, picked out at C level, and h comes
from :func:`crowdtree.metrics._entropy_term` once per split of the block,
since many tests split a block the same way. It is the one source of every
value a selector compares, but on a large level most points never need
it. A level whose open blocks hold fewer than ``_SCREEN_FROM`` (member,
applicable test) pairs, as every level of a 12-class table with at most
21 tests does, is scored point by point: there the screen's fixed cost,
a few dozen NumPy calls, exceeds the exact scoring it saves. On a larger level,
:func:`_screen` takes the open blocks' members' rows of the class-major
``_Cells.screen``, in the columns from the least to the greatest test
that applies to some block, and of ``_Cells.whole``, and sums them per
block (``np.add.reduceat`` along the class axis). It gives, as flat
arrays with one entry per applicable point, its block, its test, its
mass~ (g~ or c~) and, from the masses M0 and M1 of its two sides, h~ =
E_B − (M_B·log2 M_B − M0·log2 M0 − M1·log2 M1), computed as E_B +
M0·log2(M0/M) + M1·log2(M1/M) with M = M0 + M1 so that nothing cancels;
E_B is the block's exact entropy term and M_B its prior mass. Each
screened value lies within delta = 64·u·n_B·(E_B + M_B) of the exact one,
with u = 2^-53 and n_B the block's size: to first order, with log2 within
two units in the last place, the two differ by at most
12·u·n_B·(E_B + M_B), and the tests hold them within delta / 16. Only the
points that can still win under delta are scored exactly, picked by
masked segment reductions over the block bounds (``np.minimum.reduceat``,
a per-point threshold and ``nonzero``); Python makes a :class:`_Point`
only for them:

- additive: each block's first point, which sets lam; its first
  error-free point (a g~ of 0 is exact, a sum of products that are all 0);
  the points that decide the one-mass rule on exact masses: where every
  member's products agree over tests, so that all masses do, those whose
  h~ lies within 2 delta of the least, else a point whose g~ lies more
  than 2 delta from the first's or, if none does, all points; and in each
  Dinkelbach round the points whose key h~ + lam·g~ lies within
  4 (1 + lam) delta of the block's least, or every point where a key
  could overflow;
- multiplicative: every point but those an earlier point dominates with
  margin (its c~ lower by more than 2 delta, and its h~ too or its split
  the same), which :func:`_lower_left_hull` would skip; so the unchanged
  walk sees every vertex of each block's hull, each with its lowest test
  index. The witness of a point is the first least-c~ point before it in
  (block, h~, c~, test) order, a segmented running minimum; the test
  masks are compared only for points that tie their witness's h~ in a
  block of three or more classes.

The closed form does not replace :func:`crowdtree.metrics._entropy_term`:
``np.log2`` and ``math.log2`` differ in the last bit on some inputs, and
``fsum`` has no numpy form, so its values round differently from the
bits that the greedy trees, their tie-breaks and level figures rest on.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import accumulate, chain, combinations, compress, count
from operator import add, and_, attrgetter, itemgetter, mul, not_, or_
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import InseparableClasses, InstanceTooLarge
from .metrics import (
    LevelQuantities,
    Metric,
    MetricConfig,
    _entropy_term,
    _level_figures,
    _open_entropy,
    exact_correct,
    exact_misclassification,
    metric_additive,
    metric_multiplicative,
)
from .model import (
    Block,
    DecisionTree,
    Internal,
    Leaf,
    Node,
    Partition,
    TestTable,
    _compile,
    applicable_tests,
    split_block,
)


@dataclass(frozen=True)
class BuilderConfig:
    metric: MetricConfig = field(default_factory=MetricConfig)


@dataclass(frozen=True)
class GreedyResult:
    tree: DecisionTree
    levels: tuple[LevelQuantities, ...]
    _splits: list = field(default_factory=list, repr=False, compare=False)  # the _grow levels


def _inseparable_error(cells: _Cells, block: Block) -> InseparableClasses:
    """Name an offending pair: the first two block members, in
    ``itertools.combinations`` order, that no single test tells apart.
    Classes i and j are told apart by the tests defined for both on which
    one answers 1 and the other 0, the bits of
    ``(one[i] ^ one[j]) & ~(undefined[i] | undefined[j])``."""
    one, undefined, classes = cells.tests_one, cells.tests_undefined, cells.table.classes
    for i, j in combinations(block, 2):
        if not (one[i] ^ one[j]) & ~(undefined[i] | undefined[j]):
            return InseparableClasses(
                f"classes {classes[i]!r} and {classes[j]!r} are not separated by any test"
            )
    names = [classes[i] for i in block]
    return InseparableClasses(
        f"no applicable test splits the group {names}; classes "
        f"{names[0]!r} and {names[1]!r} stay together"
    )


class _Point(NamedTuple):
    test: int  # test index, the tie-break key
    h: float  # mass times entropy of the two sub-blocks
    mass: float  # the error mass g (additive) or the correct mass c (multiplicative)


def _select_additive(
    points: list[list[_Point]],
    h_before: float,
    narrow: Callable[[float], list[list[_Point]]] | None = None,
) -> list[_Point]:
    """The additive level choice from ``points[k]``, open block k's points
    in test order as :func:`_block_points` scores them; the sums below run
    over one chosen point per block.

    Dinkelbach's iteration on (h_before - sum h) / sum g, a point's mass
    being its g. Each round takes, per block, the argmax of (H_b - h) - lam * g,
    where H_b is the block's own entropy term, so the argmin of h + lam * g;
    ties go to the lowest index.
    Once lam stops rising, that argmax is the lexicographically smallest
    optimum. A block whose points all carry one g takes its least-h point,
    the lowest index on equal h, in every round: that is the argmin for any
    lam, and taking it outright keeps rounding in h + lam * g from tying
    points whose h differ. Under one scalar error every block is such a
    block, so the choice does not depend on the error.

    ``narrow(lam)``, when given, lists per block the points among which a
    round at lam takes its argmin, in test order; the default is ``points``.
    The screened level choice passes the points that can still be the argmin
    there, which include every one whose key is least."""
    error_free = [next((p for p in pts if p.mass == 0.0), None) for pts in points]
    if None not in error_free:
        return error_free  # the level scores +inf

    def ratio(choice: list[_Point]) -> float:
        g = math.fsum(p.mass for p in choice)
        # a left fold, not sum(), which compensates from Python 3.12 and would move tie-breaks
        return metric_additive(h_before - reduce(add, (p.h for p in choice), 0.0), g)

    one_mass = [min(pts, key=attrgetter("h")) if all(p.mass == pts[0].mass for p in pts)
                else None for pts in points]
    lam = ratio([pts[0] for pts in points])
    while True:
        rounds = points if narrow is None else narrow(lam)
        choice = [min(pts, key=lambda p: p.h + lam * p.mass) if least is None else least
                  for pts, least in zip(rounds, one_mass)]
        value = ratio(choice)
        if not value > lam:
            return choice
        lam = value


def _lower_left_hull(points: list[_Point]) -> list[_Point]:
    """Lower-left convex hull of the (h, mass) points, from least h to least
    mass; a repeated point keeps its lowest test index."""
    hull: list[_Point] = []
    for p in sorted(points, key=lambda p: (p.h, p.mass, p.test)):
        if hull and p.mass >= hull[-1].mass:
            continue  # dominated
        while len(hull) > 1 and (hull[-1].h - hull[-2].h) * (p.mass - hull[-2].mass) <= (
            hull[-1].mass - hull[-2].mass
        ) * (p.h - hull[-2].h):
            hull.pop()
        hull.append(p)
    return hull


def _select_multiplicative(
    points: list[list[_Point]], entropy_before: float, singleton_mass: float, offset: float
) -> list[_Point]:
    """The multiplicative level choice from the same per-block points as
    :func:`_select_additive`, where a point's mass is its c.

    Minimize (sum h + offset) * (sum c + singleton mass). The product is
    quasi-concave and rises in both sums, so the optimum is a vertex of the
    lower-left hull of the Minkowski sum of the per-block points; walk that
    hull by merging the per-block hull edges by slope."""
    hulls = [_lower_left_hull(pts) for pts in points]
    edges = [[((b.mass - a.mass) / (b.h - a.h), k, b) for a, b in zip(hull, hull[1:])]
             for k, hull in enumerate(hulls)]
    choice = [hull[0] for hull in hulls]
    vertices = [list(choice)]
    for _, k, p in heapq.merge(*edges, key=lambda edge: edge[0]):
        choice[k] = p
        vertices.append(list(choice))

    def score(choice: list[_Point]) -> float:
        correct = math.fsum([*(p.mass for p in choice), singleton_mass])
        h_after = reduce(add, (p.h for p in choice), 0.0)  # a left fold, as in ratio()
        return metric_multiplicative(entropy_before, h_after, correct, offset)

    return max(vertices, key=lambda choice: (score(choice), [-p.test for p in choice]))


class _Cells(NamedTuple):
    """What the builders read of a table, made once per build."""

    priors: tuple[float, ...]
    ones: list[int]  # per test, the mask of the classes answering 1 (bit i: class i)
    tests_one: list[int]  # per class, the mask of the tests answering 1 (bit m: test m)
    tests_undefined: list[int]  # per class, the mask of the tests undefined for it
    outcomes: list[bytes]  # per test, each class's outcome; -1 reads 255
    mass: list[memoryview]  # per test, p * e (additive) or p * (1 - e) by class
    products: np.ndarray | None  # per test and class, what ``mass`` holds
    table: TestTable
    screen: list[np.ndarray]  # what :func:`_screen` sums, made by its first call; see _screen_rows


def _masks(cells: np.ndarray) -> list[int]:
    """Per row of a boolean array, the mask of its true cells."""
    packed = np.packbits(cells, axis=1, bitorder="little")
    rows, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(rows[k : k + width], "little") for k in range(0, len(rows), width)]


def _cells(table: TestTable, metric: Metric | None = None) -> _Cells:
    """The mass products of ``metric``, none without one, and the screen's
    rows made from them are elementwise IEEE operations, with the same bits
    as ``table.priors[i] * float(table.errors[m, i])`` or its complement."""
    ones = table.outcomes == 1
    rows, n = table.outcomes.tobytes(), table.n_classes
    mass, products = [], None
    if metric is not None:
        errors = table.errors if metric is Metric.ADDITIVE else 1.0 - table.errors
        products = np.asarray(table.priors) * errors
        mass = [memoryview(row) for row in products]
    outcomes = [rows[k : k + n] for k in range(0, len(rows), n)]
    undefined = _masks(table.outcomes.T < 0)
    return _Cells(
        table.priors, _masks(ones), _masks(ones.T), undefined, outcomes, mass, products, table, []
    )


def _screen_rows(cells: _Cells) -> list[np.ndarray]:
    """[screen, whole], class-major, so that a level sums each block's
    members along the first axis. ``screen[i, m]`` is [p_i if test m
    answers 1 else 0 | p_i if m answers 0 else 0 | the mass product
    ``products[m, i]``, NaN where undefined]; ``whole[i]`` is [p_i | 1 if
    i's defined products differ between tests else 0]. The first call
    makes them and keeps them in ``cells.screen``, so a build none of whose
    levels is screened never holds them."""
    if not cells.screen:
        table, products, priors = cells.table, cells.products, np.asarray(cells.priors)
        screen = np.empty((table.n_classes, table.n_tests, 3))
        np.multiply(priors[:, None], table.outcomes.T == 1, out=screen[:, :, 0])
        np.multiply(priors[:, None], table.outcomes.T == 0, out=screen[:, :, 1])
        screen[:, :, 2] = products.T
        whole = np.empty((table.n_classes, 2))
        whole[:, 0] = priors
        whole[:, 1] = np.fmin.reduce(products, axis=0) != np.fmax.reduce(products, axis=0)
        cells.screen[:] = screen, whole
    return cells.screen


def _applicable(cells: _Cells, block: Block) -> list[int]:
    """The tests applicable to ``block``, in test order: defined for every
    member, answering 1 for some member but not for all."""
    pick = itemgetter(*block)
    ones = pick(cells.tests_one)
    fit = reduce(or_, ones) & ~(reduce(and_, ones) | reduce(or_, pick(cells.tests_undefined)))
    return [*compress(count(), bin(fit)[:1:-1].encode().translate(_BITS))]  # lowest bit first


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # the digits of bin() as the bytes 0 and 1


def _block_points(
    cells: _Cells, block: Block, tests: list[int], h_of: dict | None = None
) -> list[_Point]:
    """One point per test of ``tests``, each applicable to ``block``, in
    their order. The test's ones on the block fix both sub-blocks, so h is
    computed once per split, from the block's priors, and kept in ``h_of``
    for later calls on the block."""
    mask = sum(map((1).__lshift__, block))
    pick = itemgetter(*block)
    priors = pick(cells.priors)
    h_of = {} if h_of is None else h_of
    points = []
    for m in tests:
        ones = cells.ones[m] & mask
        h = h_of.get(ones)
        if h is None:
            side = pick(cells.outcomes[m])
            h = _entropy_term([*compress(priors, map(not_, side))])
            h += _entropy_term([*compress(priors, side)])
            h_of[ones] = h_of[mask ^ ones] = h  # the mirror split sums the same terms
        points.append(_Point(m, h, math.fsum(pick(cells.mass[m]))))
    return points


_ULP = 2.0**-53  # u, the unit roundoff of a float64
_SLACK = 64  # delta = _SLACK * u * n_B * (E_B + M_B)


class _Screen(NamedTuple):
    """One level's screen: one approximate point per (open block, applicable
    test) pair, blocks in partition order and tests in order within each."""

    block: np.ndarray  # per point, the index of its block
    test: np.ndarray  # per point, its test index
    split: np.ndarray  # per point, h~ - E_B: h~ less its block's exact entropy term
    mass: np.ndarray  # per point, g~ or c~
    bounds: np.ndarray  # block k's points are [bounds[k], bounds[k + 1])
    size: np.ndarray  # per block, its number of classes
    delta: np.ndarray  # per block, the bound delta on |h~ - h| and |mass~ - mass|
    proven: np.ndarray  # per block, whether every member's mass products agree over tests


def _screen(
    cells: _Cells, blocks: list[Block], terms: list[float], applicable: list[list[int]]
) -> _Screen:
    """The screen of a level whose open blocks are ``blocks``, with exact
    entropy terms ``terms`` and applicable tests ``applicable``, none
    empty, from one sum per block over its members' rows of
    :func:`_screen_rows`, in the columns from the least to the greatest
    test that applies to some block: see the module docstring."""
    sizes, counts = [*map(len, blocks)], [*map(len, applicable)]
    lo = min([tests[0] for tests in applicable])
    hi = max([tests[-1] for tests in applicable]) + 1
    members = np.fromiter(chain.from_iterable(blocks), np.intp, sum(sizes))
    offsets = np.fromiter(accumulate(sizes[:-1], initial=0), np.intp, len(sizes))
    rows, whole = _screen_rows(cells)
    sums = np.add.reduceat(rows[:, lo:hi][members], offsets)
    whole = np.add.reduceat(whole[members], offsets)
    block = np.arange(len(blocks)).repeat(counts)
    test = np.fromiter(chain.from_iterable(applicable), np.intp, len(block))
    points = sums[block, test - lo]
    sides = points[:, :2]
    by_side = sides / sides.sum(axis=1, keepdims=True)
    np.log2(by_side, out=by_side)
    by_side *= sides
    size = np.array(sizes)
    delta = _SLACK * _ULP * size * (whole[:, 0] + terms)
    split, bounds = by_side[:, 0] + by_side[:, 1], np.array([*accumulate(counts, initial=0)])
    return _Screen(block, test, split, points[:, 2], bounds, size, delta, whole[:, 1] == 0.0)


def _by_block(indices: np.ndarray, bounds: np.ndarray) -> list[list[int]]:
    """The sorted point ``indices`` of a screen with block ``bounds``, split
    by block."""
    cuts, flat = indices.searchsorted(bounds).tolist(), indices.tolist()
    return [flat[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _near_least_h(screen: _Screen, split: np.ndarray) -> np.ndarray:
    """Per point, whether its h~ lies within 2 delta of its block's least:
    every point whose exact h can be the least. ``split`` holds the points'
    h~ - E_B in screen order or in any order within each block."""
    least = np.minimum.reduceat(split, screen.bounds[:-1]) + 2.0 * screen.delta
    return split <= least[screen.block]


def _additive_points(screen: _Screen) -> list[list[int]]:
    """Per block, the points of a screened level that
    :func:`_select_additive` must see before its first round, as indices
    into the screen: the first, which sets lam; the first error-free one (a
    g~ of 0 is exact: it sums products that are all 0); and those that
    decide the one-mass rule as all points would. A proven block adds the
    points of :func:`_near_least_h`. Another block adds its first point
    whose g~ lies farther than 2 delta from the first point's, as their
    exact masses differ, or else all its points."""
    split, mass, block, first = screen.split, screen.mass, screen.block, screen.bounds[:-1]
    n, at = len(block), np.arange(len(block))
    far = np.abs(mass - mass[first][block]) > (2.0 * screen.delta)[block]
    firsts = np.minimum.reduceat(np.where(far, at, n), first)  # per block its first far point, or n
    keep = (firsts == n)[block]  # a proven block's g~ agree bit for bit: it has no far point
    if np.count_nonzero(screen.proven):
        keep = np.where(screen.proven[block], _near_least_h(screen, split), keep)
    keep[first] = True
    keep[firsts[firsts < n]] = True
    if np.count_nonzero(mass == 0.0):  # each block's first error-free point
        firsts = np.minimum.reduceat(np.where(mass == 0.0, at, n), first)
        keep[firsts[firsts < n]] = True
    return _by_block(keep.nonzero()[0], screen.bounds)


def _narrow(screen: _Screen, lam: float) -> list[list[int]]:
    """Per block, the points among which a round of
    :func:`_select_additive` at ``lam`` takes its argmin, as indices into
    the screen: those whose key h~ + lam * g~ lies within 4 (1 + lam) delta
    of the block's least. Each key lies within 2 (1 + lam) delta of its
    exact one, rounding included, so these hold every point whose exact key
    can be least. Where a key could overflow, every point. A proven block
    gets none: the selector takes its least-h point outright."""
    kept = ~screen.proven[screen.block]
    if math.isfinite(4.0 * lam):
        keys = screen.split + lam * screen.mass
        least = np.minimum.reduceat(keys, screen.bounds[:-1]) + 4.0 * (1.0 + lam) * screen.delta
        kept &= keys <= least[screen.block]
    return _by_block(kept.nonzero()[0], screen.bounds)


def _multiplicative_points(cells: _Cells, blocks: list[Block], screen: _Screen) -> list[list[int]]:
    """Per block, points whose exact values include every vertex of the
    block's lower-left hull, with its lowest test index, as indices into
    the screen. A proven block keeps the points of :func:`_near_least_h`.
    Any other block drops each point that its witness, the first least-c~
    point before it in (h~, c~, test) order, dominates with margin: the
    witness's c~ is lower by more than 2 delta, and either its h~ is too or
    it has the same split, up to the mirror, under which
    :func:`_block_points` shares h. A dropped point's exact h is no lower
    than its witness's and its exact c higher, so :func:`_lower_left_hull`
    skips it, and leaving it out changes no step of the hull.

    In that order a point is a witness when its c~ lies below every earlier
    one of its block. A running minimum of (-block, c~), compared as complex
    numbers are, real part first, gives each point the least c~ before it
    in its block. Two points of one split have the same h~, bit for bit,
    and every test applicable to a block of two splits it the same way;
    only in a larger block does a point whose h~ equals its witness's need
    :func:`_same_split`."""
    order = np.lexsort((screen.mass, screen.split, screen.block))
    split, mass, block, n = screen.split[order], screen.mass[order], screen.block, len(order)
    running = mass * 1j  # (-block, c~), least first
    running -= block
    np.minimum.accumulate(running, out=running)
    least = running.imag  # the least c~ of each point's block up to the point
    falls = np.empty(n, bool)  # where the least falls: the witnesses
    falls[0] = True
    np.not_equal(running[1:], running[:-1], out=falls[1:])
    witness = np.maximum.accumulate(np.where(falls, np.arange(n), 0))  # each point's last one
    margin, lower = (2.0 * screen.delta)[block], split[witness]
    same = lower == split  # only these can share their witness's split
    drop = (least < mass - margin) & ((lower < split - margin) | same)
    pairs = (drop & same & (screen.size[block] > 2)).nonzero()[0]
    if pairs.size:
        tests = screen.test[order[pairs]], screen.test[order[witness[pairs]]]
        drop[pairs] = _same_split(cells, blocks, block[pairs], *tests)
    if np.count_nonzero(screen.proven):
        drop = np.where(screen.proven[block], ~_near_least_h(screen, split), drop)
    kept = order[~drop]
    kept.sort()
    return _by_block(kept, screen.bounds)


def _same_split(
    cells: _Cells, blocks: list[Block], block: np.ndarray, tests: np.ndarray, others: np.ndarray
) -> list[bool]:
    """Whether the test of each of ``tests``, applicable to the open block
    of index ``block`` at the same place, splits it as the test of
    ``others`` there does, up to the mirror."""
    masks: dict[int, int] = {}
    same = []
    for k, m, w in zip(block.tolist(), tests.tolist(), others.tolist()):
        mask = masks.get(k)
        if mask is None:
            mask = masks[k] = sum(map((1).__lshift__, blocks[k]))
        ones, other = cells.ones[m] & mask, cells.ones[w] & mask
        same.append(ones == other or ones == mask ^ other)
    return same


def _choose_level_assignment(
    cells: _Cells,
    config: BuilderConfig,
    partition: Partition,
    blocks: list[Block],
    applicable: list[list[int]],
    entropies: list | None = None,
) -> list[int]:
    """One test index per open block of ``partition``, ``blocks`` in
    partition order, from the tests ``applicable`` to each, none empty,
    exactly maximizing the level metric; ties go to the lexicographically
    smallest test indices. Appends the partition's
    :func:`crowdtree.metrics.level_entropy`, summed by
    :func:`crowdtree.metrics._open_entropy`, to ``entropies``.

    A level whose open blocks hold fewer than ``_SCREEN_FROM`` (member,
    applicable test) pairs scores every point exactly: there the screen
    costs more than the exact scoring it saves. A larger level's screen
    picks, per block, the tests that can still win, and only those are
    scored exactly (:func:`_screened_points`). Both give the same choice."""
    terms, entropy_before = _open_entropy(cells.priors, blocks)
    if entropies is not None:
        entropies.append(entropy_before)
    if sum(map(mul, map(len, blocks), map(len, applicable))) < _SCREEN_FROM:
        points = [_block_points(cells, b, tests) for b, tests in zip(blocks, applicable)]
        narrow = None
    else:
        points, narrow = _screened_points(cells, config, blocks, terms, applicable)
    if config.metric.kind is Metric.ADDITIVE:
        choice = _select_additive(points, entropy_before, narrow)
    else:
        singletons = math.fsum(cells.priors[b[0]] for b in partition if len(b) == 1)
        offset = config.metric.ratio_offset
        choice = _select_multiplicative(points, entropy_before, singletons, offset)
    return [p.test for p in choice]


_SCREEN_FROM = 256  # the (member, applicable test) pairs of a level worth screening


def _screened_points(
    cells: _Cells,
    config: BuilderConfig,
    blocks: list[Block],
    terms: list[float],
    applicable: list[list[int]],
) -> tuple[list[list[_Point]], Callable[[float], list[list[_Point]]] | None]:
    """(points, narrow): per open block, the exactly scored points that a
    selector needs first, and for the additive one the ``narrow`` of
    :func:`_select_additive`, from the level's screen. Each point is
    scored once, by :func:`_block_points`."""
    screen = _screen(cells, blocks, terms, applicable)
    scored: dict[int, _Point] = {}  # by point index
    h_of: list[dict[int, float]] = [{} for _ in blocks]  # per block, h by split
    lows = screen.bounds.tolist()

    def exact(k: int, indices: list[int]) -> list[_Point]:
        """Block k's exact points at the screen's point ``indices``."""
        new = [i for i in indices if i not in scored]
        if new:
            lo, tests = lows[k], applicable[k]
            points = _block_points(cells, blocks[k], [tests[i - lo] for i in new], h_of[k])
            scored.update(zip(new, points))
        return [scored[i] for i in indices]

    if config.metric.kind is not Metric.ADDITIVE:
        base = _multiplicative_points(cells, blocks, screen)
        return [exact(k, indices) for k, indices in enumerate(base)], None
    points = [exact(k, indices) for k, indices in enumerate(_additive_points(screen))]
    proven = screen.proven.tolist()

    def narrow(lam: float) -> list[list[_Point]]:
        return [pts if done else exact(k, indices) for k, (pts, done, indices)
                in enumerate(zip(points, proven, _narrow(screen, lam)))]

    return points, narrow


def _split_level(cells: _Cells, partition: Partition, chosen: list, splits: list) -> Partition:
    """The partition after each open block b, of more than one class, is
    split by the test of index ``chosen[k]``, b being the k-th open block;
    appends (b, that index, zeros, ones), in partition order, to
    ``splits``, the level's list."""
    after: list[Block] = []
    tests = iter(chosen)
    for block in partition:
        if len(block) == 1:
            after.append(block)
            continue
        m = next(tests)
        side = itemgetter(*block)(cells.outcomes[m])
        # tuples made from lists: tuple() of an iterator resizes as it fills
        split = tuple([*compress(block, map(not_, side))]), tuple([*compress(block, side)])
        after += split
        splits.append((block, m, *split))
    return tuple(after)


def _assemble(levels: list[list[tuple]], table: TestTable) -> DecisionTree:
    """The tree of ``levels``, each the list of a level's splits as
    :func:`_split_level` makes it: built from the last level back, so that
    a block's two halves are nodes before it."""
    node_of: dict[Block, Node] = {(i,): Leaf(c) for i, c in enumerate(table.classes)}
    for level in reversed(levels):
        for block, m, zeros, ones in level:
            node_of[block] = Internal(table.tests[m], node_of[zeros], node_of[ones])
    return DecisionTree(node_of[table.all_classes_block()])


def _grow(table: TestTable, cells: _Cells, choose) -> list[list[tuple]]:
    """Per level, the splits of the tree grown level by level from the
    one-block partition, as :func:`_split_level` lists them, the shape of a
    compiled tree's ``levels``; :func:`_assemble` makes the tree of them.
    The loop does each level's work that both builders share: it lists the
    open blocks, of more than one class, in partition order, finds the
    tests applicable to each (:func:`_applicable`) and raises
    :func:`_inseparable_error` for the first with none. Only then does
    ``choose(partition, blocks, tests)`` give one test index per open
    block, in their order; each block is split by its test, until every
    block is a singleton."""
    partition: Partition = (table.all_classes_block(),)
    levels: list[list[tuple]] = []
    while blocks := [b for b in partition if len(b) > 1]:
        tests = [_applicable(cells, b) for b in blocks]
        if [] in tests:
            raise _inseparable_error(cells, blocks[tests.index([])])
        levels.append([])
        partition = _split_level(cells, partition, choose(partition, blocks, tests), levels[-1])
    return levels


def build_greedy(table: TestTable, config: BuilderConfig | None = None) -> GreedyResult:
    """Construct a tree level by level under the configured metric.

    Every non-singleton block receives a test at every level; construction
    ends when all blocks are singletons. Deterministic for a given table and
    config. The result carries each level's quantities under the config's
    ratio offset, as :func:`crowdtree.metrics.level_quantities` gives them
    for the tree: each level's entropy is the one its choice summed, and
    only the masses are summed again, so no compile is made here. It also
    carries the levels of splits the tree is assembled from, which the
    ``build`` report's exact pass reads in place of a compile.
    """
    config = config or BuilderConfig()
    entropies: list[float] = []
    levels = _greedy_splits(table, config, _cells(table, config.metric.kind), entropies)
    entropies.append(0.0)  # the last level leaves only singletons
    figures = _level_figures(table, levels, entropies, config.metric.ratio_offset)
    return GreedyResult(_assemble(levels, table), tuple(figures), levels)


def _greedy_splits(
    table: TestTable, config: BuilderConfig, cells: _Cells, entropies: list | None = None
) -> list[list[tuple]]:
    """The :func:`_grow` levels of :func:`build_greedy`'s tree, from
    ``cells``, the table's :func:`_cells` under the config's metric, which
    :func:`_random_splits` can share; appends each level's entropy to
    ``entropies``, if given."""
    choose = partial(_choose_level_assignment, cells, config, entropies=entropies)
    return _grow(table, cells, choose)


def build_random(table: TestTable, seed: int) -> DecisionTree:
    """Tree with a uniformly random applicable test at every block.

    Blocks are visited level by level in partition order, so a given seed
    reproduces the same tree bit for bit.
    """
    return _assemble(_random_splits(table, seed, _cells(table)), table)


def _random_splits(table: TestTable, seed: int, cells: _Cells) -> list[list[tuple]]:
    """The :func:`_grow` levels of :func:`build_random`'s tree, from
    ``cells``, the table's :func:`_cells`, which any number of seeds can
    share."""
    rng = random.Random(seed)

    def choose(_partition, _blocks, applicable: list[list[int]]) -> list[int]:
        return [tests[rng.randrange(len(tests))] for tests in applicable]

    return _grow(table, cells, choose)


_DEFAULT_MAX_CLASSES = 5
_DEFAULT_MAX_TESTS = 5


def enumerate_trees(
    table: TestTable,
    max_classes: int = _DEFAULT_MAX_CLASSES,
    max_tests: int = _DEFAULT_MAX_TESTS,
) -> Iterator[DecisionTree]:
    """Yield every distinct valid tree for a small instance.

    Recursion never needs to track used tests: once a test splits a block,
    it is constant on both halves and therefore never applicable below.
    """
    if table.n_classes > max_classes or table.n_tests > max_tests:
        raise InstanceTooLarge(
            f"{table.n_classes} classes / {table.n_tests} tests exceeds the "
            f"{max_classes}/{max_tests} enumeration bound"
        )
    memo: dict[Block, list[Node]] = {}

    def block_trees(block: Block) -> list[Node]:
        if len(block) == 1:
            return [Leaf(table.classes[block[0]])]
        cached = memo.get(block)
        if cached is not None:
            return cached
        out: list[Node] = []
        for test_id in applicable_tests(table, block):
            zeros, ones = split_block(table, block, test_id)
            for zt in block_trees(zeros):
                for ot in block_trees(ones):
                    out.append(Internal(test_id, zt, ot))
        memo[block] = out
        return out

    for root in block_trees(table.all_classes_block()):
        yield DecisionTree(root)


class Objective(enum.Enum):
    EXACT_PM = "exact-pm"  # minimize misclassification probability
    EXACT_PC = "exact-pc"  # maximize correct-classification probability


def _level_test_key(tree: DecisionTree, table: TestTable) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(m for _, m, _, _ in level) for level in _compile(tree, table).levels)


def best_tree_exhaustive(
    table: TestTable,
    objective: Objective = Objective.EXACT_PM,
    max_classes: int = _DEFAULT_MAX_CLASSES,
    max_tests: int = _DEFAULT_MAX_TESTS,
) -> tuple[DecisionTree, float]:
    """Globally optimal tree by brute force over :func:`enumerate_trees`.

    Exact-value ties break toward the lexicographically smallest per-level
    test sequence.
    """
    best_tree: DecisionTree | None = None
    best_value = 0.0
    best_key: tuple | None = None
    for tree in enumerate_trees(table, max_classes, max_tests):
        if objective is Objective.EXACT_PM:
            value = exact_misclassification(tree, table)
            better = best_tree is None or value < best_value
        else:
            value = exact_correct(tree, table)
            better = best_tree is None or value > best_value
        key = _level_test_key(tree, table)
        if better or (value == best_value and key < best_key):
            best_tree, best_value, best_key = tree, value, key
    if best_tree is None:
        raise _inseparable_error(_cells(table), table.all_classes_block())
    return best_tree, best_value
