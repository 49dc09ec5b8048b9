"""Differential tests for the bit-mask pair search.

The reference is the per-pair scan it replaced, kept here in behaviour:
`pair_shares_ok` walks the first shape's classes, and a row-major scan over
every pair (i, j), i <= j, asks it and then `accept` about each pair in turn.
"""

import random
from math import comb

import pytest

from rootedpack.errors import InternalError
from rootedpack.fptcommon import PairSearch, shape_masks


def pair_shares_ok(classes1, classes2, class_ids) -> bool:
    for c, cnt in classes1.items():
        if cnt + classes2.get(c, 0) > len(class_ids(*c)):
            return False
    return True


class RowMajorPairSearch:
    def __init__(self, count, test):
        self.count = count
        self.test = test

    def pairs(self):
        for i in range(self.count):
            for j in range(i, self.count):
                yield (i, j)

    def total(self):
        return self.count * (self.count + 1) // 2

    def rank(self, pair):
        i, j = pair
        return i * self.count - i * (i - 1) // 2 + (j - i) + 1

    def find_first(self):
        for pair in self.pairs():
            if self.test(*pair):
                return pair, self.rank(pair)
        return None, self.total()


def expanded_reference(counts, class_ids) -> int:
    expanded = 0
    for shape in counts:
        combos = 1
        for c, m in shape.items():
            combos *= comb(len(class_ids(*c)), m)
        expanded += combos
    return expanded


def class_table(rng, classes, max_copies, single=0.0):
    """`classes` classes (u, v): a share `single` of them have one copy and
    the others 1..max_copies."""
    sizes = {(u, u + 1): 1 if rng.random() < single else rng.randint(1, max_copies)
             for u in range(classes)}
    return sizes, lambda u, v: tuple(range(sizes[(u, v)]))


def random_shapes(rng, sizes, count, max_classes, unit):
    """`count` shapes over `sizes`: each takes 1..max_classes classes and
    1 copy of each (unit) or 1..min(2, L) copies of a class with L copies."""
    pool = sorted(sizes)
    shapes = []
    for _ in range(count):
        chosen = rng.sample(pool, rng.randint(1, min(max_classes, len(pool))))
        shapes.append({c: 1 if unit else rng.randint(1, min(2, sizes[c])) for c in chosen})
    return shapes


def recording_accept(rate, salt):
    """An accept that passes about `rate` of the pairs, as a fixed function of
    (i, j), and records every call."""
    calls = []

    def accept(i, j):
        calls.append((i, j))
        return random.Random(f"{salt}:{i}:{j}").random() < rate

    return accept, calls


def new_search(counts, class_ids, accept=None):
    _, _, uses, limits = shape_masks([(shape, {}) for shape in counts], class_ids)
    return PairSearch(uses, limits, accept).find_first()


def reference_search(counts, class_ids, accept=None):
    def test(i, j):
        if not pair_shares_ok(counts[i], counts[j], class_ids):
            return False
        return accept is None or accept(i, j)

    return RowMajorPairSearch(len(counts), test).find_first()


def shape_lists():
    """Seeded (name, shapes, class_ids) cases, flow-like and arb/tree-like."""
    cases = []
    for seed in range(40):
        rng = random.Random(seed)
        unit = seed % 2 == 1
        sizes, class_ids = class_table(rng, rng.randint(3, 14), 2 if unit else 4,
                                       single=rng.choice((0.0, 0.5, 0.8)))
        count = rng.randint(2, 90)
        shapes = random_shapes(rng, sizes, count, rng.randint(1, 6), unit)
        cases.append((f"{'unit' if unit else 'flow'}-{seed}", shapes, class_ids))
    return cases


@pytest.mark.parametrize("name,shapes,class_ids", shape_lists(),
                         ids=[case[0] for case in shape_lists()])
def test_masks_agree_with_pair_shares_ok(name, shapes, class_ids):
    expanded, _, uses, limits = shape_masks([(s, {}) for s in shapes], class_ids)
    assert expanded == expanded_reference(shapes, class_ids)
    for i, a in enumerate(shapes):
        for j, b in enumerate(shapes):
            ok = pair_shares_ok(a, b, class_ids)
            assert ok == pair_shares_ok(b, a, class_ids)
            assert (limits[i] & uses[j] == 0) == ok, (i, j)


@pytest.mark.parametrize("name,shapes,class_ids", shape_lists(),
                         ids=[case[0] for case in shape_lists()])
def test_find_first_matches_row_major_scan(name, shapes, class_ids):
    assert new_search(shapes, class_ids) == reference_search(shapes, class_ids)
    for rate in (0.0, 0.05, 0.3, 1.0):
        accept, calls = recording_accept(rate, name)
        ref_accept, ref_calls = recording_accept(rate, name)
        assert new_search(shapes, class_ids, accept) == \
            reference_search(shapes, class_ids, ref_accept)
        assert calls == ref_calls


def test_edge_cases():
    ids = {(0, 1): (0,), (1, 2): (1, 2), (2, 3): (3, 4, 5), (3, 4): (6, 7, 8, 9)}
    class_ids = lambda u, v: ids[(u, v)]  # noqa: E731
    assert new_search([], class_ids) == (None, 0)
    # a single shape: its only pair is (0, 0)
    assert new_search([{(0, 1): 1}], class_ids) == (None, 1)
    assert new_search([{(1, 2): 1}], class_ids) == ((0, 0), 1)
    # shape 0 conflicts with everyone; shape 1 pairs with itself
    shapes = [{(0, 1): 1, (1, 2): 2}, {(1, 2): 1, (2, 3): 1}, {(0, 1): 1}]
    assert new_search(shapes, class_ids) == reference_search(shapes, class_ids) \
        == ((1, 1), 4)
    # three copies: 2 + 2 conflicts, 2 + 1 does not; four never run out
    shapes = [{(2, 3): 2, (3, 4): 2}, {(2, 3): 1, (3, 4): 2}]
    assert new_search(shapes, class_ids) == reference_search(shapes, class_ids) \
        == ((0, 1), 2)
    accept, calls = recording_accept(0.0, "edge")
    assert new_search(shapes, class_ids, accept) == (None, 3)
    assert calls == [(0, 1), (1, 1)]


def test_synthetic_no_with_thousands_of_shapes():
    """About 3,000 shapes that all share a single-copy class: every pair,
    the diagonal included, conflicts."""
    rng = random.Random(5)
    sizes, class_ids = class_table(rng, 40, 4)
    sizes[(100, 101)] = 1
    shapes = [{**shape, (100, 101): 1}
              for shape in random_shapes(rng, {c: L for c, L in sizes.items() if c[0] < 100},
                                         3000, 4, unit=False)]
    accept, calls = recording_accept(1.0, "no")
    assert new_search(shapes, class_ids) == (None, 3000 * 3001 // 2)
    assert new_search(shapes, class_ids, accept) == (None, 3000 * 3001 // 2)
    assert calls == []


def test_class_with_four_copies_gets_no_bits():
    ids = {(0, 1): (0, 1, 2, 3), (1, 2): (4, 5, 6, 7, 8)}
    expanded, _, uses, limits = shape_masks(
        [({(0, 1): 2, (1, 2): 1}, {}), ({(0, 1): 1}, {})], lambda u, v: ids[(u, v)])
    assert expanded == comb(4, 2) * 5 + 4
    assert uses == [0, 0] and limits == [0, 0]


@pytest.mark.parametrize("copies,count", [(1, 2), (2, 3), (3, 3), (5, 3), (0, 1)])
def test_copy_masks_refuses_impossible_shapes(copies, count):
    """A shape taking more copies than its class has, or more than the two
    the masks describe, is refused rather than counted as comb(L, m) = 0."""
    ids = {(0, 1): tuple(range(copies)), (1, 2): (10,)}
    shapes = [({(1, 2): 1}, {}), ({(0, 1): count}, {})]
    with pytest.raises(InternalError):
        shape_masks(shapes, lambda u, v: ids[(u, v)])
