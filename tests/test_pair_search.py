"""Differential tests for the bit-mask pair search and the pair masks.

The reference is the per-pair scan it replaced, kept here in behaviour:
`pair_shares_ok` walks the first shape's classes, and a row-major scan over
every pair (i, j), i <= j, asks it and then `accept` about each pair in turn.

The masks come from `CopyTable` entries, which the shape searches fold into
each state as they take classes; `table_rows` folds whole count-dict shapes
the same way, and `row_emptied` recomputes the classes a row empties.
`shape_masks_reference` is the one pass over finished shapes that built the
masks before the searches carried them, kept here as the reference for the
carried rows.
"""

import random
from math import comb

import pytest

from rootedpack.errors import InternalError
from rootedpack.pairs import CopyTable, PairSearch


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


def shape_masks_reference(shapes, class_ids, extendable=None):
    """(expanded shape count, kept shapes, their `uses` masks, their `limits`
    masks) of (count dict, attachment) shapes, in one pass: each class gets
    one table row per count m (comb(L, m), the use bits, the limit bit, and
    whether m copies empty the class), and given `extendable`, a shape is
    kept only if it passes the classes the shape empties."""
    table = {}
    width = 0
    expanded = 0
    kept, uses, limits = [], [], []
    for shape in shapes:
        combos, use, limit = 1, 0, 0
        emptied = []
        for c, m in shape[0].items():
            row = table.get(c)
            if row is None:
                copies = len(class_ids(*c))
                one = two = 0
                if copies < 4:
                    one, two = 1 << width, 2 << width
                    width += 2
                at_least = {1: one, 2: two}
                row = table[c] = (
                    (1, 0, 0, copies == 0),
                    (copies, one, at_least.get(copies, 0), copies == 1),
                    (comb(copies, 2), one | two, at_least.get(copies - 1, 0), copies == 2),
                )[:min(copies, 2) + 1]
            if not 0 <= m < len(row):
                raise InternalError("shape takes more copies of a class than the pair masks allow",
                                    {"class": list(c), "count": m})
            ways, use_bits, limit_bit, empties = row[m]
            combos *= ways
            use |= use_bits
            limit |= limit_bit
            if empties:
                emptied.append(c)
        expanded += combos
        if extendable is None or extendable(emptied):
            kept.append(shape)
            uses.append(use)
            limits.append(limit)
    return expanded, kept, uses, limits


def table_rows(shapes, class_ids, extendable=None):
    """Finished rows of (count dict, attachment) shapes, each folded through
    one `CopyTable` as a search folds the classes it takes.  A row's last
    field is `extendable` of the classes it empties, True without one."""
    table = CopyTable()
    rows = []
    for counts, attachment in shapes:
        classes = tuple(sorted(counts))
        expanded, uses, limits, emptied = 1, 0, 0, []
        for c in classes:
            ways, use, limit, empties = table.entry(c, len(class_ids(*c)), counts[c])
            expanded, uses, limits = expanded * ways, uses | use, limits | limit
            if empties:
                emptied.append(c)
        rows.append((classes, tuple(counts[c] for c in classes), attachment,
                     expanded, uses, limits, extendable is None or extendable(emptied)))
    return rows


def row_emptied(row, class_ids):
    """The classes a row takes every copy of, read off its classes and
    counts."""
    return [c for c, m in zip(row[0], row[1]) if m == len(class_ids(*c))]


def row_masks(rows):
    return [row[4] for row in rows], [row[5] for row in rows]


def conflicts(uses, limits):
    """Per shape i, the shapes j with `limits[i] & uses[j]` non-zero, as a
    bit set over j.  Bit positions drop out, so two mask encodings give the
    same answer on every ordered pair iff their conflict sets are equal."""
    columns = {}
    for j, use in enumerate(uses):
        for bit in range(use.bit_length()):
            if use >> bit & 1:
                columns[bit] = columns.get(bit, 0) | 1 << j
    out = []
    for limit in limits:
        blocked = 0
        for bit in range(limit.bit_length()):
            if limit >> bit & 1:
                blocked |= columns.get(bit, 0)
        out.append(blocked)
    return out


def new_search(counts, class_ids, accept=None):
    uses, limits = row_masks(table_rows([(shape, {}) for shape in counts], class_ids))
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
    rows = table_rows([(s, {}) for s in shapes], class_ids)
    uses, limits = row_masks(rows)
    expanded, _, ref_uses, ref_limits = shape_masks_reference([(s, {}) for s in shapes], class_ids)
    assert sum(row[3] for row in rows) == expanded == expanded_reference(shapes, class_ids)
    assert conflicts(uses, limits) == conflicts(ref_uses, ref_limits)
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
    rows = table_rows([({(0, 1): 2, (1, 2): 1}, {}), ({(0, 1): 1}, {})], lambda u, v: ids[(u, v)])
    assert sum(row[3] for row in rows) == comb(4, 2) * 5 + 4
    assert row_masks(rows) == ([0, 0], [0, 0])


@pytest.mark.parametrize("copies,count", [(1, 2), (2, 3), (3, 3), (5, 3), (0, 1)])
def test_copy_masks_refuses_impossible_shapes(copies, count):
    """A shape taking more copies than its class has, or more than the two
    the masks describe, is refused rather than counted as comb(L, m) = 0."""
    ids = {(0, 1): tuple(range(copies)), (1, 2): (10,)}
    shapes = [({(1, 2): 1}, {}), ({(0, 1): count}, {})]
    with pytest.raises(InternalError):
        table_rows(shapes, lambda u, v: ids[(u, v)])
    with pytest.raises(InternalError):
        shape_masks_reference(shapes, lambda u, v: ids[(u, v)])
    with pytest.raises(InternalError):
        CopyTable().entry((0, 1), copies, count)


def switch_lists():
    """(name, shapes, class_ids, hit row) around the row where `find_first`
    turns from direct row scans to columns.

    Forty shapes take four use bits each, 160 in all: two copies of the
    two-copy class x and one copy of two two-copy classes.  The first five
    rows hold 40 + 39 + 38 + 37 + 36 pairs, so rows 0..4 are scanned
    directly (154 < 160 pairs before row 4) and row 5 is the first one
    scanned by columns.  Two copies of x conflict with any copy of x, so
    all pairs conflict, except that the shape of the hit row takes one copy
    of x and one of the three-copy class y, which keeps its bit count and
    frees its pair with itself only."""
    ids = {(100, 101): (0, 1), (200, 201): (2, 3, 4)}
    ids.update({(u, u + 1): (10 + 2 * u, 11 + 2 * u) for u in range(20)})
    rng = random.Random(3)
    lists = []
    for name, hit_row in (("last-direct-row", 4), ("first-column-row", 5), ("no", None)):
        shapes = []
        for i in range(40):
            shape = {(u, u + 1): 1 for u in rng.sample(range(20), 2)}
            shape.update({(100, 101): 1, (200, 201): 1} if i == hit_row else {(100, 101): 2})
            shapes.append(shape)
        lists.append((name, shapes, lambda u, v: ids[(u, v)], hit_row))
    return lists


@pytest.mark.parametrize("name,shapes,class_ids,hit_row", switch_lists(),
                         ids=[case[0] for case in switch_lists()])
def test_switch_from_direct_rows_to_columns(name, shapes, class_ids, hit_row, monkeypatch):
    """Hit, pairsTested and `accept` calls against the row-major scan, with
    the columns built once, and only when the search gets past row 4."""
    builds = []
    columns = PairSearch._columns

    def recorded(self):
        builds.append(True)
        return columns(self)

    monkeypatch.setattr(PairSearch, "_columns", recorded)
    uses, _ = row_masks(table_rows([(s, {}) for s in shapes], class_ids))
    assert sum(map(int.bit_count, uses)) == 160
    for rate in (None, 1.0, 0.5, 0.0):
        builds.clear()
        if rate is None:
            got = new_search(shapes, class_ids)
            assert got == reference_search(shapes, class_ids)
        else:
            accept, calls = recording_accept(rate, name)
            ref_accept, ref_calls = recording_accept(rate, name)
            got = new_search(shapes, class_ids, accept)
            assert got == reference_search(shapes, class_ids, ref_accept)
            assert calls == ref_calls == ([(hit_row, hit_row)] if hit_row is not None else [])
        if rate in (None, 1.0):
            assert got[0] == (None if hit_row is None else (hit_row, hit_row))
        assert len(builds) == (0 if got[0] is not None and got[0][0] <= 4 else 1)
