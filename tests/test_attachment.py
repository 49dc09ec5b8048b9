"""Independent checks of the two steps between a shape and its structure:
`fptcommon.lex_smallest_attachment`, which places a compact structure's
imaginary leaves, and `fptcommon.crystallize_pair`, which gives a hit pair
its concrete copies.

Each is compared with its definition on seeded random inputs: every split
of the residual leaves over the anchors for the attachment, and the
position of every copy in its class for the copy assignment.  The shape
search tests compare against references that call the attachment
themselves, so these are its only independent checks.
"""

import random
from collections import Counter

from rootedpack.fptcommon import crystallize_pair, lex_smallest_attachment


def splits(total, parts):
    """Every tuple of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in splits(total - first, parts - 1):
            yield (first, *rest)


def attachment_by_brute_force(anchors, branch_of, branch_sizes, limit, residual):
    """The lexicographically smallest split, in anchor order, that keeps
    every branch within `limit` vertices, zeros dropped; None without one."""
    if residual < 0:
        return None
    best = None
    for split in splits(residual, len(anchors)):
        sizes = dict(branch_sizes)
        for a, x in zip(anchors, split):
            sizes[branch_of[a]] += x
        if all(s <= limit for s in sizes.values()) and (best is None or split < best):
            best = split
    return None if best is None else {a: x for a, x in zip(anchors, best) if x}


def random_attachment_input(rng):
    """(anchors, branch_of, branch_sizes, limit, residual, tags): a few root
    branches of random sizes, now and then one over the limit, and sorted
    anchors among their vertices; `tags` names the cases the input covers."""
    limit = rng.randint(0, 4)
    branch_sizes, branch_of = {}, {}
    v = 1
    for b in range(rng.randint(1, 4)):
        size = rng.randint(1, limit + 1) if rng.random() < 0.1 else rng.randint(1, max(limit, 1))
        branch_sizes[100 + b] = size
        for _ in range(size):
            branch_of[v] = 100 + b
            v += 1
    anchors = sorted(rng.sample(sorted(branch_of), rng.randint(0, min(4, len(branch_of)))))
    residual = rng.choice((0, rng.randint(-1, 7), rng.randint(1, 7)))
    anchored = Counter(branch_of[a] for a in anchors)
    tags = {
        "shared": any(c > 1 for c in anchored.values()),
        "full": any(branch_sizes[b] == limit for b in anchored),
        "zero": residual == 0,
        "over": any(s > limit for s in branch_sizes.values()),
    }
    return anchors, branch_of, branch_sizes, limit, residual, tags


def test_attachment_matches_brute_force():
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(6000):
        *args, tags = random_attachment_input(rng)
        got = lex_smallest_attachment(*args)
        want = attachment_by_brute_force(*args)
        assert got == want, args
        seen.update(tag for tag, on in tags.items() if on)
        seen["infeasible" if want is None else "feasible"] += 1
    for case in ("shared", "full", "zero", "over", "infeasible", "feasible"):
        assert seen[case] >= 300, seen


def assignment_by_definition(classes1, classes2, class_ids):
    """Copy i of class c goes to side 1 when i < m1 and to side 2 when
    m1 <= i < m1 + m2, with m1, m2 the two counts of c; None when some
    class has fewer than m1 + m2 copies."""
    ids1, ids2 = set(), set()
    for c in set(classes1) | set(classes2):
        m1, m2 = classes1.get(c, 0), classes2.get(c, 0)
        copies = class_ids(*c)
        if len(copies) < m1 + m2:
            return None
        for i, copy in enumerate(copies):
            if i < m1:
                ids1.add(copy)
            elif i < m1 + m2:
                ids2.add(copy)
    return ids1, ids2


def test_crystallize_pair_matches_its_definition():
    """Random class tables with ascending copy ids, and count dicts with
    classes on one side, on both, and with more copies asked than exist."""
    rng = random.Random(7)
    seen = Counter()
    for _ in range(3000):
        ids = list(range(rng.randint(6, 40)))
        rng.shuffle(ids)
        table = {}
        for u in range(rng.randint(1, 6)):
            take = rng.randint(1, 4)
            copies, ids = ids[:take], ids[take:]
            if copies:
                table[(0, u + 1)] = tuple(sorted(copies))

        def class_ids(u, v, table=table):
            return table[(u, v)]

        counts = ({}, {})
        for c, copies in table.items():
            for side in rng.sample((0, 1), rng.randint(0, 2)):
                counts[side][c] = rng.randint(1, len(copies) + (rng.random() < 0.06))
        got = crystallize_pair(*counts, class_ids)
        want = assignment_by_definition(*counts, class_ids)
        assert got == want, (table, counts)
        both = counts[0].keys() & counts[1].keys()
        seen["shared"] += bool(both)
        seen["one-sided"] += bool(counts[0].keys() ^ counts[1].keys())
        seen["short"] += want is None
        seen["assigned"] += want is not None and bool(both)
    for case in ("shared", "one-sided", "short", "assigned"):
        assert seen[case] >= 200, seen
