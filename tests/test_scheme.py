import dataclasses
import tracemalloc

import numpy as np
import pytest

from helpers import (c2_c4_table, cyclic_table, oracle_intersection_tensor, oracle_inverse,
                     oracle_product_identity, oracle_t0_count, oracle_tensor_per_class,
                     q8_table, symmetric_table)
from terwilliger import (ConjugacyData, ConsistencyError, GroupTable, IntersectionTensor,
                         SchemeData, build_group, build_scheme, case_counts,
                         closed_form_dimension, conjugacy_classes, dim_t0,
                         expected_case_counts, generic_conjugacy_classes,
                         intersection_numbers, valid_twists, validate_params,
                         verify_product_identity)
from terwilliger.pipeline import analyze_pair
from terwilliger.scheme import CASE_ORDER


def pipeline(n, s):
    params = validate_params(n, s)
    group = build_group(params)
    classes = conjugacy_classes(group)
    return params, group, classes


def dense(tensor):
    """p[i, j, k] as a dense (t+1)^3 array, filled in from the triples."""
    t1 = tensor.num_classes
    p = np.zeros((t1, t1, t1), dtype=tensor.p.dtype)
    p[tensor.i, tensor.j, tensor.k] = tensor.p
    return p


def every_pair(classes):
    """Every (i, j)."""
    return [(i, j) for i in range(classes.num_classes) for j in range(classes.num_classes)]


def oracle_holds(q, tensor, classes):
    """The dense oracle's verdict on every identity A_i A_j = sum_k p[i,j,k] A_k."""
    p = dense(tensor)
    return all(oracle_product_identity(q, p, i, j) for i, j in every_pair(classes))


def raised(tensor, i, j, k, by=1):
    """The tensor with p[i, j, k] higher by `by`: its triple's p is raised, or
    a triple with p = by is inserted in (i, j, k) order at a zero entry."""
    t1 = tensor.num_classes
    keys = (tensor.i.astype(np.int64) * t1 + tensor.j) * t1 + tensor.k
    key = (i * t1 + j) * t1 + k
    r = int(np.searchsorted(keys, key))
    if r < len(keys) and keys[r] == key:
        p = tensor.p.copy()
        p[r] += by
        return dataclasses.replace(tensor, p=p)
    i, j, k, p = (np.insert(a, r, v).astype(np.int32)
                  for a, v in ((tensor.i, i), (tensor.j, j), (tensor.k, k), (tensor.p, by)))
    return IntersectionTensor(i=i, j=j, k=k, p=p, num_classes=t1)


def moved(tensor, k, source, target):
    """The tensor with one count of p[., ., k] moved from (i, j) = source to
    target: every sum_ij p[i, j, k] stays |G|."""
    return raised(raised(tensor, *source, k, by=-1), *target, k)


def relations(sd):
    """The dense 0/1 matrix A_i = (Q == i) of every relation i."""
    q = sd.class_matrix()
    return [(q == i).astype(np.int64) for i in range(sd.num_relations)]


def swapped_intercalate(group, rows, cols):
    """The group with its Cayley table's 2 x 2 Latin subsquare at rows x
    cols swapped: the table stays Latin with identity 0, but is no longer
    a group's."""
    mult = group.mult.copy()
    block = np.ix_(rows, cols)
    sub = mult[block]
    assert sub[0, 0] == sub[1, 1] != sub[0, 1] == sub[1, 0] and 0 not in (*rows, *cols)
    mult[block] = sub[::-1]
    return GroupTable(mult, params=group.params, name=group.name)


def row_zero_codes(q, t1):
    """Row 0 of every product A_i A_j, as verify_product_identity reads it:
    at each column y, the codes Q[0, z] t1 + Q[z, y] over all z, sorted."""
    return np.sort(q[0][:, None] * t1 + q, axis=0)


def swapped_d43_classes():
    """D(4,3) with a and a^2 swapped between their classes: {a} and {a^2, a^3}
    are no longer conjugation-invariant, and base points a^2 and a^3 of Y1
    disagree."""
    _, g, c = pipeline(4, 3)
    classes = ((1,), (0,), (2, 3), (5, 7), (4, 6))
    assert sorted(map(sorted, c.classes)) != sorted(map(sorted, classes))
    assert c.labels[2] == "Y1"
    class_of = [0] * g.order
    for ci, members in enumerate(classes):
        for x in members:
            class_of[x] = ci
    return g, dataclasses.replace(c, classes=classes, class_of=tuple(class_of))


class TestBuildScheme:
    def test_identity_relation(self):
        _, g, c = pipeline(3, 2)
        sd = build_scheme(g, c)
        assert np.array_equal(relations(sd)[sd.identity_class], np.eye(6, dtype=int))

    def test_row_sums_are_class_sizes(self):
        _, g, c = pipeline(3, 2)
        sd = build_scheme(g, c)
        for a, size in zip(relations(sd), c.sizes()):
            assert np.all(a.sum(axis=1) == size)

    @pytest.mark.parametrize("n,s", [(3, 2), (8, 3), (12, 5)])
    def test_partition_of_ones(self, n, s):
        _, g, c = pipeline(n, s)
        sd = build_scheme(g, c)
        total = sum(relations(sd))
        assert np.array_equal(total, np.ones((g.order, g.order), dtype=int))

    def test_transpose_closure_d43(self):
        # every class of D(4,3) is inverse-closed, so each A_i is symmetric
        _, g, c = pipeline(4, 3)
        sd = build_scheme(g, c)
        for i, a in enumerate(relations(sd)):
            inv_members = {int(g.inv[x]) for x in c.classes[i]}
            assert inv_members == set(c.classes[i])
            assert np.array_equal(a, a.T)

    @pytest.mark.parametrize("group", [(8, 3), (12, 5), "S4", "C5"])
    def test_class_matrix_is_the_class_of_y_times_x_inverse(self, group):
        # Q[x, y] names the class that holds y x^-1, with the inverse read by
        # search of the table; D(8,3), D(12,5) and C5 have classes that are
        # not inverse-closed, so the class of x y^-1 differs from it there
        if isinstance(group, tuple):
            _, g, c = pipeline(*group)
        else:
            g = GroupTable(symmetric_table(4) if group == "S4" else cyclic_table(5), name=group)
            c = generic_conjugacy_classes(g)
        q = build_scheme(g, c).class_matrix()
        mult = g.mult
        for x in range(g.order):
            x_inv = oracle_inverse(mult, x)
            for y in range(g.order):
                assert int(mult[y, x_inv]) in c.classes[q[x, y]]

    def test_holds_no_pair_array_beside_the_cayley_table(self):
        # every array reached from the scheme's attributes, through objects,
        # tuples and lists: only the Cayley table has |G|^2 entries
        _, g, c = pipeline(130, 51)
        sd = build_scheme(g, c)

        def arrays(value, path):
            if isinstance(value, np.ndarray):
                yield path, value
            elif isinstance(value, (tuple, list)):
                for i, item in enumerate(value):
                    yield from arrays(item, f"{path}[{i}]")
            elif hasattr(value, "__dict__"):
                for name, item in vars(value).items():
                    yield from arrays(item, f"{path}.{name}")

        big = [path for path, a in arrays(sd, "sd") if a.size >= g.order ** 2]
        assert big == ["sd.group.mult"]

    def test_broken_row_counts_raise(self):
        # a^1 moved into the reflection class in class_of only: every row then
        # meets Y1 once and Z1 four times, against class sizes 2 and 3
        _, g, c = pipeline(3, 2)
        class_of = list(c.class_of)
        class_of[1] = class_of[3]
        corrupted = dataclasses.replace(c, class_of=tuple(class_of))
        with pytest.raises(ConsistencyError, match="does not meet every class"):
            build_scheme(g, corrupted)

    @pytest.mark.parametrize("classes,identity_class,class_of", [
        (((0, 1), (2,)), 0, (0, 0, 1)),       # the identity class holds 0 and 1
        (((0,), (1,), (2,)), 1, (0, 1, 2)),   # the identity class is {1}
    ])
    def test_identity_relation_not_the_identity_raises(self, classes, identity_class, class_of):
        # class_of agrees with the class sizes, so every row meets each class
        # as often as its size, but the identity relation is not the diagonal
        g = GroupTable(cyclic_table(3), name="C3")
        parts = ConjugacyData(classes=classes, labels=tuple(f"C{i}" for i in range(len(classes))),
                              kinds=("C",) * len(classes), reps=tuple(c[0] for c in classes),
                              centralizer_orders=(3,) * len(classes),
                              identity_class=identity_class, class_of=class_of)
        with pytest.raises(ConsistencyError,
                           match="^identity relation is not the identity matrix$"):
            build_scheme(g, parts)

    def test_inverse_of_a_class_that_is_no_class_raises(self):
        # C4 split as {0}, {1, 2}, {3}: the rows still meet each part as often
        # as its size, but the inverses of {1, 2} are {3, 2}, which is no part
        g = GroupTable(cyclic_table(4), name="C4")
        parts = ConjugacyData(classes=((0,), (1, 2), (3,)), labels=("C0", "C1", "C2"),
                              kinds=("C",) * 3, reps=(0, 1, 3), centralizer_orders=(4, 4, 4),
                              identity_class=0, class_of=(0, 1, 1, 2))
        with pytest.raises(ConsistencyError, match="^inverse of class C1 is not a class$"):
            build_scheme(g, parts)

    @pytest.mark.parametrize("stage", [build_scheme, intersection_numbers])
    def test_empty_class_raises(self, stage):
        # C3's three classes plus an empty fourth: each row meets it as often
        # as its size, 0, so only the empty class itself is at fault
        g = GroupTable(cyclic_table(3), name="C3")
        parts = ConjugacyData(classes=((0,), (1,), (2,), ()), labels=("C0", "C1", "C2", "C3"),
                              kinds=("C",) * 4, reps=(0, 1, 2, 0),
                              centralizer_orders=(3, 3, 3, 3), identity_class=0,
                              class_of=(0, 1, 2))
        with pytest.raises(ConsistencyError, match="^class C3 is empty$"):
            stage(g, parts)


class TestIntersectionNumbers:
    def test_identity_column(self):
        # p[i, j, identity] = |Cl_i| when Cl_j is the inverse class of Cl_i
        for n, s in [(3, 2), (8, 3)]:
            _, g, c = pipeline(n, s)
            p = dense(intersection_numbers(g, c))
            ident = c.identity_class
            inverse_of = {}
            for i, members in enumerate(c.classes):
                inv_set = frozenset(int(g.inv[x]) for x in members)
                inverse_of[i] = next(j for j, cl in enumerate(c.classes)
                                     if frozenset(cl) == inv_set)
            for i in range(c.num_classes):
                for j in range(c.num_classes):
                    expected = len(c.classes[i]) if j == inverse_of[i] else 0
                    assert p[i, j, ident] == expected

    def test_s3_rotation_triple(self):
        # z in {a, a^2} with a*z^-1 in {a, a^2} forces z = a^2
        _, g, c = pipeline(3, 2)
        assert dense(intersection_numbers(g, c))[1, 1, 1] == 1

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (6, 5), (8, 3), (8, 5), (12, 7), (16, 7),
                                     (45, 26), (100, 51), (200, 101), (400, 201)])
    def test_product_identity_full(self, n, s):
        _, g, c = pipeline(n, s)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        assert verify_product_identity(sd, tensor)

    @pytest.mark.parametrize("n,s", [(8, 3), (12, 5), (16, 7)])
    def test_product_identity_detects_one_perturbed_entry(self, n, s):
        # an existing triple's p raised by 1, and a new triple at a zero entry
        _, g, c = pipeline(n, s)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        t1 = c.num_classes
        i, j = 1, t1 - 1
        assert verify_product_identity(sd, tensor)
        p_ij = dense(tensor)[i, j]
        assert p_ij.max() > 0 and p_ij.min() == 0
        for k in (int(np.argmax(p_ij)), int(np.argmin(p_ij))):
            perturbed = raised(tensor, i, j, k)
            assert dim_t0(perturbed) == dim_t0(tensor) + (p_ij[k] == 0)
            assert not verify_product_identity(sd, perturbed), k

    @pytest.mark.parametrize("n,s", [(16, 7), (40, 19)])
    def test_product_identity_detects_a_count_moved_between_two_pairs(self, n, s, monkeypatch):
        # one count of the identity column moved from (3, 3) to (5, 5), two
        # self-inverse Y relations: every sum_ij p[i,j,k] stays |G| and every
        # other (i, j) still holds, so only a check that reaches (3, 3) or
        # (5, 5) sees it; a sample of a few (i, j) per n can miss both
        params, g, c = pipeline(n, s)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        k = c.identity_class
        p = dense(tensor)
        assert p[3, 3, k] == p[5, 5, k] == 2
        wrong = moved(tensor, k, (3, 3), (5, 5))
        assert dim_t0(wrong) == dim_t0(tensor)
        assert verify_product_identity(sd, tensor)
        assert not verify_product_identity(sd, wrong)

        monkeypatch.setattr("terwilliger.scheme.intersection_numbers",
                            lambda group, classes: wrong)
        analysis = analyze_pair(n, s, closure=False, desk_certificates=False)
        assert analysis.checks["product_identity"] is False
        assert [name for name, ok in analysis.checks.items() if not ok] == ["product_identity"]

    @pytest.mark.parametrize("n,s", [(8, 3), (12, 5), (16, 7)])
    def test_product_identity_detects_one_corrupted_relation(self, n, s):
        # the Cayley table's intercalate at rows a, a^(n/2+1) and columns
        # a^2, a^(n/2+2) swapped: the table stays Latin, so every row and
        # every column of Q still meets each class |Cl_i| times, but four
        # pairs change relation and the table is no group's.  Row 0 and
        # column 0 are untouched, so build_scheme, which checks the
        # transpose closure on row 0 only, accepts it; the product identity,
        # whose translation checks carry row 0 to every row, refuses it
        _, g, c = pipeline(n, s)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        corrupted = build_scheme(swapped_intercalate(g, [1, n // 2 + 1], [2, n // 2 + 2]), c)
        q = corrupted.class_matrix()
        assert np.count_nonzero(q != sd.class_matrix()) == 4
        for lines in (q, q.T):
            counts = np.arange(g.order)[:, None] * c.num_classes + lines
            assert np.array_equal(np.bincount(counts.ravel()).reshape(g.order, -1),
                                  np.tile(c.sizes(), (g.order, 1)))
        assert verify_product_identity(sd, tensor)
        assert not verify_product_identity(corrupted, tensor)

    @pytest.mark.parametrize("name,table", [
        ("C1", cyclic_table(1)), ("C2", cyclic_table(2)), ("S4", symmetric_table(4)),
        ("Q8", q8_table()), ("C2xC4", c2_c4_table())])
    def test_product_identity_on_generic_tables(self, name, table):
        # every non-identity element is a generator; C1 has none
        g = GroupTable(table, name=name)
        c = generic_conjugacy_classes(g)
        assert verify_product_identity(build_scheme(g, c), intersection_numbers(g, c))

    def test_product_identity_needs_transitive_generators(self, monkeypatch):
        # the translations by a alone keep <a> and b<a> apart, so row 0 says
        # nothing of the rows of b<a>, and no identity is certified
        _, g, c = pipeline(8, 3)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        assert g.generating_set == (1, 8)
        assert verify_product_identity(sd, tensor)
        monkeypatch.setattr(GroupTable, "generating_set", property(lambda self: (1,)))
        assert not verify_product_identity(sd, tensor)

    @pytest.mark.parametrize("n,s", [(n, s) for n in range(3, 13) for s in valid_twists(n)])
    def test_product_identity_matches_dense_oracle(self, n, s):
        _, g, c = pipeline(n, s)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        assert oracle_holds(sd.class_matrix(), tensor, c)
        assert verify_product_identity(sd, tensor)

    @pytest.mark.parametrize("n,s", [(8, 3), (12, 5)])
    def test_perturbed_verdicts_match_dense_oracle(self, n, s):
        # p[i, j, k] raised by 1 with k = (i + j) % (t + 1), for every (i, j),
        # and the same count moved there from the least other nonzero (i', j')
        # of column k, which keeps every sum_ij p[i,j,k]
        _, g, c = pipeline(n, s)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        q = sd.class_matrix()
        t1 = c.num_classes
        for i, j in every_pair(c):
            k = (i + j) % t1
            source = next((int(a), int(b)) for a, b, kk in zip(tensor.i, tensor.j, tensor.k)
                          if kk == k and (a, b) != (i, j))
            for perturbed in (raised(tensor, i, j, k), moved(tensor, k, source, (i, j))):
                expected = oracle_holds(q, perturbed, c)
                assert not expected
                assert verify_product_identity(sd, perturbed) == expected, (i, j)

    def test_product_identity_detects_a_corruption_off_row_zero(self):
        # the Cayley table's intercalate at rows a, a^5 and columns a^2, a^6
        # swapped: Q changes in rows a^6 and a^2 only, whose inverses are
        # those columns, and they share a class, so every count in row 0 of
        # every product stays; but the translations by the generators now
        # change Q
        _, g, c = pipeline(8, 3)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        corrupted = SchemeData(swapped_intercalate(g, [1, 5], [2, 6]), c)
        q = corrupted.class_matrix()
        assert np.flatnonzero((q != sd.class_matrix()).any(axis=1)).tolist() == [2, 6]
        assert np.array_equal(row_zero_codes(q, c.num_classes),
                              row_zero_codes(sd.class_matrix(), c.num_classes))
        assert not oracle_holds(q, tensor, c)
        assert not verify_product_identity(corrupted, tensor)

    def test_product_identity_checks_every_row_block(self):
        # (516, 259) has 1032 elements, so each translation is compared in
        # five blocks of 256 rows: the clean Q passes them all.  As in the
        # off-row-zero case, an intercalate of the Cayley table is swapped,
        # at rows and columns b a and b a^259 (517 and 775); Q changes in
        # rows 773 and 1031, whose inverses are those columns, and row 0's
        # counts stay.  The translations by a and b move rows 772, 1030,
        # 257 and 515 onto them, so the first block never sees the change
        _, g, c = pipeline(516, 259)
        sd = build_scheme(g, c)
        tensor = intersection_numbers(g, c)
        assert g.order == 1032 and verify_product_identity(sd, tensor)
        corrupted = SchemeData(swapped_intercalate(g, [517, 775], [517, 775]), c)
        q = corrupted.class_matrix()
        changed = np.flatnonzero((q != sd.class_matrix()).any(axis=1))
        assert changed.tolist() == [773, 1031]
        assert np.flatnonzero(np.isin(g.mult[:, g.generating_set], changed).any(axis=1)
                              ).tolist() == [257, 515, 772, 1030]
        assert np.array_equal(row_zero_codes(q, c.num_classes),
                              row_zero_codes(sd.class_matrix(), c.num_classes))
        assert not verify_product_identity(corrupted, tensor)

    def test_base_point_dependence_fails_the_product_identity(self):
        # build_scheme rejects these classes, so their scheme is built by hand;
        # its Q passes the translation and transitivity checks, as every Q
        # read off a class map does, and the counts at a^3 differ from the
        # tensor's at a^2
        _, g, c = pipeline(4, 3)
        assert verify_product_identity(SchemeData(g, c), intersection_numbers(g, c))
        g, corrupted = swapped_d43_classes()
        with pytest.raises(ConsistencyError, match="^inverse of class Y1 is not a class$"):
            build_scheme(g, corrupted)
        assert not verify_product_identity(SchemeData(g, corrupted),
                                           intersection_numbers(g, corrupted))

    def test_base_point_dependence_fails_at_either_base_point(self):
        # Y1's members in either order: the two tensors differ at k = Y1 only,
        # and each fails, since every member of every class is a base point
        g, corrupted = swapped_d43_classes()
        classes = list(corrupted.classes)
        classes[2] = classes[2][::-1]
        reordered = dataclasses.replace(corrupted, classes=tuple(classes))
        tensors = [intersection_numbers(g, c) for c in (corrupted, reordered)]
        differ = dense(tensors[0]) != dense(tensors[1])
        assert np.flatnonzero(differ.any(axis=(0, 1))).tolist() == [2]
        assert corrupted.labels[2] == "Y1"
        sd = SchemeData(g, corrupted)
        assert not any(verify_product_identity(sd, t) for t in tensors)

    def test_matches_per_class_oracle(self):
        # (100, 99) has 53 classes
        _, g, c = pipeline(100, 99)
        expected = oracle_tensor_per_class(g.mult, list(c.classes))
        assert np.array_equal(dense(intersection_numbers(g, c)), expected)

    @pytest.mark.parametrize("group", ["S4", (8, 3), (12, 5), (15, 4)])
    def test_matches_oracle_tensor(self, group):
        if group == "S4":
            g = GroupTable(symmetric_table(4), name="S4")
            c = generic_conjugacy_classes(g)
        else:
            _, g, c = pipeline(*group)
        expected = oracle_intersection_tensor(g.mult, list(c.classes))
        assert dense(intersection_numbers(g, c)).tolist() == expected

    @pytest.mark.parametrize("n,s", [(8, 3), (40, 21), (100, 51)])
    def test_tensor_is_int32_with_int64_values(self, n, s):
        # p[i,j,k] <= |Cl_i| <= |G|, so int32 holds every entry exactly
        _, g, c = pipeline(n, s)
        tensor = intersection_numbers(g, c)
        assert tensor.p.dtype == np.int32
        cls = np.asarray(c.class_of, dtype=np.int64)
        t1 = c.num_classes
        wide = np.zeros((t1, t1, t1), dtype=np.int64)
        for k, members in enumerate(c.classes):
            quot_class = cls[g.mult[members[0], g.inv]]
            np.add.at(wide, (cls, quot_class, k), 1)
        assert np.array_equal(dense(tensor).astype(np.int64), wide)

    @pytest.mark.parametrize("n,s", [(3, 2), (8, 3), (40, 21)])
    def test_triples_are_sorted_nonzero_int32(self, n, s):
        _, g, c = pipeline(n, s)
        tensor = intersection_numbers(g, c)
        t1 = c.num_classes
        assert all(a.dtype == np.int32 for a in (tensor.i, tensor.j, tensor.k, tensor.p))
        assert len({len(tensor.i), len(tensor.j), len(tensor.k), len(tensor.p)}) == 1
        keys = (tensor.i.astype(np.int64) * t1 + tensor.j) * t1 + tensor.k
        assert np.all(np.diff(keys) > 0)
        assert np.all(tensor.p >= 1)
        assert all(0 <= a.min() and a.max() < t1 for a in (tensor.i, tensor.j, tensor.k))

    def test_nonzero_triples_export(self):
        _, g, c = pipeline(3, 2)
        tensor = intersection_numbers(g, c)
        rows = tensor.nonzero_triples()
        assert len(rows) == 11
        assert all(p > 0 for (_, _, _, p) in rows)

    @pytest.mark.parametrize("n,s", [(3, 2), (8, 5), (12, 11)])
    def test_class_product_mass(self, n, s):
        # sum_k p[i,j,k] |Cl_k| counts all products of Cl_i with Cl_j
        _, g, c = pipeline(n, s)
        p = dense(intersection_numbers(g, c))
        sizes = np.asarray(c.sizes())
        for i in range(c.num_classes):
            for j in range(c.num_classes):
                assert int(p[i, j] @ sizes) == sizes[i] * sizes[j]


class TestDimT0:
    @pytest.mark.parametrize("n,s,expected", [(3, 2, 11), (8, 3, 64), (8, 5, 112)])
    def test_frozen_values(self, n, s, expected):
        _, g, c = pipeline(n, s)
        assert dim_t0(intersection_numbers(g, c)) == expected

    @pytest.mark.parametrize("n", range(3, 17))
    def test_matches_oracle_and_formula(self, n):
        for s in valid_twists(n):
            params, g, c = pipeline(n, s)
            t0 = dim_t0(intersection_numbers(g, c))
            assert t0 == oracle_t0_count(g.mult, list(c.classes))
            assert t0 == closed_form_dimension(params)

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (8, 3)])
    def test_base_point_independence_exhaustive(self, n, s):
        # recompute every p[:, :, k] from every member of Cl_k
        _, g, c = pipeline(n, s)
        p = dense(intersection_numbers(g, c))
        cls = np.asarray(c.class_of)
        for k, members in enumerate(c.classes):
            for y in members:
                quot_class = cls[g.mult[y, g.inv]]
                for i, cl_i in enumerate(c.classes):
                    slab = np.bincount(quot_class[list(cl_i)], minlength=c.num_classes)
                    assert np.array_equal(slab, p[i, :, k]), (i, k, y)


class TestCaseCounts:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_nine_cases(self, n):
        for s in valid_twists(n):
            params, g, c = pipeline(n, s)
            counts = case_counts(intersection_numbers(g, c), c)
            assert counts == expected_case_counts(params)

    def test_counts_in_a_quarter_of_the_dense_tensor(self):
        # the dense int32 (t+1)^3 tensor would be 7.8 MB here and 477 MB at
        # (400,201); the count and the case counts keep to a quarter of it
        params, g, c = pipeline(100, 51)
        dense_bytes = 4 * c.num_classes ** 3
        assert c.num_classes == 125
        tracemalloc.start()
        try:
            counts = case_counts(intersection_numbers(g, c), c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == expected_case_counts(params)
        assert peak < dense_bytes // 4, (peak, dense_bytes)

    def test_case_total_is_dimension(self):
        params, g, c = pipeline(8, 5)
        counts = expected_case_counts(params)
        assert set(counts) == set(CASE_ORDER)
        assert sum(counts.values()) == closed_form_dimension(params)


class TestClosedFormDimension:
    @pytest.mark.parametrize("n,s,expected", [
        (3, 2, 11), (4, 3, 28), (5, 4, 22), (6, 5, 44),
        (8, 3, 64), (8, 5, 112), (8, 7, 64),
    ])
    def test_values(self, n, s, expected):
        assert closed_form_dimension(validate_params(n, s)) == expected
