import json

import numpy as np
import pytest

from helpers import (c2_c4_table, cyclic_table, oracle_burnside_pairs, oracle_centralizer,
                     oracle_column_partition, oracle_conjugacy_partition, oracle_inverse,
                     oracle_least_keys, oracle_mult, oracle_pair_orbits, q8_table,
                     symmetric_table)
from elimination import pair_orbits
from terwilliger import (ConsistencyError, GroupTable, build_group, centralizer_counts,
                         conjugacy_classes, generic_conjugacy_classes, groups,
                         orbital_count, valid_twists, validate_params)
from terwilliger.cli import main
from terwilliger.groups import orbit_reps


def named_group(name: str) -> GroupTable:
    """S4, a cyclic group written as "Cm", or a twisted dihedral group
    written as "D(n,s)"."""
    if name == "S4":
        return GroupTable(symmetric_table(4), name="S4")
    if name.startswith("C"):
        return GroupTable(cyclic_table(int(name[1:])), name=name)
    n, s = map(int, name[2:-1].split(","))
    return build_group(validate_params(n, s))


class TestValidateParams:
    @pytest.mark.parametrize("n,s,tau", [(3, 2, 1), (8, 3, 2), (8, 5, 4),
                                         (4, 3, 2), (12, 7, 6), (40, 21, 20)])
    def test_tau(self, n, s, tau):
        assert (s * s - 1) % n == 0  # confirm the input really is valid
        assert validate_params(n, s).tau == tau

    @pytest.mark.parametrize("n,s", [(6, 2), (6, 3), (6, 4), (10, 7), (9, 4)])
    def test_rejects_nonsquare_roots(self, n, s):
        with pytest.raises(ValueError):
            validate_params(n, s)

    def test_rejects_s_equal_one(self):
        with pytest.raises(ValueError):
            validate_params(5, 1)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            validate_params(2, 1)

    def test_rejects_s_out_of_range(self):
        with pytest.raises(ValueError):
            validate_params(5, 9)

    def test_n_minus_tau_even_everywhere(self):
        for n in range(3, 41):
            for s in valid_twists(n):
                assert (n - validate_params(n, s).tau) % 2 == 0


class TestBuildGroup:
    def test_normal_form_product(self):
        # (b a^2)(b a^3) = a^(2*3+3) = a^1 in D(8,3)
        g = build_group(validate_params(8, 3))
        assert g.mult[8 + 2, 8 + 3] == 1

    def test_matches_normal_form_oracle(self):
        for n in range(3, 41):
            for s in valid_twists(n):
                g = build_group(validate_params(n, s))
                assert g.mult.tolist() == oracle_mult(n, s), (n, s)
                assert g.inv.tolist() == [oracle_inverse(g.mult, x) for x in range(g.order)]

    def test_involution(self):
        g = build_group(validate_params(3, 2))
        assert g.mult[3, 3] == 0  # b * b = e

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (8, 5), (12, 11)])
    def test_inverses(self, n, s):
        g = build_group(validate_params(n, s))
        for x in range(g.order):
            assert g.mult[x, g.inv[x]] == 0
            assert g.mult[g.inv[x], x] == 0

    @pytest.mark.parametrize("n,s", [(3, 2), (6, 5)])
    def test_full_associativity(self, n, s):
        g = build_group(validate_params(n, s))
        for x in range(g.order):
            for y in range(g.order):
                for z in range(g.order):
                    assert g.mult[g.mult[x, y], z] == g.mult[x, g.mult[y, z]]

    def test_latin_square(self):
        g = build_group(validate_params(12, 5))
        target = np.arange(g.order)
        for x in range(g.order):
            assert np.array_equal(np.sort(g.mult[x]), target)
            assert np.array_equal(np.sort(g.mult[:, x]), target)

    def test_rejects_non_group_table(self):
        bad = np.zeros((3, 3), dtype=int)
        with pytest.raises(ValueError):
            GroupTable(bad)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_rejects_one_sided_latin_table(self, transpose):
        # every row is a permutation but columns 1 and 2 are not (and the
        # transpose the other way round); the identity row and column are fine
        bad = np.array([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
        with pytest.raises(ValueError, match="not permutations"):
            GroupTable(bad.T if transpose else bad)

    @pytest.mark.parametrize("value", [4, -1, -16])
    def test_rejects_out_of_range_entry(self, value):
        # one entry of C4 outside 0..3, away from the identity row and
        # column; -16 would make a negative (row, entry) count index
        bad = cyclic_table(4)
        bad[2, 3] = value
        with pytest.raises(ValueError, match="not permutations"):
            GroupTable(bad)

    def test_rejects_in_range_repeat(self):
        # column 3 of C4 becomes (3, 0, 0, 2): 0 twice and no 1, the other
        # columns untouched
        bad = cyclic_table(4)
        bad[2, 3] = 0
        with pytest.raises(ValueError, match="not permutations"):
            GroupTable(bad)

    def test_element_names(self):
        # element eps*n + i is b^eps a^i; the names depend only on n, so the
        # parameters give them without a table
        params = validate_params(4, 3)
        assert [params.element_name(x) for x in range(8)] == \
            ["e", "a", "a^2", "a^3", "b", "b a", "b a^2", "b a^3"]


class TestConjugacyClasses:
    def test_s3(self):
        g = build_group(validate_params(3, 2))
        c = conjugacy_classes(g)
        assert c.labels == ("X1", "Y1", "Z1")
        assert c.classes == ((0,), (1, 2), (3, 4, 5))
        assert c.centralizer_orders == (6, 3, 2)
        assert c.identity_class == 0

    def test_d83(self):
        g = build_group(validate_params(8, 3))
        c = conjugacy_classes(g)
        assert c.labels == ("X1", "X2", "Y1", "Y2", "Y3", "Z1", "Z2")
        # X1 = {a^4}, X2 = {e}; Y pairs under m -> 3m; Z cosets of <a^2>
        assert c.classes[0] == (4,)
        assert c.classes[1] == (0,)
        assert c.classes[2] == (1, 3)
        assert c.classes[3] == (2, 6)
        assert c.classes[4] == (5, 7)
        assert c.classes[5] == (8 + 1, 8 + 3, 8 + 5, 8 + 7)
        assert c.classes[6] == (8 + 0, 8 + 2, 8 + 4, 8 + 6)
        assert c.identity_class == 1  # X_tau holds the identity

    def test_d43_sizes(self):
        g = build_group(validate_params(4, 3))
        assert sorted(conjugacy_classes(g).sizes()) == [1, 1, 2, 2, 2]

    # the last four: tau = 1, tau = 2, odd tau = 7 and tau = n/2
    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (5, 4), (8, 3), (8, 5),
                                     (9, 8), (12, 5), (12, 7), (12, 11),
                                     (99, 98), (100, 99), (63, 8), (100, 51)])
    def test_matches_oracle_partition(self, n, s):
        g = build_group(validate_params(n, s))
        c = conjugacy_classes(g)
        assert {frozenset(cl) for cl in c.classes} == oracle_conjugacy_partition(g.mult)

    def test_closed_forms_match_column_partition(self):
        # every valid pair up to n = 100, against the columns of the
        # conjugation table; a centralizer order times its class size is |G|
        for n in range(3, 101):
            for s in valid_twists(n):
                g = build_group(validate_params(n, s))
                c = conjugacy_classes(g)
                assert set(map(frozenset, c.classes)) == oracle_column_partition(g.mult), (n, s)
                assert all(rep in members for rep, members in zip(c.reps, c.classes))
                assert [cent * len(members) for cent, members in
                        zip(c.centralizer_orders, c.classes)] == [g.order] * c.num_classes

    @pytest.mark.parametrize("n", range(3, 26))
    def test_structure_constants(self, n):
        for s in valid_twists(n):
            params = validate_params(n, s)
            c = conjugacy_classes(build_group(params))
            tau, half = params.tau, (n - params.tau) // 2
            assert c.kinds.count("X") == tau
            assert c.kinds.count("Y") == half
            assert c.kinds.count("Z") == tau
            assert c.num_classes == 2 * tau + half
            assert sum(c.sizes()) == 2 * n
            for kind, members, cent in zip(c.kinds, c.classes, c.centralizer_orders):
                expect_size = {"X": 1, "Y": 2, "Z": n // tau}[kind]
                expect_cent = {"X": 2 * n, "Y": n, "Z": 2 * tau}[kind]
                assert len(members) == expect_size
                assert cent == expect_cent

    def test_identity_position_is_tau(self):
        for n, s in [(8, 3), (8, 5), (12, 7)]:
            params = validate_params(n, s)
            c = conjugacy_classes(build_group(params))
            assert c.identity_class == params.tau - 1

    @pytest.mark.parametrize("name,table", [
        ("C1", cyclic_table(1)), ("C2", cyclic_table(2)), ("S3", symmetric_table(3)),
        ("S4", symmetric_table(4)), ("Q8", q8_table()), ("C2xC4", c2_c4_table())])
    def test_generic_matches_oracle(self, name, table):
        g = GroupTable(table, name=name)
        c = generic_conjugacy_classes(g)
        assert set(map(frozenset, c.classes)) == oracle_conjugacy_partition(g.mult)
        # the identity's class first, then by size and least member, each
        # class increasing and represented by its least member
        assert c.classes[0] == (0,) and c.identity_class == 0
        keys = [(len(members), members[0]) for members in c.classes]
        assert keys == sorted(keys)
        assert all(list(members) == sorted(members) for members in c.classes)
        assert list(c.reps) == [members[0] for members in c.classes]
        assert list(c.centralizer_orders) == [oracle_centralizer(g.mult, r) for r in c.reps]


def corrupt(how: str):
    """A stand-in for groups._closed_form_classes that damages its classes
    (or centralizer orders) one way; Y1 and Y2 are pairs {m, m s}.  A
    repeated member of the last class, with or without a member left out,
    agrees with the least conjugates wherever class_of is defined, so only
    the partition guard catches it."""
    closed_forms = groups._closed_form_classes

    def corrupted(params):
        classes, labels, kinds, reps, cents = map(list, closed_forms(params))
        y1, y2 = kinds.index("Y"), kinds.index("Y") + 1
        if how == "move":        # Y1's second member joins Y2
            classes[y2] += classes[y1][1:]
            classes[y1] = classes[y1][:1]
        elif how == "empty":     # X1's only member joins Y1, leaving X1 empty
            classes[y1] += classes[0]
            classes[0] = ()
        elif how == "repeat":    # the last class lists its least member in place of its greatest
            members = sorted(classes[-1])
            classes[-1] = tuple(members[:-1] + members[:1])
        elif how == "extra":     # the last class lists its first member twice
            classes[-1] += classes[-1][:1]
        elif how == "centralizer":
            cents[y1] += 1
        elif how == "swap":      # Y1 and Y2 trade their second members
            (a, b), (c, d) = classes[y1], classes[y2]
            classes[y1], classes[y2] = (a, d), (c, b)
        return tuple(map(tuple, (classes, labels, kinds, reps, cents)))
    return corrupted


class TestCorruptedClosedForms:
    """Closed forms damaged above n = 40 are caught by the check against
    the Cayley table, which runs at every n."""

    @pytest.mark.parametrize("how", ["move", "empty", "repeat", "extra", "centralizer",
                                     "swap"])
    @pytest.mark.parametrize("n,s", [(41, 40), (100, 51)])
    def test_raises(self, monkeypatch, how, n, s):
        monkeypatch.setattr(groups, "_closed_form_classes", corrupt(how))
        with pytest.raises(ConsistencyError):
            conjugacy_classes(build_group(validate_params(n, s)))

    def test_sweep_reports_failed_rows(self, monkeypatch, capsys):
        monkeypatch.setattr(groups, "_closed_form_classes", corrupt("swap"))
        assert main(["sweep", "--n-min", "100", "--n-max", "100", "--format", "json"]) == 1
        out, err = capsys.readouterr()
        rows = json.loads(out)["rows"]
        assert len(rows) == len(valid_twists(100)) > 0
        assert all(r["checks"] == {"analysis_completed": False}
                   and r["notes"][0].startswith("ConsistencyError: least conjugates")
                   for r in rows)
        assert "Traceback" not in err


class TestCentralizers:
    def test_s3_rotation(self):
        g = build_group(validate_params(3, 2))
        assert centralizer_counts(g)[1] == 3

    def test_d83_central_rotation(self):
        g = build_group(validate_params(8, 3))
        assert centralizer_counts(g)[4] == 16  # a^4 commutes with everything

    @pytest.mark.parametrize("n,s", [(3, 2), (8, 3), (12, 5)])
    def test_identity(self, n, s):
        g = build_group(validate_params(n, s))
        assert centralizer_counts(g)[0] == 2 * n

    @pytest.mark.parametrize("n,s", [(4, 3), (8, 5), (9, 8)])
    def test_matches_oracle(self, n, s):
        g = build_group(validate_params(n, s))
        for x in range(g.order):
            assert centralizer_counts(g)[x] == oracle_centralizer(g.mult, x)


class TestOrbitalCount:
    @pytest.mark.parametrize("n,s,expected", [(3, 2, 11), (4, 3, 28),
                                              (8, 3, 64), (6, 5, 44), (8, 5, 112)])
    def test_frozen_values(self, n, s, expected):
        g = build_group(validate_params(n, s))
        assert orbital_count(g, orbit_reps(g)) == expected
        assert oracle_burnside_pairs(g.mult) == expected

    def test_equals_sum_of_rep_centralizers(self):
        for n, s in [(5, 4), (8, 7), (12, 7)]:
            g = build_group(validate_params(n, s))
            c = conjugacy_classes(g)
            assert orbital_count(g, orbit_reps(g)) == sum(c.centralizer_orders)

    def test_generic_s4(self):
        g = GroupTable(symmetric_table(4), name="S4")
        assert orbital_count(g, orbit_reps(g)) == oracle_burnside_pairs(g.mult)


class TestConjugation:
    @pytest.mark.parametrize("name", ["S4", "D(8,3)"])
    def test_rows_are_conjugation_by_g(self, name):
        g = named_group(name)
        conj = g.conjugation()
        assert conj.shape == (g.order, g.order)
        for h in range(g.order):
            h_inv = oracle_inverse(g.mult, h)
            assert conj[h].tolist() == [int(g.mult[g.mult[h, x], h_inv])
                                        for x in range(g.order)]


class TestPairOrbitCount:
    @pytest.mark.parametrize("name", ["S4", "C6", "D(3,2)", "D(8,3)", "D(12,5)", "D(15,4)",
                                      "D(36,17)"])
    def test_matches_oracle(self, name):
        g = named_group(name)
        ids, reps = pair_orbits(g)
        cells = {}
        for (x, y), k in np.ndenumerate(ids):
            cells.setdefault(int(k), set()).add((x, y))
        assert {frozenset(c) for c in cells.values()} == oracle_pair_orbits(g.mult)
        assert len(reps) == len(cells)
        for k, rep in enumerate(reps):
            assert divmod(int(rep), g.order) in cells[k]


SMALL_PAIRS = [f"D({n},{s})" for n in range(3, 25) for s in valid_twists(n)]


class TestPairOrbitNumbering:
    """The reference elimination's coordinates index the orbits by ids, and
    the package's closure reads the representatives, so the numbering
    itself, not only the partition, must match the least-key oracle."""

    # pair_orbits and orbit_reps form one row of least conjugates per
    # distinct centralizer: S4's class minima have five different ones (its
    # center is trivial), every minimum of a cyclic group has the
    # centralizer G, and the 45 and 50 minima of D(36,19) and D(40,21)
    # (tau = 18 and 20) have four each
    @pytest.mark.parametrize("name", ["S4", "C6", "C7", "C12", "D(36,19)", "D(40,21)"]
                             + SMALL_PAIRS)
    def test_matches_least_key_oracle(self, name):
        g = named_group(name)
        ids, reps = pair_orbits(g)
        oracle_ids, oracle_reps = oracle_least_keys(g.mult)
        assert reps.tolist() == oracle_reps
        assert ids.tolist() == oracle_ids
        # the representatives alone, read off the same rows with no ids
        assert orbit_reps(g).tolist() == oracle_reps

    def test_one_row_per_distinct_centralizer(self):
        # the class minima of D(n,s) have exactly min(tau, n/tau) + 2
        # distinct centralizers, so as many rows of least conjugates are formed
        for n in range(3, 201):
            for s in valid_twists(n):
                params = validate_params(n, s)
                _, _, rows = groups._least_conjugates(build_group(params))
                assert len(rows) == min(params.tau, n // params.tau) + 2, (n, s)
