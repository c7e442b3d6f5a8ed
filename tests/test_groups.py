import numpy as np
import pytest

from helpers import (cyclic_table, oracle_burnside_pairs, oracle_centralizer,
                     oracle_conjugacy_partition, oracle_inverse, oracle_least_keys,
                     oracle_pair_orbits, s4_table)
from terwilliger import (GroupTable, build_group, centralizer_counts,
                         conjugacy_classes, generic_conjugacy_classes,
                         orbital_count, valid_twists, validate_params)
from terwilliger.groups import pair_orbits


def named_group(name: str) -> GroupTable:
    """S4, a cyclic group written as "Cm", or a twisted dihedral group
    written as "D(n,s)"."""
    if name == "S4":
        return GroupTable(s4_table(), name="S4")
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

    def test_element_names(self):
        params = validate_params(4, 3)
        g = build_group(params)
        assert g.element_name(0) == "e"
        assert g.element_name(1) == "a"
        assert g.element_name(4) == "b"
        assert g.element_name(6) == "b a^2"
        # the names depend only on n, so the parameters give them without a table
        assert [params.element_name(x) for x in range(8)] == \
            [g.element_name(x) for x in range(8)]
        assert named_group("C6").element_name(5) == "g5"


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

    @pytest.mark.parametrize("n,s", [(3, 2), (4, 3), (5, 4), (8, 3), (8, 5),
                                     (9, 8), (12, 5), (12, 7), (12, 11)])
    def test_matches_oracle_partition(self, n, s):
        g = build_group(validate_params(n, s))
        c = conjugacy_classes(g)
        assert {frozenset(cl) for cl in c.classes} == oracle_conjugacy_partition(g.mult)

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

    def test_generic_s4(self):
        g = GroupTable(s4_table(), name="S4")
        c = generic_conjugacy_classes(g)
        assert sorted(c.sizes()) == [1, 3, 6, 6, 8]
        assert c.identity_class == 0


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
        assert orbital_count(g) == expected
        assert oracle_burnside_pairs(g.mult) == expected

    def test_equals_sum_of_rep_centralizers(self):
        for n, s in [(5, 4), (8, 7), (12, 7)]:
            g = build_group(validate_params(n, s))
            c = conjugacy_classes(g)
            assert orbital_count(g) == sum(c.centralizer_orders)

    def test_generic_s4(self):
        g = GroupTable(s4_table(), name="S4")
        assert orbital_count(g) == oracle_burnside_pairs(g.mult)


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
    """The closure coordinates index the orbits by ids, so the numbering
    itself, not only the partition, must match the least-key oracle."""

    # pair_orbits forms one row of least conjugates per distinct centralizer:
    # S4's class minima have five different ones (its center is trivial),
    # every minimum of a cyclic group has the centralizer G, and the 45 and
    # 50 minima of D(36,19) and D(40,21) (tau = 18 and 20) have four each
    @pytest.mark.parametrize("name", ["S4", "C6", "C7", "C12", "D(36,19)", "D(40,21)"]
                             + SMALL_PAIRS)
    def test_matches_least_key_oracle(self, name):
        g = named_group(name)
        ids, reps = pair_orbits(g)
        oracle_ids, oracle_reps = oracle_least_keys(g.mult)
        assert reps.tolist() == oracle_reps
        assert ids.tolist() == oracle_ids
