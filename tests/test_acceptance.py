"""Acceptance criteria, one test per criterion.

Every assertion is exact (discrete algebra, zero tolerance).  Each test
prints a single PASS line on success; timed criteria assert their stated
budgets.
"""

import random
import time
from itertools import product

from scalar_reference import (
    bifunctor_gamma,
    chi,
    compose_cones,
    linked_pairs,
    principal_pair,
    rbg,
    s_tilde_mul,
)

from crossconn import (
    Cone,
    CrossConnection,
    LinkedPair,
    Morphism,
    ReesElement,
    ReesSemigroup,
    SandwichMatrix,
    builtin,
    cone_table,
    enumerate_TL,
    from_table,
    green_via_ideals,
    identity_matrix,
    injectivity_criterion,
    left_category,
    mul_L,
    pair_arrays,
    right_category,
    verify_phi,
)
from crossconn.oracle import associativity_witness, canonical_partition, is_regular
from crossconn.cones import coset_normalize


def _report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def _named_fixtures():
    z2 = builtin("cyclic", 2)
    z3 = builtin("cyclic", 3)
    s3 = builtin("symmetric", 3)
    large = [[(lam * i) % 2 for i in range(16)] for lam in range(16)]
    return [
        ("S1", ReesSemigroup(SandwichMatrix(z2, [[0, 0], [0, 1]]))),
        ("Z3 2x2", ReesSemigroup(SandwichMatrix(z3, [[0, 1], [2, 0]]))),
        ("S3 2x2", ReesSemigroup(SandwichMatrix(s3, [[0, 3], [1, 0]]))),
        ("klein identity", ReesSemigroup(identity_matrix(builtin("klein"), 2, 2))),
        ("Z2 16x16", ReesSemigroup(SandwichMatrix(z2, large))),
    ]


def _random_fixtures(count, groups, max_dim, rng):
    out = []
    for k in range(count):
        G = groups[k % len(groups)]
        rows, cols = rng.randint(1, max_dim), rng.randint(1, max_dim)
        entries = [[rng.randrange(G.order) for _ in range(cols)] for _ in range(rows)]
        out.append((f"random {G.order}x{rows}x{cols} #{k}", ReesSemigroup(SandwichMatrix(G, entries))))
    return out


def test_criterion_01_rees_axioms():
    for name, S in _named_fixtures():
        assert S.size <= 512
        start = time.perf_counter()
        table = S.index_table()
        assert associativity_witness(table) is None, name
        assert is_regular(from_table(table)), name
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{name} took {elapsed:.2f}s"
    _report(1, "Rees product associative and regular on every fixture")


def test_criterion_02_idempotent_law():
    rng = random.Random(20260810)
    groups = [builtin("cyclic", 2), builtin("cyclic", 3), builtin("symmetric", 3)]
    for _, S in _random_fixtures(20, groups, 3, rng):
        expected = {
            ReesElement(S.group.inv(S.matrix.entry(lam, i)), i, lam)
            for i in range(S.n_i)
            for lam in range(S.n_lambda)
        }
        brute = {x for x in S.elements() if S.mul(x, x) == x}
        assert set(S.idempotents()) == expected == brute
        assert len(expected) == S.n_i * S.n_lambda
    _report(2, "idempotents are exactly the inverted-entry triples on 20 random fixtures")


def test_criterion_03_cone_semigroup_oracle_equivalence():
    start = time.perf_counter()
    for order in (1, 2, 3):
        G = builtin("cyclic", order)
        for n_lambda in (1, 2, 3):
            cones = enumerate_TL(G, n_lambda)
            cat = left_category(G, n_lambda)
            index = {c: k for k, c in enumerate(cones)}
            direct = cone_table(G, cones)
            first_principles = [
                [index[compose_cones(cat, c1, c2)] for c2 in cones] for c1 in cones
            ]
            assert direct.tolist() == first_principles
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(3, "semidirect product table equals the componentwise cone-composition table")


def test_criterion_04_principal_cone_homomorphism():
    for name, S in _named_fixtures():
        G = S.group
        rho = {}
        lam = {}
        for a in S.elements():
            rho[a], lam[a] = principal_pair(S, a)
        for a in S.elements():
            for b in S.elements():
                ab = S.mul(a, b)
                assert mul_L(G, rho[a], rho[b]) == rho[ab], name
                assert mul_L(G.opposite, lam[b], lam[a]) == lam[ab], name
    _report(4, "a -> rho^a is a homomorphism and a -> lambda^a is anti-compatible")


def test_criterion_05_injectivity_equivalence_all_z2_matrices():
    z2 = builtin("cyclic", 2)
    count = 0
    for bits in product(range(2), repeat=4):
        P = SandwichMatrix(z2, [[bits[0], bits[1]], [bits[2], bits[3]]])
        S = ReesSemigroup(P)
        images = {principal_pair(S, a)[0] for a in S.elements()}
        assert injectivity_criterion(P).holds == (len(images) == S.size)
        count += 1
    assert count == 16
    _report(5, "column-scaling criterion equals principal-cone injectivity on all 16 matrices")


def test_criterion_06_green_oracle_agreement():
    for order in (1, 2, 3):
        G = builtin("cyclic", order)
        for n_lambda in (1, 2):
            cones = enumerate_TL(G, n_lambda)
            T = from_table(cone_table(G, cones))
            by_vertex = {}
            by_coset = {}
            for k, c in enumerate(cones):
                by_vertex.setdefault(c.vertex, []).append(k)
                by_coset.setdefault(coset_normalize(G, "left", c.values), []).append(k)
            assert canonical_partition(by_vertex.values()) == green_via_ideals(T)["L"]
            assert canonical_partition(by_coset.values()) == green_via_ideals(T)["R"]
    _report(6, "vertex/coset predicates match the ideal-based Green partitions")


def test_criterion_07_duality_and_naturality():
    z2 = builtin("cyclic", 2)
    z3 = builtin("cyclic", 3)
    s3 = builtin("symmetric", 3)
    fixtures = [
        CrossConnection(SandwichMatrix(z2, [[0, 0], [0, 1]])),
        CrossConnection(SandwichMatrix(z3, [[0, 1], [2, 0]])),
        CrossConnection(SandwichMatrix(s3, [[0, 3], [1, 0]])),
    ]
    for conn in fixtures:
        G = conn.group
        for lam in range(conn.n_lambda):
            for i in range(conn.n_i):
                cell = {
                    Cone(tuple(G.mul(p, g) for p in conn.matrix.column(i)), lam)
                    for g in G.elements()
                }
                assert len(cell) == G.order
                images = {chi(conn, c, i) for c in cell}
                assert len(images) == G.order
        for l1, l2, i1, i2 in product(
            range(conn.n_lambda), range(conn.n_lambda), range(conn.n_i), range(conn.n_i)
        ):
            for g1, g2 in product(G.elements(), repeat=2):
                rho_m = Morphism(l1, l2, g2)
                kappa_m = Morphism(i1, i2, g1)
                for g in G.elements():
                    cone = Cone(tuple(G.mul(p, g) for p in conn.matrix.column(i1)), l1)
                    via_gamma = chi(conn, bifunctor_gamma(conn, rho_m, kappa_m, cone), i2)
                    via_delta = bifunctor_gamma(conn.opposite, kappa_m, rho_m, chi(conn, cone, i1))
                    assert via_gamma == via_delta
    _report(7, "all cell bijections have group cardinality and all naturality squares commute")


def test_criterion_08_main_theorem_isomorphism():
    rng = random.Random(1951)
    z3 = builtin("cyclic", 3)
    s3 = builtin("symmetric", 3)
    fixtures = _named_fixtures()
    fixtures += _random_fixtures(5, [z3], 3, rng)
    fixtures += _random_fixtures(5, [s3], 2, rng)
    for name, S in fixtures:
        assert S.size <= 512
        start = time.perf_counter()
        report = verify_phi(S, pair_arrays(S))
        elapsed = time.perf_counter() - start
        assert report.closed, name
        assert report.is_isomorphism, (name, report.map_check)
        assert elapsed < 10.0, f"{name} took {elapsed:.2f}s"
    _report(8, "phi is a bijective homomorphism onto the linked-pair semigroup everywhere")


def test_criterion_09_rectangular_band_corollary():
    z2 = builtin("cyclic", 2)
    conn = rbg(z2, 2, 2)
    pairs = linked_pairs(conn)
    assert len(pairs) == 8
    checked = 0
    for p in pairs:
        for q in pairs:
            g = z2.mul(p.gamma.values[0], q.gamma.values[0])
            expected = LinkedPair(
                Cone((g, g), q.gamma.vertex), Cone((g, g), p.delta.vertex)
            )
            assert s_tilde_mul(conn, p, q) == expected
            checked += 1
    assert checked == 64
    S = ReesSemigroup(identity_matrix(z2, 2, 2))
    assert verify_phi(S, pair_arrays(S)).is_isomorphism
    _report(9, "rectangular band of groups follows the broadcast product formula")


def test_criterion_10_groupoid_and_inverse_formulas():
    z3 = builtin("cyclic", 3)
    s3 = builtin("symmetric", 3)
    for G, n in ((z3, 2), (s3, 2)):
        for cat in (left_category(G, n), right_category(G, n)):
            for m in cat.morphisms():
                inv = cat.invert(m)
                assert cat.is_identity(cat.compose(m, inv))
                assert cat.is_identity(cat.compose(inv, m))

    # The two explicit inverse recipes on S1.  A morphism lam1 -> lam2 carried
    # by g is realized by right translation with any u = (k, j, lam2) where
    # p[lam1][j] * k = g.
    z2 = builtin("cyclic", 2)
    S = ReesSemigroup(SandwichMatrix(z2, [[0, 0], [0, 1]]))
    G, P = S.group, S.matrix
    cat = left_category(G, S.n_lambda)
    for lam1, lam2 in product(range(S.n_lambda), repeat=2):
        for j, i in product(range(S.n_i), repeat=2):
            for k in G.elements():
                g = G.mul(P.entry(lam1, j), k)
                m = Morphism(lam1, lam2, g)
                # right inverse u' = (g', i, lam1): the translation it induces
                # from lam2 carries p[lam2][i] * g', the abstract inverse
                g_r = G.mul(G.inv(P.entry(lam2, i)), G.mul(G.inv(k), G.inv(P.entry(lam1, j))))
                assert G.mul(P.entry(lam2, i), g_r) == cat.invert(m).g
                u = ReesElement(k, j, lam2)
                u_r = ReesElement(g_r, i, lam1)
                for x in S.elements():
                    if x.lam == lam1:
                        assert S.mul(S.mul(x, u), u_r) == x
                # left inverse scalar g'': g'' * p[lam1][i] * g = e, so the
                # composite through the Rees product is the identity again
                g_l = G.mul(G.inv(k), G.mul(G.inv(P.entry(lam1, j)), G.inv(P.entry(lam1, i))))
                assert G.mul(G.mul(g_l, P.entry(lam1, i)), g) == G.identity
                v = ReesElement(G.mul(P.entry(lam1, j), k), i, lam2)
                for y in S.elements():
                    if y.lam == lam2:
                        assert S.mul(ReesElement(G.mul(y.g, g_l), y.i, lam1), v) == y
    _report(10, "every morphism has a two-sided inverse and both inverse recipes reproduce it")
