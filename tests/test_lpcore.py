import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcassort import lpcore, mcdlp, simlab
from mcassort.lpcore import LpError, LpModel, LpStats, solve
from mcassort.mcdlp import McdlpVariant
from scalar_oracles import bincount_reduced_costs, pair_model


def brute_force_lp(objective, rows, upper, lower=None):
    """Vertex-enumeration oracle: try every choice of n active constraints
    among rows and bounds, solve the linear system, keep the feasible best."""
    n = len(objective)
    lower = lower or [0.0] * n
    A, b = [], []
    for coeffs, rhs, _ in rows:
        arow = [0.0] * n
        for j, a in coeffs:
            arow[j] += a
        A.append(arow)
        b.append(rhs)
    planes = [(np.array(arow), rhs) for arow, rhs in zip(A, b)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, upper[j]))
        planes.append((-e, -lower[j]))
    best_val, best_x = None, None
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[k][0] for k in combo])
        rhs = np.array([planes[k][1] for k in combo])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, rhs)
        ok = all(np.dot(a, x) <= r + 1e-9 for a, r in planes)
        if not ok:
            continue
        val = float(np.dot(objective, x))
        if best_val is None or val > best_val:
            best_val, best_x = val, x
    return best_val, best_x


class TestSolve:
    def test_single_variable_binding_row(self):
        m = pair_model([1.0], [([(0, 1.0)], 0.7, ("cap",))], [1.0])
        s = solve(m)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(0.7)
        assert s.dual(("cap",)) == pytest.approx(1.0)

    def test_toy_matching_lp(self):
        # one item, one type, T=1, q=1, p=0.5, r=2, patience 1
        m = pair_model(
            [1.0],
            [([(0, 0.5)], 1.0, ("inventory", 0)),
             ([(0, 0.5)], 1.0, ("sell_one", 0)),
             ([(0, 1.0)], 1.0, ("patience", 0))],
            [1.0],
        )
        s = solve(m)
        assert s.objective == pytest.approx(1.0)
        assert s.x[0] == pytest.approx(1.0)

    def test_infeasible(self):
        m = pair_model([1.0], [([(0, 1.0)], -1.0, None)], [1.0])
        assert solve(m).status == "infeasible"

    def test_slack_row_dual_is_zero(self):
        m = pair_model(
            [1.0],
            [([(0, 1.0)], 0.5, ("tight",)), ([(0, 1.0)], 10.0, ("slack",))],
            [1.0],
        )
        s = solve(m)
        assert s.dual(("slack",)) == pytest.approx(0.0, abs=1e-9)
        assert s.dual(("tight",)) >= -1e-9

    def test_degenerate_duplicated_rows(self):
        rows = [([(0, 1.0), (1, 1.0)], 1.0, ("a",)),
                ([(0, 1.0), (1, 1.0)], 1.0, ("b",)),
                ([(0, 1.0)], 0.6, ("c",))]
        m = pair_model([2.0, 1.0], rows, [1.0, 1.0])
        s = solve(m)
        ref, _ = brute_force_lp([2.0, 1.0], rows, [1.0, 1.0])
        assert s.objective == pytest.approx(ref, abs=1e-7)
        assert all(y >= -1e-9 for y in s.duals)
        # strong duality: c.x == y.b + bound terms, checked inside solve()

    def test_unknown_row_tag_raises(self):
        m = pair_model([1.0], [([(0, 1.0)], 0.7, ("cap",))], [1.0])
        s = solve(m)
        with pytest.raises(LpError):
            s.dual(("nope",))

    def test_requires_finite_upper_bound(self):
        with pytest.raises(LpError):
            pair_model([1.0], [], [float("inf")])


class TestRandomAgainstOracle:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(12345)
        for trial in range(40):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            obj = rng.uniform(-1, 2, n)
            rows = []
            for r in range(k):
                coeffs = [(j, float(rng.uniform(-0.5, 1.5))) for j in range(n)]
                rhs = float(rng.uniform(0.2, 2.5))
                rows.append((coeffs, rhs, None))
            upper = [float(u) for u in rng.uniform(0.5, 2.0, n)]
            m = pair_model(list(obj), rows, upper)
            s = solve(m)
            ref, _ = brute_force_lp(list(obj), rows, upper)
            assert s.status == "optimal"
            assert s.objective == pytest.approx(ref, abs=1e-7)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        n, k = 4, 5
        obj = list(rng.uniform(0, 2, n))
        rows = [([(j, float(rng.uniform(0, 1.5))) for j in range(n)],
                 float(rng.uniform(0.5, 2.0)), None) for _ in range(k)]
        upper = [1.0] * n
        m = pair_model(obj, rows, upper)
        s1, s2 = solve(m), solve(m)
        assert s1.x == s2.x
        assert s1.duals == s2.duals


def scalar_model_error(num_vars, objective, rows, lower, upper):
    """The per-coefficient validation loop the vectorized checks replaced:
    the message of the first violation, or None.  Shapes are checked before
    values: a row whose columns and values differ in length comes right
    after the bound lengths."""
    if len(objective) != num_vars:
        return "objective length mismatch"
    if len(lower) != num_vars or len(upper) != num_vars:
        return "bound length mismatch"
    for r, row in enumerate(rows):
        if len(row.cols) != len(row.vals):
            return f"row {r} ({row.tag!r}) has {len(row.cols)} columns and {len(row.vals)} values"
    for v in objective:
        if not np.isfinite(v):
            return "objective coefficients must be finite"
    for lo, hi in zip(lower, upper):
        if lo < 0 or not np.isfinite(lo):
            return "lower bounds must be finite and >= 0"
        if not np.isfinite(hi):
            return "every variable needs a finite upper bound"
        if hi < lo:
            return "upper bound below lower bound"
    for row in rows:
        if not np.isfinite(row.rhs):
            return "row rhs must be finite"
        for j, a in zip(row.cols, row.vals):
            if j < 0 or j >= num_vars:
                return f"row references unknown variable {j}"
            if not np.isfinite(a):
                return "row coefficients must be finite"
    return None


class TestModelValidation:
    def test_first_offender_matches_scalar_loop(self):
        rng = np.random.default_rng(77)
        bad_values = [np.inf, -np.inf, np.nan]
        seen = set()
        for trial in range(400):
            n = int(rng.integers(1, 6))
            objective = list(rng.uniform(-1, 1, n))
            lower = list(rng.uniform(0, 0.5, n))
            upper = [lo + 1.0 for lo in lower]
            rows = []
            for r in range(int(rng.integers(0, 6))):
                k = int(rng.integers(0, 4))
                cols = tuple(int(j) for j in rng.integers(0, n, size=k))
                rows.append(lpcore.LpRow(cols, tuple(float(a) for a in rng.uniform(-1, 1, k)),
                                         float(rng.uniform(0, 2)), ("row", r)))
            for _ in range(int(rng.integers(0, 4))):  # plant up to three violations anywhere
                kind = int(rng.integers(0, 8))
                j = int(rng.integers(0, n))
                if kind == 0:
                    objective[j] = bad_values[rng.integers(0, 3)]
                elif kind == 1:
                    lower[j] = [-0.5, np.inf, np.nan][rng.integers(0, 3)]
                elif kind == 2:
                    upper[j] = bad_values[rng.integers(0, 3)]
                elif kind == 3:
                    upper[j] = lower[j] - 0.25
                elif rows:
                    r = int(rng.integers(0, len(rows)))
                    row = rows[r]
                    if kind == 4:
                        rows[r] = dataclasses.replace(row, rhs=bad_values[rng.integers(0, 3)])
                    elif kind == 7:  # one value too many or too few
                        vals = row.vals[:-1] if row.vals and rng.random() < 0.5 else row.vals + (1.0,)
                        rows[r] = dataclasses.replace(row, vals=vals)
                    else:
                        col, val = (int(rng.choice([-1, n, n + 3])), 1.0) if kind == 5 else (j, bad_values[rng.integers(0, 3)])
                        k = int(rng.integers(0, min(len(row.cols), len(row.vals)) + 1))
                        rows[r] = dataclasses.replace(row, cols=row.cols[:k] + (col,) + row.cols[k:],
                                                      vals=row.vals[:k] + (val,) + row.vals[k:])
            args = (n, tuple(objective), tuple(rows), tuple(lower), tuple(upper))
            expected = scalar_model_error(*args)
            seen.add(expected)
            if expected is None:
                LpModel(*args)
            else:
                with pytest.raises(LpError) as err:
                    LpModel(*args)
                assert str(err.value) == expected
        # valid models and every message, those naming a variable or a row several times over
        numbered = [e for e in seen if e and (e.startswith("row references") or " columns and " in e)]
        assert len(seen) - len(numbered) == 7
        assert sum(" columns and " in e for e in numbered) >= 3 and len(numbered) >= 6

    def test_names_first_unknown_variable_in_row_order(self):
        rows = (
            lpcore.LpRow((0, 1), (1.0, 2.0), 1.0),
            lpcore.LpRow((1, 5, 7, 6), (1.0, np.inf, 1.0, 1.0), 1.0),
            lpcore.LpRow((9,), (1.0,), np.inf),
        )
        with pytest.raises(LpError, match="^row references unknown variable 5$"):
            LpModel(2, (1.0, 1.0), rows, (0.0, 0.0), (1.0, 1.0))
        rows = (rows[0], lpcore.LpRow((1, 5), (np.nan, 1.0), 1.0), rows[2])
        with pytest.raises(LpError, match="^row coefficients must be finite$"):
            LpModel(2, (1.0, 1.0), rows, (0.0, 0.0), (1.0, 1.0))

    def test_names_a_row_whose_columns_and_values_differ_in_length(self):
        rows = (lpcore.LpRow((0, 1), (1.0, 2.0), 1.0, ("a",)), lpcore.LpRow((0, 1, 1), (1.0, 2.0), 1.0, ("b", 3)))
        with pytest.raises(LpError, match=r"^row 1 \(\('b', 3\)\) has 3 columns and 2 values$"):
            LpModel(2, (1.0, 1.0), rows, (0.0, 0.0), (1.0, 1.0))

    def test_dense_adds_repeated_entries_in_row_order(self):
        m = LpModel(2, (1.0, 1.0), (lpcore.LpRow((1, 0, 1, 1), (0.1, 2.0, 0.2, 0.3), 1.0),), (0.0, 0.0), (1.0, 1.0))
        A, b = m.dense()
        assert A[0, 1] == (0.1 + 0.2) + 0.3
        assert A[0, 0] == 2.0 and b[0] == 1.0


def scalar_ratio_test(step, xB, lo, hi, basis):
    """The per-row ratio-test loop the vector form replaced."""
    delta = np.inf
    leave_pos = -1
    leave_to_upper = False
    for r in range(len(step)):
        if step[r] > lpcore._PIVOT_TOL:
            cap = (xB[r] - lo[r]) / step[r]
            new_upper = False
        elif step[r] < -lpcore._PIVOT_TOL:
            if not np.isfinite(hi[r]):
                continue
            cap = (hi[r] - xB[r]) / (-step[r])
            new_upper = True
        else:
            continue
        cap = max(cap, 0.0)
        if cap < delta - 1e-12 or (cap < delta + 1e-12 and leave_pos >= 0 and basis[r] < basis[leave_pos]):
            delta = cap
            leave_pos = r
            leave_to_upper = new_upper
    return delta, leave_pos, leave_to_upper


def _pool(values, lo, hi):
    return st.one_of(st.sampled_from(values), st.floats(lo, hi))


# exact ties, near-ties about 1e-12 apart, zero and negative caps, steps at
# the pivot tolerance, and caps that are infinite or overflow
_ratio_rows = st.tuples(
    _pool([1.0, -1.0, 0.5, -0.5, 2.0, -3.0, 1e-9, -1e-9, 1.5e-9, 0.0, 1e-300], -4.0, 4.0),
    _pool([0.0, 1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 5e-13, 1.0 + 2e-12, 1.0 + 3e-9,
           2.0, 0.5, 1e-13, -1e-12, 1e308], -1.0, 3.0),
    st.sampled_from([0.0, 0.0, 1.0, -np.inf]),
    st.sampled_from([np.inf, np.inf, 1.0, 2.0, 3.0, 1.0 + 1e-12, 1e308]),
)


@st.composite
def _ratio_cases(draw):
    rows = draw(st.lists(_ratio_rows, max_size=40))
    basis = draw(st.lists(st.integers(0, 10_000), min_size=len(rows), max_size=len(rows), unique=True))
    step, xB, lo, hi = (np.array(col, dtype=float) for col in zip(*rows)) if rows else [np.zeros(0)] * 4
    return step, xB, lo, hi, np.array(basis, dtype=np.intp)


class TestRatioTest:
    @settings(max_examples=400, deadline=None)
    @given(_ratio_cases())
    def test_vector_form_matches_scalar_loop(self, case):
        with np.errstate(over="ignore"):
            delta, row, to_upper = scalar_ratio_test(*case)
        got = lpcore._ratio_test(*case)
        assert got[1] == row
        assert got[0] == delta
        if row >= 0:
            assert got[2] == to_upper

    def test_tie_chain_past_the_cluster_scans_every_cap(self):
        # Caps 0.9e-12 apart on falling basis indices: each row ties with the
        # last and takes over, so the scan drifts to 1.8e-9, past the rows
        # near the smallest cap.  No clear gap follows that cluster, so every
        # row must be scanned.
        n = 2001
        case = (np.ones(n), np.arange(n) * 0.9e-12, np.zeros(n), np.full(n, np.inf), np.arange(n)[::-1].copy())
        expected = scalar_ratio_test(*case)
        assert expected[1] == n - 1
        assert lpcore._ratio_test(*case) == expected


def _one_blas_thread(script):
    """The JSON lines that ``script`` prints in a child process with one BLAS
    thread, the setting the pinned hotel cells were recorded with."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(mcdlp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in run.stdout.splitlines()]


_HOTEL_CELLS = """
import hashlib, json
import numpy as np
from mcassort import mcdlp, simlab
from mcassort.lpcore import TOL_FEAS, solve
from mcassort.mcdlp import McdlpVariant

def sha(values):
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()

template = simlab.gen_hotel_like(seed=0, n_types=24)
for lf, cell_seed in ((1.0, 1), (4.0, 2), (7.0, 3)):
    inst = simlab.build_hotel_instance(template, lf, 2.0, 2, 4, seed=cell_seed)
    sol = solve(mcdlp.build(inst, McdlpVariant.MMCDLP_NR))
    assert sol.stats.certificate_error <= TOL_FEAS
    print(json.dumps([lf, cell_seed, repr(sol.objective), sha(sol.x), sha(sol.duals)]))
"""


class TestHotelGolden:
    # MMCDLP-NR on the 24-type hotel template, sweep seed 0, patience 2, cap 4,
    # scale 2: (loading factor, cell seed, repr(objective), sha256 of x, sha256
    # of the duals), recorded with the no-repeat build's slack bounds
    GOLDEN = [
        [1.0, 1, "12126.61736488102",
         "d37e4615bd5e20390adb711e32ffd24bf49722fcb8a71a104b4987ac44a29617",
         "285bbe17320c5c61a2658975a10ef93e46b9164355576bd40b376608126c001d"],
        [4.0, 2, "4702.5508171197325",
         "b933bfd357a412912d18761c4f679a61e487da74884a51e8b2bdde63a73cfa38",
         "64bde80eb0f5343081f63e4b2741743292802c2b553adf62b0f789fd528b52f6"],
        [7.0, 3, "2236.9174876328557",
         "eba0b8eb70e5da84ebb5d11f59c1a96625562fc21f2a73ef78fef4d002e9a675",
         "51aba11302ca8210ce0240b47054eedbfb298f622a8e7ce21797814f53ab4b84"],
    ]

    def test_hotel24_cells_bit_identical(self):
        # A multithreaded BLAS splits matrix products across threads, which
        # regroups their sums (the first cell's objective moves by one ulp at
        # two threads), so the cells are solved in a child process with one
        # BLAS thread, as the benchmark runs them.
        assert _one_blas_thread(_HOTEL_CELLS) == self.GOLDEN


_HOTEL_PIVOTS = """
import json
from mcassort import mcdlp, simlab
from mcassort.lpcore import solve
from mcassort.mcdlp import McdlpVariant

template = simlab.gen_hotel_like(seed=0, n_types=24)
for lf, cell_seed in ((1.0, 1), (4.0, 2), (7.0, 3)):
    stats = solve(mcdlp.build(simlab.build_hotel_instance(template, lf, 2.0, 2, 4, seed=cell_seed),
                              McdlpVariant.MMCDLP_NR)).stats
    print(json.dumps([lf, stats.phase2_pivots, stats.bound_flips, stats.pricings, stats.degenerate_pivots]))
"""


class TestHotelPivotCounts:
    # The same cells as TestHotelGolden: (loading factor, phase-2 pivots,
    # bound flips, reduced-cost passes).  Every cell starts from a slack
    # basis that needs no phase 1; it prices once per basis it visits and
    # once more for the certificate, and never flips a bound: the no-repeat
    # build's slack bounds never bind.  The counts ride on the same pivot
    # path as the pinned bits, so they are solved in a one-thread child
    # process too: with pricing off the BLAS, the basis inverse from LAPACK
    # still moves last bits with the thread count.
    COUNTS = [[1.0, 711, 0, 713], [4.0, 127, 0, 129], [7.0, 44, 0, 46]]

    # (loading factor, degenerate pivots): basis changes whose step is at
    # most the pivot tolerance, two thirds of them on the first cell
    DEGENERATE = [[1.0, 474], [4.0, 30], [7.0, 13]]

    @pytest.fixture(scope="class")
    def counts(self):
        return _one_blas_thread(_HOTEL_PIVOTS)

    def test_hotel24_pivots_flips_and_pricings(self, counts):
        assert [row[:4] for row in counts] == self.COUNTS

    def test_hotel24_degenerate_pivots(self, counts):
        assert [[row[0], row[4]] for row in counts] == self.DEGENERATE


class TestStats:
    def test_counters_for_a_two_phase_solve(self):
        # x0 + x1 >= 1 needs an artificial, so phase 1 pivots at least once
        rows = [([(0, -1.0), (1, -1.0)], -1.0, ("cover",)), ([(0, 1.0), (1, 2.0)], 1.5, ("cap",))]
        s = solve(pair_model([1.0, 2.0], rows, [1.0, 1.0]))
        assert s.optimal
        stats = s.stats
        # phase 1 flips x0 to its upper bound and pivots x1 in for the
        # artificial, phase 2 pivots once more; refactors: the initial basis
        # and the certificate check
        assert (stats.phase1_pivots, stats.phase2_pivots, stats.bound_flips, stats.refactors) == (1, 1, 1, 2)
        assert stats.bland is False
        assert 0.0 <= stats.certificate_error <= lpcore.TOL_FEAS

    def test_stats_left_out_of_equality_and_repr(self):
        m = pair_model([1.0], [([(0, 1.0)], 0.7, ("cap",))], [1.0])
        s = solve(m)
        assert dataclasses.replace(s, stats=LpStats()) == s
        assert "stats" not in repr(s)

    def test_bound_flips_reuse_the_reduced_costs(self):
        # hardness-14 reaches its optimum by bound flips alone; the basis
        # never changes, so it is priced once, plus once for the certificate,
        # and no flip counts as a degenerate pivot
        stats = mcdlp.solve_variant(simlab.gen_hardness_instance(14), McdlpVariant.SINGLE_ITEM).lp.stats
        assert (stats.phase1_pivots, stats.phase2_pivots, stats.bound_flips, stats.degenerate_pivots) == (0, 0, 196, 0)
        assert stats.pricings == 2

    def test_infeasible_has_no_certificate(self):
        s = solve(pair_model([1.0], [([(0, 1.0)], -1.0, None)], [1.0]))
        assert s.status == "infeasible"
        assert s.stats.certificate_error is None


def _sparse_lp(rng, n, m):
    """Random LP whose rows each use at most a third of the columns, some
    with a repeated coefficient, and whose rows with a negative right-hand
    side need an artificial at the zero start."""
    rows = []
    for r in range(m):
        cols = rng.choice(n, size=int(rng.integers(1, max(2, n // 3) + 1)), replace=False)
        coeffs = [(int(j), float(rng.uniform(-2, 2))) for j in cols]
        if rng.random() < 0.3:
            coeffs.append((int(cols[0]), float(rng.uniform(-1, 1))))
        rhs = float(rng.uniform(-1.0, 2.0)) if r % 3 == 0 else float(rng.uniform(0.5, 3.0))
        rows.append((coeffs, rhs, None))
    return pair_model(list(rng.uniform(-1, 2, n)), rows, list(rng.uniform(0.5, 2.0, n)))


def _same_bits(got, want):
    """Equal arrays, NaNs in the same places and every sign bit equal, so
    that -0.0 and +0.0 count as different."""
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


class TestSparsePricing:
    def test_matches_dense_product_with_artificials(self):
        rng = np.random.default_rng(2024)
        with_art = 0
        for trial in range(60):
            n, m = int(rng.integers(2, 40)), int(rng.integers(1, 25))
            simplex = lpcore._Simplex(_sparse_lp(rng, n, m))
            simplex._install_artificials()
            with_art += bool(simplex.art)
            simplex._refactor()
            A = simplex.A
            cols = A.shape[1]
            # -0.0 entries in c and y: bincount sums from +0.0, so a column
            # whose products are all zero prices 0.0 - (+0.0), never - (-0.0)
            signed_zeros = np.where(rng.random(cols) < 0.3, -0.0, rng.normal(size=cols))
            for cvec in (simplex.c, rng.normal(size=cols), signed_zeros):
                y_rand = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
                y_signed = np.where(rng.random(m) < 0.5, -0.0, y_rand)
                for y in (cvec[simplex.basis] @ simplex.Binv, y_rand, y_signed):
                    got = simplex._reduced_costs(cvec, y)
                    assert _same_bits(got, bincount_reduced_costs(simplex, cvec, y))
                    dense = cvec - y @ A
                    scale = np.abs(cvec) + np.abs(y) @ np.abs(A)
                    assert got.shape == dense.shape
                    assert (np.abs(got - dense) <= 1e-12 * scale).all()
        assert with_art >= 20

    def test_model_without_rows_prices_the_objective(self):
        simplex = lpcore._Simplex(pair_model([1.0, -2.0, -0.0], [], [1.0, 1.0, 1.0]))
        got = simplex._reduced_costs(simplex.c, np.zeros(0))
        assert _same_bits(got, bincount_reduced_costs(simplex, simplex.c, np.zeros(0)))
        assert _same_bits(got, simplex.c)  # c - 0.0 keeps every bit of c, -0.0 included

    def test_infinite_dual_reaches_only_the_columns_of_its_row(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            simplex = lpcore._Simplex(_sparse_lp(rng, int(rng.integers(4, 30)), int(rng.integers(2, 15))))
            simplex._install_artificials()
            for r in range(simplex.m):
                y = rng.normal(size=simplex.m)
                y[r] = np.inf if (trial + r) % 2 else -np.inf
                with np.errstate(invalid="ignore"):  # a repeated entry can add inf and -inf
                    got = simplex._reduced_costs(simplex.c, y)
                    assert _same_bits(got, bincount_reduced_costs(simplex, simplex.c, y))
                touching = simplex.A[r] != 0
                touching[list(simplex.model.rows[r].cols)] = True
                assert np.isfinite(got[~touching]).all()
                assert not np.isfinite(got[touching]).any()

    def test_every_hotel24_pricing_matches_bincount(self):
        template = simlab.gen_hotel_like(seed=0, n_types=24)
        simplex = lpcore._Simplex(mcdlp.build(simlab.build_hotel_instance(template, 1.0, 2.0, 2, 4, seed=1),
                                              McdlpVariant.MMCDLP_NR))
        price, checked = simplex._reduced_costs, []

        def compared(cvec, y):
            got = price(cvec, y)
            checked.append(_same_bits(got, bincount_reduced_costs(simplex, cvec, y)))
            return got

        simplex._reduced_costs = compared
        sol = simplex.run()
        assert sol.optimal and len(checked) == sol.stats.pricings > 100
        assert all(checked)


def _variant_models():
    out = []
    for seed in (0, 1):
        matching = simlab.random_matching_instance(seed=seed, n=5, m=4, T=6)
        norepeat = simlab.random_norepeat_instance(seed=seed, n=5, cap=2, m=4)
        homog = simlab.random_homog_instance(seed=seed, n=5, cap=2, m=4)
        out += [
            (f"single-item-{seed}", mcdlp.build(matching, McdlpVariant.SINGLE_ITEM)),
            (f"mcdlp-r-{seed}", mcdlp.build(norepeat, McdlpVariant.MCDLP_R)),
            (f"mcdlp-nr-{seed}", mcdlp.build(norepeat, McdlpVariant.MCDLP_NR)),
            (f"mcdlp-nrs-{seed}", mcdlp.build(homog, McdlpVariant.MCDLP_NRS)),
        ]
        fam = norepeat.family.assortments(norepeat.n_products)[:6]
        out.append((f"colgen-master-{seed}", mcdlp.build(norepeat, McdlpVariant.MCDLP_NR, fam)))
    hotel = simlab.build_hotel_instance(simlab.gen_hotel_like(seed=2, n_types=6), 2.0, 2.0, 2, 3, seed=1)
    out.append(("mmcdlp-nr", mcdlp.build(hotel, McdlpVariant.MMCDLP_NR)))
    return out


_VARIANT_MODELS = _variant_models()
_NO_REPEAT_MODELS = [(name, model) for name, model in _VARIANT_MODELS
                     if any(row.tag[0] == "overlap" for row in model.rows)]


def _highs(model):
    linprog = pytest.importorskip("scipy.optimize").linprog
    A, b = model.dense()
    res = linprog(-np.array(model.objective), A_ub=A if len(b) else None, b_ub=b if len(b) else None,
                  bounds=list(zip(model.lower, model.upper)), method="highs")
    return res


def _cross_certify(model, home):
    """HiGHS agrees with the home solver on status and objective, and each
    solver's duals certify the other's primal point."""
    res = _highs(model)
    if home.status == "infeasible":
        assert res.status == 2
        return
    assert home.optimal and res.status == 0
    highs_obj = -res.fun
    assert home.objective == pytest.approx(highs_obj, rel=1e-9, abs=1e-9)
    checker = lpcore._Simplex(model)
    A, b = model.dense()

    def full(x):
        x = np.asarray(x, dtype=float)
        return np.concatenate([x, b - A @ x])

    y_highs = -res.ineqlin.marginals if len(b) else np.zeros(0)
    assert checker._certificate_error(full(home.x), y_highs) <= lpcore.TOL_FEAS
    assert checker._certificate_error(full(res.x), np.array(home.duals)) <= lpcore.TOL_FEAS


class TestImpliedUnitBounds:
    """A no-repeat LP's overlap rows cap every non-empty set's weight at 1, so
    forcing its slack bounds back to 1 leaves the optimum where it was."""

    @staticmethod
    def _same_optimum(model):
        unit = dataclasses.replace(model, upper=(1.0,) * model.num_vars)
        assert unit != model
        assert solve(model).objective == pytest.approx(solve(unit).objective, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("model", [m for _, m in _NO_REPEAT_MODELS], ids=[name for name, _ in _NO_REPEAT_MODELS])
    def test_variant_models(self, model):
        self._same_optimum(model)

    def test_hotel24_cells(self):
        template = simlab.gen_hotel_like(seed=0, n_types=24)
        for lf, cell_seed in ((1.0, 1), (4.0, 2), (7.0, 3)):
            inst = simlab.build_hotel_instance(template, lf, 2.0, 2, 4, seed=cell_seed)
            self._same_optimum(mcdlp.build(inst, McdlpVariant.MMCDLP_NR))


class TestAgainstHighs:
    @pytest.mark.parametrize("model", [m for _, m in _VARIANT_MODELS], ids=[name for name, _ in _VARIANT_MODELS])
    def test_mcdlp_variants(self, model):
        _cross_certify(model, solve(model))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_bounded_lps(self, data):
        pytest.importorskip("scipy")
        n = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(0, 8))
        half = st.integers(-4, 8).map(lambda v: v / 2)
        objective = data.draw(st.lists(half, min_size=n, max_size=n))
        lower = data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5]), min_size=n, max_size=n))
        width = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n))
        rows = []
        for _ in range(k):
            coeffs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), half), max_size=n))
            rows.append((coeffs, data.draw(st.integers(-2, 12).map(lambda v: v / 2)), None))
        model = pair_model(objective, rows, [lo + w for lo, w in zip(lower, width)], lower)
        _cross_certify(model, solve(model))
