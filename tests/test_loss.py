import math

import numpy as np
import pytest

from ccmabeam.optimizer import gradcheck
from ccmabeam.loss import L2_TOLERANCE, BandLossTerms, LossConfig, total_loss
from oracles import loss_l1

TARGETS = dict(target_theta=math.radians(40.0), target_phi=math.radians(40.0))


def cfg(variant="L1", **kw):
    return LossConfig(variant=variant, **{**TARGETS, **kw})


def deg(x):
    return math.radians(x)


def loss_l2(theta, phi, df, c):
    """One band's L2 value through the full assembly."""
    return total_loss([theta], [phi], [df], [1.0], c)[0]


def scalar_reference(thetas, phis, dfs, wngs, c):
    """The loss band by band in plain floats: (total, branches, partials)."""
    branches, total, grads = [], 0.0, []
    perfs = []
    for t, p, d, w in zip(thetas, phis, dfs, wngs):
        value = -(c.alpha * math.log10(d)) - ((1.0 - c.alpha) * math.log10(w))
        p_df, p_wng = -c.alpha / (d * math.log(10.0)), -(1.0 - c.alpha) / (w * math.log(10.0))
        perfs.append((value, p_df, p_wng))
        over_t, over_p = t > c.target_theta, p > c.target_phi
        if over_t or over_p:
            branches.append({(1, 0): "theta", (0, 1): "phi", (1, 1): "both"}[over_t, over_p])
            total += t * over_t + p * over_p
            grads.append([float(over_t), float(over_p), 0.0, 0.0])
            continue
        flip = c.variant == "L2" and t < c.target_theta - L2_TOLERANCE
        flip = flip and p < c.target_phi - L2_TOLERANCE
        branches.append("perf")
        total += -value if flip else value
        grads.append([0.0, 0.0, -p_df if flip else p_df, p_wng])
    n = len(thetas)
    for weight, values, k in ((c.lambda1, dfs, 2), (c.lambda2, wngs, 3)):
        if weight > 0.0:
            mean = sum(values) / n
            std = math.sqrt(sum((v - mean) * (v - mean) for v in values) / n + 1e-12)
            total += weight * std
            for b, v in enumerate(values):
                grads[b][k] += weight * ((v - mean) / (n * std))
    for lo in range(1, n // 2):
        hi = n - 1 - lo
        gap = perfs[lo][0] - perfs[hi][0]
        total += c.lambda3 * abs(gap)
        s = c.lambda3 * ((gap > 0.0) - (gap < 0.0))
        for b, sign in ((lo, s), (hi, -s)):
            grads[b][2] += sign * perfs[b][1]
            grads[b][3] += sign * perfs[b][2]
    return total, branches, np.array(grads).T


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(variant="L9")
        with pytest.raises(ValueError):
            cfg(alpha=1.5)
        with pytest.raises(ValueError):
            cfg(lambda1=-0.1)
        with pytest.raises(ValueError):
            LossConfig(variant="L1", target_theta=0.0, target_phi=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "lambda3"])
    def test_validation_rejects_non_finite_lambda(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            cfg(variant="L3", alpha=0.7, **{name: value})


class TestL1:
    def test_theta_overshoot_branch(self):
        loss = loss_l1(deg(50.0), deg(30.0), 10.0, cfg())
        assert loss == deg(50.0)

    def test_phi_overshoot_branch(self):
        loss = loss_l1(deg(30.0), deg(50.0), 10.0, cfg())
        assert loss == deg(50.0)

    def test_directivity_branch(self):
        assert loss_l1(deg(30.0), deg(30.0), 10.0, cfg()) == -1.0

    def test_both_exceed_penalizes_sum(self):
        loss = loss_l1(deg(50.0), deg(50.0), 10.0, cfg())
        assert loss == deg(50.0) + deg(50.0)

    def test_boundary_is_inclusive_under(self):
        # exactly on target counts as satisfied: directivity branch
        assert loss_l1(deg(40.0), deg(40.0), 100.0, cfg()) == -2.0

    def test_branch_discontinuity_documented(self):
        eps = 1e-9
        above = loss_l1(TARGETS["target_theta"] + eps, deg(30.0), 10.0, cfg())
        below = loss_l1(TARGETS["target_theta"] - eps, deg(30.0), 10.0, cfg())
        assert above == pytest.approx(TARGETS["target_theta"], abs=1e-8)
        assert below == -1.0  # jump across the boundary is expected
        # continuity within the branch
        above2 = loss_l1(TARGETS["target_theta"] + 2.0 * eps, deg(30.0), 10.0, cfg())
        assert abs(above2 - above) <= 2.0 * eps + 1e-15


class TestL2:
    def test_well_under_target_reduces_directivity(self):
        loss = loss_l2(deg(20.0), deg(20.0), 10.0, cfg(variant="L2"))
        assert loss == 1.0

    def test_overshoot_shares_l1_branch(self):
        loss = loss_l2(deg(50.0), deg(30.0), 10.0, cfg(variant="L2"))
        assert loss == deg(50.0)

    def test_exactly_on_target_keeps_maximizing(self):
        loss = loss_l2(deg(40.0), deg(40.0), 10.0, cfg(variant="L2"))
        assert loss == -1.0

    def test_tolerance_band_is_one_degree(self):
        c = cfg(variant="L2")
        just_inside = loss_l2(deg(39.5), deg(39.5), 10.0, c)
        assert just_inside == -1.0  # within 1 degree of target: no flip
        well_under = loss_l2(
            TARGETS["target_theta"] - L2_TOLERANCE - 1e-9,
            TARGETS["target_phi"] - L2_TOLERANCE - 1e-9,
            10.0,
            c,
        )
        assert well_under == 1.0

    def test_one_sided_undershoot_keeps_maximizing(self):
        assert loss_l2(deg(39.0), deg(20.0), 10.0, cfg(variant="L2")) == -1.0

    def test_partials_follow_only_the_active_branch(self):
        """The partials in the snapshot follow only the active branch."""
        _, snap = total_loss([deg(20.0)], [deg(20.0)], [10.0], [5.0], cfg(variant="L2"))
        # broadening branch: only the directivity carries gradient, sign +
        assert snap.d_theta.tolist() == [0.0] and snap.d_phi.tolist() == [0.0]
        assert snap.d_wng.tolist() == [0.0]
        assert snap.d_df[0] == pytest.approx(1.0 / (10.0 * math.log(10.0)), rel=1e-12)


class TestL3:
    def test_reduces_to_l1_bit_identically(self):
        rng = np.random.default_rng(9)
        c3 = cfg(variant="L3", alpha=1.0, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        c1 = cfg(variant="L1")
        for _ in range(50):
            n = rng.integers(2, 8)
            thetas = list(rng.uniform(deg(10.0), deg(80.0), n))
            phis = list(rng.uniform(deg(10.0), deg(80.0), n))
            dfs = list(rng.uniform(0.5, 500.0, n))
            wngs = list(rng.uniform(0.5, 200.0, n))
            t3, snap = total_loss(thetas, phis, dfs, wngs, c3)
            l1_terms = [loss_l1(t, p, d, c1) for t, p, d in zip(thetas, phis, dfs)]
            assert t3 == sum(l1_terms)
            assert snap.i_term == 0.0 and snap.delta_term == 0.0

    @pytest.mark.parametrize("n", range(2, 17))
    def test_reduces_to_l1_sum_at_every_band_count(self, n):
        """The identity holds bit for bit at band counts where a pairwise
        summation (np.sum from 8 elements on) would reorder the additions."""
        rng = np.random.default_rng(100 + n)
        c3 = cfg(variant="L3", alpha=1.0, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        c1 = cfg(variant="L1")
        for _ in range(20):
            thetas = rng.uniform(deg(10.0), deg(80.0), n).tolist()
            phis = rng.uniform(deg(10.0), deg(80.0), n).tolist()
            dfs = rng.uniform(0.5, 500.0, n).tolist()
            wngs = rng.uniform(0.5, 200.0, n).tolist()
            t3, _ = total_loss(thetas, phis, dfs, wngs, c3)
            assert t3 == sum(loss_l1(t, p, d, c1) for t, p, d in zip(thetas, phis, dfs))

    def test_identical_bands_zero_regularizers(self):
        c = cfg(variant="L3", alpha=0.5, lambda1=1.0, lambda2=1.0, lambda3=0.1)
        total, snap = total_loss(
            [deg(30.0)] * 4, [deg(30.0)] * 4, [10.0] * 4, [5.0] * 4, c
        )
        assert snap.i_term == pytest.approx(0.0, abs=1e-5)
        assert snap.delta_term == pytest.approx(0.0, abs=1e-12)

    def test_two_band_population_std(self):
        c = cfg(variant="L3", alpha=1.0, lambda1=1.0)
        total, snap = total_loss(
            [deg(30.0)] * 2, [deg(30.0)] * 2, [10.0, 1000.0], [5.0, 5.0], c
        )
        assert snap.i_term == pytest.approx(495.0, abs=1e-9)
        assert total == pytest.approx(-1.0 - 3.0 + 495.0, abs=1e-9)

    def test_alpha_trades_df_against_wng(self):
        c = cfg(variant="L3", alpha=0.25)
        total, snap = total_loss(
            [deg(30.0)] * 2, [deg(30.0)] * 2, [100.0, 100.0], [10.0, 10.0], c
        )
        per_band = -(0.25 * 2.0) - (0.75 * 1.0)
        assert total == pytest.approx(2.0 * per_band, rel=1e-12)

    def test_difference_term_pairs_opposing_bands(self):
        c = cfg(variant="L3", alpha=1.0, lambda3=1.0)
        dfs = [10.0, 100.0, 10.0, 1000.0, 10.0, 10.0]  # F = 6
        total, snap = total_loss(
            [deg(30.0)] * 6, [deg(30.0)] * 6, dfs, [5.0] * 6, c
        )
        # pairs (1-based): (2, 5) and (3, 4); P = -log10 DF
        expect = abs(-2.0 - (-1.0)) + abs(-1.0 - (-3.0))
        assert snap.delta_term == pytest.approx(expect, rel=1e-12)

    def test_palindromic_performance_zeroes_delta(self):
        c = cfg(variant="L3", alpha=1.0, lambda3=2.0)
        dfs = [10.0, 100.0, 1000.0, 1000.0, 100.0, 10.0]
        _, snap = total_loss([deg(30.0)] * 6, [deg(30.0)] * 6, dfs, [5.0] * 6, c)
        assert snap.delta_term == 0.0

    def test_regularizers_non_negative(self):
        rng = np.random.default_rng(31)
        c = cfg(variant="L3", alpha=0.3, lambda1=0.7, lambda2=0.4, lambda3=0.05)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            total, snap = total_loss(
                list(rng.uniform(deg(10), deg(80), n)),
                list(rng.uniform(deg(10), deg(80), n)),
                list(rng.uniform(0.5, 500.0, n)),
                list(rng.uniform(0.5, 200.0, n)),
                c,
            )
            assert snap.i_term >= 0.0
            assert snap.delta_term >= 0.0
            assert math.isfinite(total)

    def test_needs_two_bands(self):
        with pytest.raises(ValueError):
            total_loss([deg(30.0)], [deg(30.0)], [10.0], [5.0], cfg(variant="L3"))


class TestTotalLoss:
    def test_dispatch_and_snapshot(self):
        c = cfg(variant="L1")
        total, snap = total_loss(
            [deg(50.0), deg(30.0)], [deg(30.0)] * 2, [10.0, 100.0], [5.0, 6.0], c
        )
        assert isinstance(snap, BandLossTerms)
        assert snap.branches == ["theta", "perf"]
        assert total == deg(50.0) + (-2.0)
        per_band = [loss_l1(deg(50.0), deg(30.0), 10.0, c), loss_l1(deg(30.0), deg(30.0), 100.0, c)]
        assert per_band == [deg(50.0), -2.0]
        assert snap.wng.tolist() == [5.0, 6.0]

    def test_l2_dispatch(self):
        c = cfg(variant="L2")
        total, snap = total_loss(
            [deg(20.0)], [deg(20.0)], [10.0], [5.0], c
        )
        assert total == 1.0

    def test_l3_dispatch_matches_direct(self):
        c = cfg(variant="L3", alpha=0.5, lambda1=0.5)
        args = ([deg(30.0)] * 3, [deg(50.0), deg(30.0), deg(30.0)], [10.0] * 3, [5.0] * 3)
        # band 0 pays its phi overshoot, the others the alpha-mixed performance
        # term; equal DFs leave only STD_EPS under the std's root
        perf = -(0.5 * math.log10(10.0)) - (0.5 * math.log10(5.0))
        expect = deg(50.0) + 2.0 * perf + 0.5 * math.sqrt(1e-12)
        assert total_loss(*args, c)[0] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize(
        "config",
        [
            cfg(variant="L1"),
            cfg(variant="L2"),
            cfg(variant="L3", alpha=0.3, lambda1=0.7, lambda2=0.4, lambda3=0.05),
            cfg(variant="L3", alpha=0.0, lambda2=1.0, lambda3=2.0),
        ],
        ids=["L1", "L2", "L3", "L3-wng"],
    )
    def test_matches_scalar_reference(self, config):
        """The array assembly against a band-by-band float loop: the same
        branches and partials, and the total to a few ulps (np.log10 and
        math.log10 may round differently)."""
        rng = np.random.default_rng(17)
        for n in range(1 if config.variant != "L3" else 2, 17):
            args = (
                rng.uniform(deg(10.0), deg(60.0), n).tolist(),
                rng.uniform(deg(10.0), deg(60.0), n).tolist(),
                rng.uniform(0.5, 500.0, n).tolist(),
                rng.uniform(0.5, 200.0, n).tolist(),
            )
            total, snap = total_loss(*args, config)
            ref_total, ref_branches, ref_grads = scalar_reference(*args, config)
            assert snap.branches == ref_branches
            assert total == pytest.approx(ref_total, rel=1e-14, abs=1e-14)
            grads = np.array([snap.d_theta, snap.d_phi, snap.d_df, snap.d_wng])
            assert np.array_equal(grads, ref_grads)

    @pytest.mark.parametrize(
        "config",
        [
            cfg(variant="L1"),
            cfg(variant="L2"),
            cfg(variant="L3", alpha=0.3, lambda1=0.7, lambda2=0.4, lambda3=0.05),
        ],
        ids=["L1", "L2", "L3"],
    )
    def test_partials_match_finite_differences(self, config):
        """The snapshot's dL/d(theta, phi, DF, WNG) against central differences,
        on bands spread over every branch, L2's flipped one included."""
        thetas = [deg(50.0), deg(30.0), deg(45.0), deg(20.0), deg(35.0), deg(39.5)]
        phis = [deg(30.0), deg(50.0), deg(47.0), deg(25.0), deg(36.0), deg(30.0)]
        dfs = [12.0, 30.0, 8.0, 60.0, 150.0, 90.0]
        wngs = [40.0, 9.0, 3.0, 22.0, 70.0, 14.0]
        n = len(thetas)

        def f(xs):
            return total_loss(xs[:n], xs[n : 2 * n], xs[2 * n : 3 * n], xs[3 * n :], config)[0]

        point = thetas + phis + dfs + wngs
        _, snap = total_loss(thetas, phis, dfs, wngs, config)
        assert snap.branches == ["theta", "phi", "both", "perf", "perf", "perf"]
        gradient = np.concatenate([snap.d_theta, snap.d_phi, snap.d_df, snap.d_wng])
        result = gradcheck(f, point, gradient)
        assert result.excluded == ()
        assert result.max_rel_error < 1e-7
