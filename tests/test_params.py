import numpy as np
import pytest

import crossdiff as cd

from conftest import random_params


class TestParams:
    def test_valid(self):
        p = cd.Params(2.0, 1.0, 1.0, 1.0)
        assert p.det == 1.0
        assert p.as_tuple() == (2.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [
        (0.0, 1, 1, 1), (-1, 1, 1, 1), (2, 0, 1, 1), (2, 1, -3, 1), (2, 1, 1, 0),
    ])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="positive"):
            cd.Params(*bad)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_and_names_it(self, index, value):
        coef = [2.0, 1.0, 1.0, 1.0]
        coef[index] = value
        name = "abcd"[index]
        with pytest.raises(ValueError,
                           match=f"parameter {name} must be positive and finite, got {value}"):
            cd.Params(*coef)

    def test_rejects_degenerate_determinant(self):
        with pytest.raises(ValueError, match="ad > bc"):
            cd.Params(1.0, 2.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="ad > bc"):
            cd.Params(1.0, 1.0, 1.0, 1.0)  # equality is not allowed


class TestMuskatPreset:
    def test_mapping(self):
        p = cd.muskat_params(3.0, 0.5)
        assert p.as_tuple() == (4.0, 3.0, 1.5, 1.5)

    def test_determinant_is_mu_R(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            R, mu = rng.uniform(0.05, 10.0, size=2)
            p = cd.muskat_params(R, mu)
            assert p.det == pytest.approx(mu * R, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cd.muskat_params(0.0, 1.0)
        with pytest.raises(ValueError):
            cd.muskat_params(1.0, -2.0)

    @pytest.mark.parametrize("R, mu, named", [
        (np.inf, 1.0, "R=inf"), (np.nan, 1.0, "R=nan"), (1.0, np.inf, "mu=inf"),
        (1.0, np.nan, "mu=nan"),
    ])
    def test_rejects_non_finite_and_names_it(self, R, mu, named):
        # R = inf used to be reported as "ad=inf <= bc=inf"
        with pytest.raises(ValueError, match=f"positive and finite R and mu, got {named}"):
            cd.muskat_params(R, mu)


class TestThetaConstants:
    def test_reference_values(self):
        theta1, theta2 = cd.theta_constants(cd.Params(2.0, 1.0, 1.0, 1.0))
        assert theta1 == pytest.approx(0.75, abs=0.0)
        assert theta2 == pytest.approx(0.4375, abs=0.0)

    def test_muskat_unit_case_matches(self):
        assert cd.theta_constants(cd.muskat_params(1.0, 1.0)) == (0.75, 0.4375)

    def test_positive_for_all_admissible(self):
        rng = np.random.default_rng(11)
        for p in random_params(rng, 200, margin=1.0 + 1e-9):
            theta1, theta2 = cd.theta_constants(p)
            assert theta1 > 0.0
            assert theta2 > 0.0
