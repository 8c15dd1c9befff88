"""Tensor-field transport along flows and asymptotic algebra contraction."""

import numpy as np
import pytest
import scipy.linalg

from geomstates import (
    ContractionMismatchError,
    DegreeOverflowError,
    LimitExistsError,
    LindbladModel,
    Poly,
    PolyTensorField,
    PolyVectorField,
    affine_flow_map,
    analyze_contraction,
    asymptotic_limit,
    build_basis,
    contract_3level_decoherence,
    extract_contracted_products,
    flatten_field,
    flow_family,
    flow_tensor,
    format_product_table,
    gradient_vf,
    lie_algebra_dimensions,
    lie_derivative,
    limit_set_algebra,
    lindblad_vf,
    matches_level_algebra,
    model_bloch_field,
    model_gisin,
    model_massive_decoherence,
    model_phase_damping,
    model_pure_decoherence,
    model_qubit_dissipation,
    model_three_level_decay,
    poisson_field,
    pushforward_affine,
    slot_label,
    symmetric_field,
    tensor_pairs,
    unflatten_field,
    verify_contracted_axioms,
)
from geomstates.contraction import coeff_size
from conftest import dense_superoperator, random_hermitian, tracked_product

SQ3 = np.sqrt(3.0)


def _tensor_values(T, y):
    m = T.m
    return np.array([[T.component(j, k)(y) for k in range(m)] for j in range(m)])


class TestFlattening:
    @pytest.mark.parametrize("m,symmetry,p", [(3, "antisymmetric", 3), (3, "symmetric", 6), (8, "antisymmetric", 28), (8, "symmetric", 36)])
    def test_pair_counts(self, m, symmetry, p):
        assert len(tensor_pairs(m, symmetry)) == p

    @pytest.mark.parametrize("n", [2, 3])
    def test_round_trip(self, n):
        basis = build_basis(n)
        for T, sym in (
            (poisson_field(basis), "antisymmetric"),
            (symmetric_field(basis), "symmetric"),
        ):
            vec = flatten_field(T)
            back = unflatten_field(vec, T.m, sym)
            assert T.allclose(back, 0.0)

    def test_slot_labels(self):
        assert slot_label(3, 0, "antisymmetric") == "T[1,2]:1"
        assert slot_label(3, 5, "symmetric") == "T[1,1]:x1*x2"
        assert slot_label(3, 1, "antisymmetric", names=["a", "b", "c"]) == "T[1,2]:a"

    def test_rejects_unknown_symmetry(self):
        with pytest.raises(ValueError):
            tensor_pairs(3, "antisym")


class TestLieDerivative:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_superoperator_route(self, n, rng):
        basis = build_basis(n)
        A = rng.normal(size=(basis.m, basis.m))
        b = rng.normal(size=basis.m)
        Z = PolyVectorField.from_affine(A, b)
        for T, sym in (
            (poisson_field(basis), "antisymmetric"),
            (symmetric_field(basis), "symmetric"),
        ):
            M = dense_superoperator(Z, sym)
            direct = flatten_field(lie_derivative(Z, T))
            assert np.abs(direct - M @ flatten_field(T)).max() < 1e-12

    def test_phase_damping_poisson_form(self, basis2):
        """L_Z Lambda = 4 gamma x3 d1^d2 for dephasing at rate gamma."""
        Z = lindblad_vf(model_phase_damping(1.0))
        LT = lie_derivative(Z, poisson_field(basis2))
        want = np.zeros(3)
        want[2] = 4.0
        assert np.array_equal(LT.component(0, 1).c1, want)
        assert LT.component(0, 1).c0 == 0.0
        assert LT.component(0, 1).max_abs_quadratic() == 0.0
        assert LT.component(1, 2).is_zero(0.0)
        assert LT.component(2, 0).is_zero(0.0)

    def test_phase_damping_symmetric_form(self, basis2):
        """L_Z R = 4 gamma (d1 x d1 + d2 x d2) for dephasing at rate gamma."""
        Z = lindblad_vf(model_phase_damping(1.0))
        LR = lie_derivative(Z, symmetric_field(basis2))
        assert LR.component(0, 0).c0 == 4.0
        assert LR.component(1, 1).c0 == 4.0
        assert np.abs(LR.component(0, 0).c1).max() == 0.0
        assert LR.component(2, 2).is_zero(0.0)
        assert LR.component(0, 1).is_zero(0.0)
        assert LR.component(0, 2).is_zero(0.0)

    def test_gamma_scales_linearly(self, basis2):
        L1 = lie_derivative(lindblad_vf(model_phase_damping(1.0)), poisson_field(basis2))
        L3 = lie_derivative(lindblad_vf(model_phase_damping(3.0)), poisson_field(basis2))
        assert L3.allclose(L1.scale(3.0), 1e-12)

    def test_quadratic_field_rejected_by_superoperator(self, basis2):
        from geomstates import InvariantViolationError, model_gisin

        Z = model_gisin(basis2, basis2.traceless_observable([0.0, 0.0, 1.0]))
        with pytest.raises(InvariantViolationError):
            flow_family(Z, poisson_field(basis2))


class TestFlowFamily:
    def test_semigroup_property(self, basis2, rng):
        Z = lindblad_vf(model_qubit_dissipation(0.7))
        fam = flow_family(Z, poisson_field(basis2))
        M = dense_superoperator(Z, "antisymmetric")
        for _ in range(3):
            s, t = rng.uniform(0.0, 5.0, size=2)
            lhs = fam.flat_at(s + t)
            rhs = scipy.linalg.expm(-s * M) @ fam.flat_at(t)
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_t_zero_is_initial(self, basis2):
        Z = lindblad_vf(model_phase_damping(1.0))
        fam = flow_family(Z, symmetric_field(basis2))
        assert np.array_equal(fam.flat_at(0.0), fam.flat0)
        assert fam.tensor_at(0.0).allclose(symmetric_field(basis2), 0.0)

    def test_dissipation_poisson_closed_form(self, basis2):
        """Lambda_t = x3 d1^d2 + e^{-2t}(x1 d2^d3 + x2 d3^d1)."""
        Z = lindblad_vf(model_qubit_dissipation(1.0))
        for t in (0.0, 0.25, 1.0, 4.0):
            Tt = flow_tensor(Z, poisson_field(basis2), t)
            e = np.exp(-2.0 * t)
            assert abs(Tt.component(0, 1).c1[2] - 1.0) < 1e-9
            assert abs(Tt.component(1, 2).c1[0] - e) < 1e-9
            assert abs(Tt.component(2, 0).c1[1] - e) < 1e-9
            # nothing else appears
            off = [
                Tt.component(0, 1).c1[0], Tt.component(0, 1).c1[1],
                Tt.component(1, 2).c1[1], Tt.component(1, 2).c1[2],
                Tt.component(2, 0).c1[0], Tt.component(2, 0).c1[2],
            ]
            assert np.abs(off).max() < 1e-9
            for j in range(3):
                for k in range(3):
                    assert Tt.component(j, k).c0 == pytest.approx(0.0, abs=1e-9)
                    assert Tt.component(j, k).max_abs_quadratic() < 1e-9

    def test_dissipation_symmetric_closed_form(self, basis2):
        """R_t = e^{-2t}(d1 d1 + d2 d2) + e^{-4t} d3 d3 - x x."""
        Z = lindblad_vf(model_qubit_dissipation(1.0))
        for t in (0.0, 0.25, 1.0, 4.0):
            Tt = flow_tensor(Z, symmetric_field(basis2), t)
            e2, e4 = np.exp(-2.0 * t), np.exp(-4.0 * t)
            assert abs(Tt.component(0, 0).c0 - e2) < 1e-9
            assert abs(Tt.component(1, 1).c0 - e2) < 1e-9
            assert abs(Tt.component(2, 2).c0 - e4) < 1e-9
            for j in range(3):
                for k in range(3):
                    c2 = Tt.component(j, k).c2
                    want = np.zeros((3, 3))
                    want[j, k] -= 0.5
                    want[k, j] -= 0.5
                    assert np.abs(c2 - want).max() < 1e-9
                    assert np.abs(Tt.component(j, k).c1).max() < 1e-9

    def test_phase_damping_poisson_closed_form(self, basis2):
        """Dephasing leaves x1 d2^d3 + x2 d3^d1 fixed and damps x3 d1^d2
        at rate 4 gamma."""
        Z = lindblad_vf(model_phase_damping(1.0))
        for t in (0.3, 2.0):
            Tt = flow_tensor(Z, poisson_field(basis2), t)
            assert abs(Tt.component(0, 1).c1[2] - np.exp(-4.0 * t)) < 1e-9
            assert abs(Tt.component(1, 2).c1[0] - 1.0) < 1e-9
            assert abs(Tt.component(2, 0).c1[1] - 1.0) < 1e-9

    def test_pushforward_oracle(self, basis2, rng):
        Z = lindblad_vf(model_qubit_dissipation(1.0))
        for T in (poisson_field(basis2), symmetric_field(basis2)):
            for t in (0.2, 1.3):
                Tt = flow_tensor(Z, T, t)
                for _ in range(5):
                    y = rng.normal(size=3) * 0.4
                    assert (
                        np.abs(_tensor_values(Tt, y) - pushforward_affine(Z, T, t, y)).max()
                        < 1e-12
                    )

    def test_rk4_oracle_on_coefficients(self, basis3):
        """Flowed coefficients match a brute-force RK4 integration of the
        coefficient-space transport equation."""
        Z = lindblad_vf(model_three_level_decay())
        fam = flow_family(Z, poisson_field(basis3))
        M = dense_superoperator(Z, "antisymmetric")
        v = fam.flat0.copy()
        t_end, dt = 0.5, 1e-4
        steps = int(round(t_end / dt))
        for _ in range(steps):
            k1 = -(M @ v)
            k2 = -(M @ (v + 0.5 * dt * k1))
            k3 = -(M @ (v + 0.5 * dt * k2))
            k4 = -(M @ (v + dt * k3))
            v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.abs(v - fam.flat_at(t_end)).max() < 1e-6

    def test_finite_time_conjugation(self, basis2, rng):
        """e^{-tL} acts by the affine change of coordinates of the flow:
        E^{-1} Lambda_t(E x + f) E^{-T} = Lambda_0(x)."""
        for model in (model_qubit_dissipation(1.0), model_phase_damping(0.5)):
            Z = lindblad_vf(model)
            A, b = Z.linear_parts()
            T0 = poisson_field(basis2)
            for t in (0.1, 1.0, 5.0):
                E, f = affine_flow_map(A, b, t)
                Ei = np.linalg.inv(E)
                Tt = flow_tensor(Z, T0, t)
                for _ in range(3):
                    x = rng.normal(size=3) * 0.3
                    lhs = Ei @ _tensor_values(Tt, E @ x + f) @ Ei.T
                    assert np.abs(lhs - _tensor_values(T0, x)).max() < 1e-8


class TestFrozenDecayPins:
    """Transported tensors of the spontaneous-decay model, pinned at
    t = 0.5 against independently integrated reference values."""

    Y = np.array([0.1, -0.2, 0.15, 0.05, -0.1, 0.2, -0.05, 0.1])

    def test_poisson_pins(self, basis3):
        Z = lindblad_vf(model_three_level_decay())
        Tt = flow_tensor(Z, poisson_field(basis3), 0.5)
        assert Tt.component(0, 1)(self.Y) == pytest.approx(
            -0.16984920374886525, abs=1e-12
        )
        assert Tt.component(1, 2)(self.Y) == pytest.approx(
            -0.5396984074977305, abs=1e-12
        )

    def test_jordan_pins(self, basis3):
        Z = lindblad_vf(model_three_level_decay())
        Tt = flow_tensor(Z, symmetric_field(basis3), 0.5)
        y = self.Y
        assert Tt.component(0, 0)(y) + y[0] * y[0] == pytest.approx(
            0.0961623485964112, abs=1e-12
        )
        assert Tt.component(2, 2)(y) + y[2] * y[2] == pytest.approx(
            -0.1523188510966219, abs=1e-12
        )
        assert Tt.component(0, 2)(y) + y[0] * y[2] == pytest.approx(
            0.16565413312868882, abs=1e-12
        )


class TestAsymptotics:
    def test_unitary_flow_leaves_tensors_invariant(self, basis2):
        Z = model_bloch_field(1.3)
        for T in (poisson_field(basis2), symmetric_field(basis2)):
            fam = flow_family(Z, T)
            an = asymptotic_limit(fam)
            assert an.verdict == "limit"
            assert np.abs(an.limit_flat - fam.flat0).max() < 1e-12

    def test_phase_damping_contraction(self, basis2):
        Z = lindblad_vf(model_phase_damping(1.0))
        rp = asymptotic_limit(flow_family(Z, poisson_field(basis2)))
        rj = asymptotic_limit(flow_family(Z, symmetric_field(basis2)))
        assert rp.verdict == "limit" and rj.verdict == "limit"
        tab = extract_contracted_products(rp.limit, rj.limit)
        assert tab.linear
        lines = set(format_product_table(tab))
        assert lines == {"{x1,x3} = -x2", "{x2,x3} = x1", "(x3,x3) = 1"}
        ax = verify_contracted_axioms(tab)
        assert ax.max_residual() < 1e-9
        assert lie_algebra_dimensions(tab.c_full) == (2, 0)

    def test_dissipation_contraction(self, basis2):
        Z = lindblad_vf(model_qubit_dissipation(1.0))
        rp = asymptotic_limit(flow_family(Z, poisson_field(basis2)))
        rj = asymptotic_limit(flow_family(Z, symmetric_field(basis2)))
        assert rp.verdict == "limit" and rj.verdict == "limit"
        tab = extract_contracted_products(rp.limit, rj.limit)
        assert tab.linear
        assert set(format_product_table(tab)) == {"{x1,x2} = x3"}
        assert verify_contracted_axioms(tab).max_residual() < 1e-9
        # one-dimensional derived algebra contained in the center
        assert lie_algebra_dimensions(tab.c_full) == (1, 1)

    def test_decay_divergent_modes(self, basis3):
        Z = lindblad_vf(model_three_level_decay())
        an = asymptotic_limit(flow_family(Z, poisson_field(basis3)))
        assert an.verdict == "divergent"
        assert an.limit is None
        rates = sorted({round(m.growth_rate, 9) for m in an.modes})
        assert rates == [3.0]
        assert all(not m.polynomial_growth for m in an.modes)
        for mode in an.modes:
            assert "T[1,2]" in mode.component or "T[2,3]" in mode.component

    def test_decay_mode_direction_profile(self, basis3):
        """The diverging coefficient is proportional to 1 - sqrt(3) x8 in
        every unstable component."""
        Z = lindblad_vf(model_three_level_decay())
        an = asymptotic_limit(flow_family(Z, poisson_field(basis3)))
        pairs = tensor_pairs(8, "antisymmetric")
        q = 1 + 8 + 8 * 9 // 2  # coefficient slots per component
        unstable = {pairs.index((0, 1)), pairs.index((1, 2))}
        for mode in an.modes:
            blocks = mode.direction.reshape(len(pairs), q)
            for a, blk in enumerate(blocks):
                if np.abs(blk).max() < 1e-9:
                    continue
                assert a in unstable
                # only the constant slot and the x8 slot carry weight,
                # in the ratio of the profile 1 - sqrt(3) x8
                assert abs(blk[8] / blk[0] + SQ3) < 1e-9
                rest = np.ones(q, dtype=bool)
                rest[[0, 8]] = False
                assert np.abs(blk[rest]).max() < 1e-9

    def test_symmetric_sector_also_divergent(self, basis3):
        Z = lindblad_vf(model_three_level_decay())
        an = asymptotic_limit(flow_family(Z, symmetric_field(basis3)))
        assert an.verdict == "divergent"
        assert sorted({round(m.growth_rate, 9) for m in an.modes}) == [3.0]

    def test_oscillatory_verdict(self):
        A = np.array([[0.0, 0, 0], [0, 0, 2], [0, -2, 0]])
        Z = PolyVectorField.from_affine(A, np.zeros(3))
        x2 = Poly(3, c1=np.array([0.0, 1.0, 0.0]))
        zero = Poly(3)
        T = PolyTensorField(
            [
                [zero, zero, zero],
                [zero, zero, x2],
                [zero, x2.scale(-1.0), zero],
            ],
            symmetry="antisymmetric",
        )
        an = asymptotic_limit(flow_family(Z, T))
        assert an.verdict == "oscillatory"
        assert all(m.oscillatory and not m.polynomial_growth for m in an.modes)

    def test_defective_zero_polynomial_growth(self, basis2):
        A = np.array([[0.0, 1, 0], [0, 0, 0], [0, 0, 0]])
        Z = PolyVectorField.from_affine(A, np.zeros(3))
        an = asymptotic_limit(flow_family(Z, poisson_field(basis2)))
        assert an.verdict == "divergent"
        assert an.defect > 0.5
        assert any(m.polynomial_growth for m in an.modes)
        assert all(abs(m.eigenvalue) < 1e-10 for m in an.modes if m.polynomial_growth)

    @pytest.mark.parametrize(
        "symmetry, c0, polynomial",
        [("symmetric", np.diag([0.0, 1, 0]), True),
         ("antisymmetric", np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]]), False)],
    )
    def test_defective_growing_mode(self, symmetry, c0, polynomial):
        """Along the Jordan block ``A = [[1, 1], [0, 1]]`` the symmetric
        ``T^{22} = 1`` flows into ``T^{11} = t^2 e^{2t}``: a rate-2 mode that
        also grows polynomially.  The antisymmetric ``T^{12} = 1`` only
        scales, by ``det e^{tA} = e^{2t}``."""
        A = np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, 0]])
        Z = PolyVectorField.from_affine(A, np.zeros(3))
        T = PolyTensorField._of(c0, np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3)), symmetry)
        an = asymptotic_limit(flow_family(Z, T))
        assert an.verdict == "divergent" and len(an.modes) == 1
        assert an.modes[0].growth_rate == pytest.approx(2.0, abs=1e-12)
        assert an.modes[0].polynomial_growth is polynomial

    def test_random_affine_models_contract_to_algebras(self, rng):
        """Generic two-level Markov generators yield limits whose product
        tables satisfy the Lie-Jordan axioms."""
        basis = build_basis(2)
        worst = 0.0
        n_limits = 0
        for i in range(20):
            H = random_hermitian(rng, 2, traceless=True)
            Vs = []
            for _ in range(2):
                V = 0.6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                Vs.append(V - (np.trace(V) / 2.0) * np.eye(2))
            Z = lindblad_vf(LindbladModel(basis, H=H, V=Vs))
            rp = asymptotic_limit(flow_family(Z, poisson_field(basis)))
            rj = asymptotic_limit(flow_family(Z, symmetric_field(basis)))
            if rp.verdict != "limit" or rj.verdict != "limit":
                continue
            n_limits += 1
            tab = extract_contracted_products(rp.limit, rj.limit)
            if tab.linear:
                worst = max(
                    worst, verify_contracted_axioms(tab).max_residual()
                )
        assert n_limits >= 15  # generic dissipative models do settle
        assert worst < 1e-9


class TestLimitSetAlgebra:
    def test_decay_limit_set(self, basis3):
        Z = lindblad_vf(model_three_level_decay())
        lsa = limit_set_algebra(Z, basis3, verdict="divergent")
        assert lsa.free_indices == [0, 1, 2]
        assert lsa.closed
        want = np.zeros(8)
        want[7] = 1.0 / SQ3
        assert np.abs(lsa.point - want).max() < 1e-9
        assert matches_level_algebra(lsa, 2)
        assert not matches_level_algebra(lsa, 3)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_tables_are_static_products_on_the_set(self, basis3, rng, rotated):
        model = model_three_level_decay()
        if rotated:
            # every coordinate free, and a stationary point off the origin
            h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            U = scipy.linalg.expm(1j * (h + h.conj().T))
            model = LindbladModel(basis3, V=[U @ V @ U.conj().T for V in model.V])
        lsa = limit_set_algebra(lindblad_vf(model), basis3, verdict="divergent")
        free = lsa.free_indices
        sel = np.ix_(free, free)
        lam, R = poisson_field(basis3), symmetric_field(basis3)
        for y in rng.normal(size=(4, len(free))):
            x = lsa.point.copy()
            x[free] = y
            for got, want in (
                (lsa.poisson(y), lam(x)[sel]),
                (lsa.jordan(y), (R(x) + np.outer(x, x))[sel]),
            ):
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_guard_when_limit_exists(self, basis2):
        Z = lindblad_vf(model_phase_damping(1.0))
        with pytest.raises(LimitExistsError):
            limit_set_algebra(Z, basis2, verdict="limit")


class TestFullAnalysis:
    def test_phase_damping_report(self, basis2):
        Z = lindblad_vf(model_phase_damping(1.0))
        rep = analyze_contraction(Z, basis2)
        assert rep.verdict == "limit"
        assert rep.tables is not None and rep.tables.linear
        assert rep.axioms.max_residual() < 1e-9
        assert rep.divergent_modes() == []
        assert rep.stationary.kind == "affine-set"

    def test_decay_report(self, basis3):
        Z = lindblad_vf(model_three_level_decay())
        rep = analyze_contraction(Z, basis3)
        assert rep.verdict == "divergent"
        assert rep.tables is None
        assert rep.limit_set is not None and rep.limit_set.closed
        assert len(rep.divergent_modes()) > 0

    def test_decoherence_cross_check(self):
        rm, rp = contract_3level_decoherence()
        assert rm.verdict == "limit" and rp.verdict == "limit"
        lines_m = set(format_product_table(rm.tables))
        lines_p = set(format_product_table(rp.tables))
        assert lines_m == lines_p
        # brackets of coherences with the diagonal torus survive ...
        assert {"{x1,x3} = -x2", "{x2,x3} = x1"} <= lines_m
        # ... while coherence-coherence brackets die out
        assert not any(ln.startswith("{x1,x2}") for ln in lines_m)
        assert rm.axioms.max_residual() < 1e-9
        assert lie_algebra_dimensions(rm.tables.c_full) == (6, 0)

    def test_ququart_decoherence_cross_check(self):
        """Criterion 5 one level up.  At d = 4 massive decoherence damps the
        coherences at rates 2 (|m - n| odd) and 4 (|m - n| = 2), so brackets
        of neighbouring coherences survive; pure decoherence with rates
        (2, 0, 2) damps them at 1 and 2, the same ratio, and contracts onto
        the same tables."""
        basis = build_basis(4)
        rm = analyze_contraction(model_massive_decoherence(4, 1.0), basis)
        rp = analyze_contraction(model_pure_decoherence(4, (2.0, 0.0, 2.0)), basis)
        assert rm.verdict == rp.verdict == "limit"
        assert (rm.tables.poisson - rp.tables.poisson).max_abs() <= 1e-8
        assert (rm.tables.jordan - rp.tables.jordan).max_abs() <= 1e-8
        assert max(rm.axioms.max_residual(), rp.axioms.max_residual()) < 1e-9

    def test_decoherence_mismatch_guard(self, monkeypatch):
        import geomstates.dynamics as dyn

        def crooked(d, gammas):
            return lindblad_vf(model_three_level_decay())

        monkeypatch.setattr(dyn, "model_pure_decoherence", crooked)
        with pytest.raises(ContractionMismatchError):
            contract_3level_decoherence()


# ------------------------------------------------ array-backed transport


def _random_lindblad(n, seed):
    """Seeded model: a traceless Hermitian H and two traceless jumps."""
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n, traceless=True)
    Vs = []
    for _ in range(2):
        V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        V -= (np.trace(V) / n) * np.eye(n)
        Vs.append(V / np.linalg.norm(V))
    return LindbladModel(build_basis(n), H=H / np.linalg.norm(H), V=Vs)


def _reference_lie_derivative(Z, T, tol=1e-12):
    """Per-component Lie derivative from tracked ``Poly`` products."""
    m = T.m
    scale = max(1.0, Z.max_abs() * T.max_abs())
    zc, grid = Z.components, T.components
    out = []
    for j in range(m):
        row = []
        for k in range(m):
            acc = Poly(m)
            c3 = np.zeros((m, m, m))
            for mu in range(m):
                for a, b in (
                    (zc[mu], grid[j][k].partial(mu)),
                    (grid[mu][k].scale(-1.0), zc[j].partial(mu)),
                    (grid[j][mu].scale(-1.0), zc[k].partial(mu)),
                ):
                    prod, over3 = tracked_product(a, b)
                    acc = acc + prod
                    c3 += over3
            if np.abs(c3).max() > tol * scale:
                raise DegreeOverflowError(f"cubic residue at ({j},{k})")
            row.append(acc)
        out.append(row)
    return PolyTensorField(out, symmetry=T.symmetry, validate_tol=None)


def _reference_unflatten(vec, m, symmetry):
    """Per-component rebuild of a flat coefficient vector."""
    q = coeff_size(m)
    iu = np.triu_indices(m)
    grid = [[Poly(m) for _ in range(m)] for _ in range(m)]
    sgn = -1.0 if symmetry == "antisymmetric" else 1.0
    for idx, (j, k) in enumerate(tensor_pairs(m, symmetry)):
        v = vec[idx * q : (idx + 1) * q]
        c2 = np.zeros((m, m))
        c2[iu] = v[1 + m :]
        c2 = c2 + c2.T - np.diag(np.diag(c2))
        grid[j][k] = Poly(m, v[0], v[1 : 1 + m], c2)
        if symmetry != "none" and k != j:
            grid[k][j] = grid[j][k].scale(sgn)
    return PolyTensorField(grid, symmetry=symmetry, validate_tol=None)


class TestArrayLieDerivative:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_per_poly_reference(self, n, rng):
        basis = build_basis(n)
        a = basis.observable(rng.normal(size=basis.dim))
        m = basis.m
        cases = [
            (lindblad_vf(_random_lindblad(n, 5)), symmetric_field(basis)),
            (PolyVectorField.from_affine(rng.normal(size=(m, m)), rng.normal(size=m)),
             poisson_field(basis)),
            (gradient_vf(basis, a), poisson_field(basis)),
            (model_gisin(basis, a), poisson_field(basis)),
        ]
        for Z, T in cases:
            got = lie_derivative(Z, T)
            want = _reference_lie_derivative(Z, T)
            assert got.symmetry == T.symmetry
            assert got.allclose(want, 1e-12 * max(1.0, want.max_abs()))

    def test_cubic_terms_that_vanish_pass(self):
        # Z^1 = x2^2 and T^{33} = x3^2: every cubic product is zero
        Z = PolyVectorField.from_arrays(
            np.zeros(3), np.zeros((3, 3)), np.einsum("k,l,p->klp", [1, 0, 0], [0, 1, 0], [0, 1, 0])
        )
        c2 = np.zeros((3, 3, 3, 3))
        c2[2, 2, 2, 2] = 1.0
        T = PolyTensorField.from_arrays(np.eye(3), np.zeros((3, 3, 3)), c2, "symmetric")
        assert lie_derivative(Z, T).allclose(_reference_lie_derivative(Z, T), 1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_cancelling_cubic_terms_raise(self, n, rng):
        basis = build_basis(n)
        a = basis.observable(rng.normal(size=basis.dim))
        for Z in (gradient_vf(basis, a), model_gisin(basis, a)):
            with pytest.raises(DegreeOverflowError):
                _reference_lie_derivative(Z, symmetric_field(basis))
            with pytest.raises(DegreeOverflowError):
                lie_derivative(Z, symmetric_field(basis))

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_matches_per_item_calls(self, n, rng):
        basis = build_basis(n)
        m = basis.m
        a = basis.observable(rng.normal(size=basis.dim))
        cases = [
            (lindblad_vf(_random_lindblad(n, 3)), "symmetric", True),
            (PolyVectorField.from_affine(rng.normal(size=(m, m)), rng.normal(size=m)),
             "antisymmetric", True),
            (gradient_vf(basis, a), "none", False),
        ]
        for Z, sym, quadratic in cases:
            P, q = len(tensor_pairs(m, sym)), coeff_size(m)
            vecs = rng.normal(size=(3, P, q))
            if not quadratic:
                vecs[..., 1 + m :] = 0.0
            vecs = vecs.reshape(3, P * q)
            stack = lie_derivative(Z, unflatten_field(vecs, m, sym))
            flat = flatten_field(stack)
            assert stack.symmetry == sym and flat.shape == vecs.shape
            for v, got in zip(vecs, flat):
                want = flatten_field(lie_derivative(Z, unflatten_field(v, m, sym)))
                assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


class TestGeometricTransport:
    """``tensor_at`` (affine substitution plus congruence) against the
    superoperator exponential ``expm(-t M) flat0``."""

    @pytest.mark.parametrize(
        "name, n, times",
        [
            ("random", 2, (0.3, 1.7)),
            ("random", 3, (0.8,)),
            ("three-level-decay", 3, (0.5,)),
        ],
    )
    def test_matches_superoperator_expm(self, name, n, times):
        model = model_three_level_decay() if name != "random" else _random_lindblad(n, 11)
        Z = lindblad_vf(model)
        basis = build_basis(n)
        for T in (poisson_field(basis), symmetric_field(basis)):
            fam = flow_family(Z, T)
            M = dense_superoperator(Z, T.symmetry)
            for t in times:
                want = scipy.linalg.expm(-t * M) @ fam.flat0
                got = fam.flat_at(t)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_unflatten_matches_per_component_rebuild(self, n, rng):
        basis = build_basis(n)
        m = basis.m
        for sym in ("antisymmetric", "symmetric", "none"):
            size = len(tensor_pairs(m, sym)) * coeff_size(m)
            vec = rng.normal(size=size) * (rng.random(size) > 0.5)
            vec[rng.random(size) > 0.7] = -0.0
            got = unflatten_field(vec, m, sym)
            want = _reference_unflatten(vec, m, sym)
            for j in range(m):
                for k in range(m):
                    p, q = got.component(j, k), want.component(j, k)
                    for x, y in ((p.c0, q.c0), (p.c1, q.c1), (p.c2, q.c2)):
                        # equal values and equal signs of zero
                        assert np.array_equal(np.signbit(x), np.signbit(y))
                        assert np.array_equal(x, y)
            assert np.array_equal(flatten_field(got), vec)

    def test_transport_keeps_component_symmetry(self, basis3):
        Z = lindblad_vf(_random_lindblad(3, 2))
        for T in (poisson_field(basis3), symmetric_field(basis3)):
            Tt = flow_tensor(Z, T, 0.9)
            sgn = -1.0 if T.symmetry == "antisymmetric" else 1.0
            assert Tt.symmetry == T.symmetry
            assert np.array_equal(Tt.c1, sgn * Tt.c1.transpose(1, 0, 2))
            assert np.array_equal(Tt.c2, Tt.c2.transpose(0, 1, 3, 2))


# ------------------------------------------------ one spectral classifier


def _ad(U, basis):
    """Orthogonal action ``x -> O x`` of ``rho -> U rho U^+`` on coordinates:
    ``O[j, k] = tr(sigma_j U sigma_k U^+) / 2``."""
    els = basis.elements[1:]
    return np.array(
        [[0.5 * np.trace(a @ U @ b @ U.conj().T).real for b in els] for a in els]
    )


def _sorted_eigs(vals):
    return sorted(np.asarray(vals), key=lambda v: (round(v.real, 6), round(v.imag, 6)))


def _is_diagonal(M):
    return np.count_nonzero(M) == np.count_nonzero(np.diag(M))


def _driven_damped_qubit(gamma):
    """``H = sigma_x / 2`` and one jump ``sqrt(gamma) sigma_-``.  At
    ``gamma = 2`` the flow matrix ``A`` has a defective eigenvalue -3/2: a
    Liouvillian exceptional point."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return lindblad_vf(LindbladModel(build_basis(2), H=sx / 2, V=[np.sqrt(gamma) * sm]))


def _test_models():
    """Every n <= 3 flow of these tests, with its n."""
    return [
        (model_phase_damping(1.0), 2),
        (model_qubit_dissipation(1.0), 2),
        (model_bloch_field(1.3), 2),
        (_random_lindblad(2, 11), 2),
        (model_three_level_decay(), 3),
        (model_massive_decoherence(3, 1.0), 3),
        (model_pure_decoherence(3, (1.0, 1.0)), 3),
        (_random_lindblad(3, 11), 3),
    ]


class TestOneClassifier:
    """``asymptotic_limit`` classifies every flow from the cluster bases of
    its ``m x m`` matrices; the dense matrix of ``L_Z`` from
    ``conftest.dense_superoperator`` is the oracle."""

    @pytest.mark.parametrize("make", [model_phase_damping, model_qubit_dissipation])
    def test_unitary_conjugate_agrees(self, basis2, make, rng):
        """Reference: the same Lindblad model conjugated by a random unitary
        ``U``.  Its superoperator is not diagonal, and its analysis must be
        the push-forward by ``O = Ad_U`` of the original one."""
        model = make(0.7)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U = scipy.linalg.expm(1j * (h + h.conj().T))
        O = _ad(U, basis2)
        conj = LindbladModel(
            basis2, H=None if model.H is None else U @ model.H @ U.conj().T,
            V=[U @ V @ U.conj().T for V in model.V],
        )
        Z, Zc = lindblad_vf(model), lindblad_vf(conj)
        ys = rng.normal(size=(6, 3))
        for T in (poisson_field(basis2), symmetric_field(basis2)):
            fam, famc = flow_family(Z, T), flow_family(Zc, T)
            assert not _is_diagonal(dense_superoperator(Zc, T.symmetry))
            an, anc = asymptotic_limit(fam), asymptotic_limit(famc)
            assert an.verdict == anc.verdict == "limit"
            for a, b in zip(_sorted_eigs(an.eigenvalues), _sorted_eigs(anc.eigenvalues)):
                assert abs(a - b) <= 1e-9
            want = np.einsum("ja,nab,kb->njk", O, an.limit(ys @ O), O)
            assert np.abs(anc.limit(ys) - want).max() <= 1e-10

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize(
        "slots, eps, modes",
        [
            ([(0, 0, 2), (0, 1, 1), (1, 0, 1)], 8e-10, []),
            ([(0, 0, 2), (0, 1, 1), (1, 0, 1)], 2e-9, [(1.0, 2e-9), (3.0, 2e-9)]),
            ([(0, 0, 1), (0, 0, 2)], 8e-10, [(3.0, np.hypot(8e-10, 8e-10))]),
        ],
        ids=["rates-1-3-below", "rates-1-3-above", "rate-3-twice"],
    )
    def test_verdict_comes_from_excited_modes(self, oracle, slots, eps, modes):
        """Two growing slots of 8e-10 each, at rates 3 and 1, sit below the
        1e-9 cut, while their joint norm, 1.13e-9, is above it: no mode is
        excited and the flow has a limit.  At 2e-9 both rates are listed.
        Two slots of 8e-10 that share the rate 3 form one mode of amplitude
        1.13e-9, so that flow diverges.  With ``oracle``, the expected modes
        are the excited eigenvalue groups of the dense ``L_Z`` instead."""
        Z = PolyVectorField.from_affine(np.diag([1.0, -1, -1]), np.zeros(3))
        c1 = np.zeros((3, 3, 3))
        c2 = np.zeros((3, 3, 3, 3))
        c2[1, 1, 1, 1] = 1.0
        for slot in slots:
            c1[slot] = eps
        T = PolyTensorField._of(np.zeros((3, 3)), c1, c2, "symmetric")
        fam = flow_family(Z, T)
        an = asymptotic_limit(fam)
        if oracle:
            vals, vecs = np.linalg.eig(dense_superoperator(Z, "symmetric"))
            coef = np.linalg.solve(vecs, fam.flat0)
            cut = 1e-9 * max(1.0, np.linalg.norm(fam.flat0))
            modes = []
            for rate in np.unique(np.round(-vals.real[vals.real < -1e-8], 9)):
                idx = np.round(-vals.real, 9) == rate
                amp = np.linalg.norm(vecs[:, idx] @ coef[idx])
                if amp > cut:
                    modes.append((rate, amp))
        assert an.amplitudes["growing"] > 1e-9
        if not modes:
            assert an.verdict == "limit" and an.modes == []
            assert an.limit is not None
        else:
            assert an.verdict == "divergent" and an.limit is None
            got = sorted((md.growth_rate, md.amplitude) for md in an.modes)
            assert len(got) == len(modes)
            for (rate, amp), (want_rate, want_amp) in zip(got, modes):
                assert rate == pytest.approx(want_rate, abs=1e-12)
                assert amp == pytest.approx(want_amp, rel=1e-12)

    def test_eigenvalues_are_the_spectrum_of_the_superoperator(self):
        """The reported eigenvalues, sums over the sector's pairs of the
        eigenvalues of ``A``, are those of the dense ``L_Z`` as multisets."""
        for model, n in _test_models():
            Z = model if isinstance(model, PolyVectorField) else lindblad_vf(model)
            basis = build_basis(n)
            for T in (poisson_field(basis), symmetric_field(basis)):
                got = _sorted_eigs(asymptotic_limit(flow_family(Z, T)).eigenvalues)
                want = _sorted_eigs(np.linalg.eigvals(dense_superoperator(Z, T.symmetry)))
                assert len(got) == len(want)
                assert np.abs(np.subtract(got, want)).max() <= 1e-8

    def test_exceptional_point_limits_match_expm(self):
        """At ``gamma = 2`` the eigenvectors of ``A`` are parallel
        (``cond(V)`` ~ 7e7), but its cluster bases are not: both sectors
        converge, to the limit of ``expm(-20 M) flat0``."""
        Z = _driven_damped_qubit(2.0)
        basis = build_basis(2)
        for T in (poisson_field(basis), symmetric_field(basis)):
            fam = flow_family(Z, T)
            an = asymptotic_limit(fam)
            assert an.verdict == "limit" and an.modes == []
            want = scipy.linalg.expm(-20.0 * dense_superoperator(Z, T.symmetry)) @ fam.flat0
            assert np.abs(an.limit_flat - want).max() <= 5e-6 * np.abs(fam.flat0).max()

    @pytest.mark.parametrize(
        "gamma, verdict, eigenvalues",
        [(2.0 - 1e-6, "oscillatory", [0.001j, 0.002j]), (2.0 + 1e-6, "divergent", [-0.001, -0.002])],
    )
    def test_next_to_the_exceptional_point(self, gamma, verdict, eigenvalues):
        """Off the exceptional point the defective pair splits by
        ``2 sqrt(|gamma - 2| / 4)`` = 1e-3, into a complex pair below 2 and
        a real pair above it.  The Poisson tensor still converges, while
        the symmetric one has modes at the splittings."""
        Z = _driven_damped_qubit(gamma)
        basis = build_basis(2)
        fam = flow_family(Z, poisson_field(basis))
        an = asymptotic_limit(fam)
        assert an.verdict == "limit"
        want = scipy.linalg.expm(-20.0 * dense_superoperator(Z, "antisymmetric")) @ fam.flat0
        assert np.abs(an.limit_flat - want).max() <= 5e-6
        an = asymptotic_limit(flow_family(Z, symmetric_field(basis)))
        assert an.verdict == verdict
        got = sorted((md.eigenvalue for md in an.modes), key=abs)
        assert np.abs(np.subtract(got, eigenvalues)).max() <= 1e-9
        assert not any(md.polynomial_growth for md in an.modes)
        assert all(md.oscillatory == (verdict == "oscillatory") for md in an.modes)

    def test_random_ququart_in_under_a_second(self):
        """A seeded generic n = 4 flow excites dozens of growing modes out of
        thousands of eigenvalue groups; both sectors take well under a
        second."""
        import time

        basis = build_basis(4)
        Z = lindblad_vf(_random_lindblad(4, 11))
        t0 = time.perf_counter()
        an = [asymptotic_limit(flow_family(Z, T))
              for T in (poisson_field(basis), symmetric_field(basis))]
        assert time.perf_counter() - t0 < 1.0
        assert [a.verdict for a in an] == ["divergent", "divergent"]
        assert all(len(a.modes) > 10 for a in an)
