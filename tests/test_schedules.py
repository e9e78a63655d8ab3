import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_schedules import (
    reference_signgd_step_factors,
    reference_subgrad_step_factors,
    reference_validate_subgrad_coefficients,
)
from spikeopt.cli import _scaled
from spikeopt.codec import SignedDecoder
from spikeopt.schedules import (
    Schedule,
    ScheduleError,
    parse_schedule,
    signgd_step_factors,
    solve_signgd_coefficients,
    solve_subgrad_coefficients,
    subgrad_step_factors,
    validate_signgd_coefficients,
    validate_subgrad_coefficients,
)


class TestEval:
    def test_inverse(self):
        assert Schedule.inverse(1.0)(3) == 0.25

    def test_exponential_t0(self):
        assert Schedule.exponential(0.15, 0.965)(0) == 0.15

    def test_exponential_t1(self):
        assert Schedule.exponential(0.15, 0.965)(1) == pytest.approx(0.144750)

    def test_constant(self):
        assert Schedule.constant(0.1)(7) == 0.1

    def test_vectorized(self):
        s = Schedule.inverse(2.0)
        np.testing.assert_allclose(s(np.array([1, 3])), [1.0, 0.5])

    def test_rejects_nonpositive(self):
        with pytest.raises(ScheduleError):
            Schedule.constant(-1.0)
        with pytest.raises(ScheduleError):
            Schedule.exponential(0.1, 0.0)
        with pytest.raises(ScheduleError):
            Schedule.exponential(0.1, 1.5)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
DECAY = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


class TestParse:
    @pytest.mark.parametrize(
        "text,kind,params",
        [
            ("inv:1", "inverse", (1.0,)),
            ("exp:0.15:0.965", "exponential", (0.15, 0.965)),
            ("const:0.1", "constant", (0.1,)),
        ],
    )
    def test_roundtrip(self, text, kind, params):
        s = parse_schedule(text)
        assert s.kind == kind and s.params == params
        assert str(s) == text and parse_schedule(str(s)) == s

    @settings(max_examples=300, deadline=None)
    @given(s=st.one_of(st.builds(Schedule.inverse, POSITIVE),
                       st.builds(Schedule.exponential, POSITIVE, DECAY),
                       st.builds(Schedule.constant, POSITIVE)))
    def test_text_reads_back_as_the_same_schedule(self, s):
        """A schedule's text keeps every bit of its parameters: it is what a
        saved network's file holds."""
        assert parse_schedule(str(s)) == s

    def test_bad_syntax(self):
        for bad in ("inv", "exp:0.1", "lin:3", "inv:abc"):
            with pytest.raises(ScheduleError):
                parse_schedule(bad)


class TestSignGdCoefficients:
    def test_canonical_inverse(self):
        s = Schedule.inverse(1.0)
        c = solve_signgd_coefficients(s, "canonical")
        assert c.alpha1(5) == 1.0 and c.beta1(5) == 1.0
        assert c.alpha2(3) == 0.25 and c.beta2(3) == 0.25
        assert validate_signgd_coefficients(c, s, t_max=1000, tol=1e-12)

    def test_unit_current_values(self):
        s = Schedule.exponential(0.15, 0.965)
        c = solve_signgd_coefficients(s, "unit-current")
        assert c.alpha1(9) == pytest.approx(1 / 0.965)
        assert c.beta1(9) == 0.965
        assert c.alpha2(9) == pytest.approx(0.144750)
        assert validate_signgd_coefficients(c, s, t_max=1000, tol=1e-12)

    def test_unit_current_needs_exponential(self):
        with pytest.raises(ScheduleError):
            solve_signgd_coefficients(Schedule.inverse(1.0), "unit-current")

    def test_constant_canonical(self):
        s = Schedule.constant(0.3)
        c = solve_signgd_coefficients(s)
        assert c.alpha2(17) == 0.3
        assert validate_signgd_coefficients(c, s, t_max=100, tol=1e-12)

    def test_perturbed_beta1_fails(self):
        s = Schedule.inverse(1.0)
        c = dataclasses.replace(solve_signgd_coefficients(s), beta1=lambda t: 1.0 + 1e-3)
        assert not validate_signgd_coefficients(c, s, t_max=100, tol=1e-12)

    def test_validator_long_horizon(self):
        # both parameterizations replay cleanly up to t = 1e4
        for s, p in [
            (Schedule.inverse(1.0), "canonical"),
            (Schedule.exponential(0.15, 0.965), "canonical"),
            (Schedule.constant(0.05), "canonical"),
            (Schedule.exponential(0.15, 0.965), "unit-current"),
        ]:
            c = solve_signgd_coefficients(s, p)
            assert validate_signgd_coefficients(c, s, t_max=10_000, tol=1e-12), (s, p)


class TestSubgradCoefficients:
    def test_inverse_solution(self):
        s = Schedule.inverse(1.0)
        c = solve_subgrad_coefficients(s)
        assert c.alpha(3) == pytest.approx(4 / 5)
        assert c.beta(3) == pytest.approx(0.25)
        assert c.gamma(3) == pytest.approx(0.25)
        assert validate_subgrad_coefficients(c, s, t_max=200)

    def test_constant_solution_matches_leak(self):
        tau = 10.0
        s = Schedule.constant(1 / tau)
        c = solve_subgrad_coefficients(s)
        assert c.alpha(7) == pytest.approx((tau - 1) / tau)
        assert validate_subgrad_coefficients(c, s, t_max=200)

    def test_exponential_solution(self):
        s = Schedule.exponential(0.15, 0.95)
        c = solve_subgrad_coefficients(s)
        assert c.alpha(2) == pytest.approx(1 - 0.15 * 0.95**3)
        assert validate_subgrad_coefficients(c, s, t_max=200)

    def test_out_of_range_schedule(self):
        with pytest.raises(ScheduleError):
            solve_subgrad_coefficients(Schedule.constant(1.0))
        with pytest.raises(ScheduleError):
            solve_subgrad_coefficients(Schedule.inverse(2.5))

    def test_log_space_replay_1e3(self):
        # acceptance-grade horizon; products only live in log space
        s = Schedule.inverse(1.0)
        c = solve_subgrad_coefficients(s)
        assert validate_subgrad_coefficients(c, s, t_max=1000, tol=1e-10)

    def test_perturbation_detected(self):
        s = Schedule.inverse(1.0)
        c = solve_subgrad_coefficients(s)
        from spikeopt.schedules import SubgradCoefficients

        bad = SubgradCoefficients(
            alpha=lambda t: np.asarray(c.alpha(t)) * 1.001,
            beta=c.beta, gamma=c.gamma, schedule=s,
        )
        assert not validate_subgrad_coefficients(bad, s, t_max=50)

    def test_alpha_is_the_schedules_own_scalar(self):
        """alpha(t) = 1 - eta(t + 1) through the schedule's scalar path, the
        Python power its gamma, beta and eta use, bit for bit."""
        s = parse_schedule("exp:0.5:0.99")
        c = solve_subgrad_coefficients(s)
        assert all(c.alpha(t) == 1.0 - s(t + 1) for t in range(3001))


# schedules with eta(1) < 1, as the subgradient coefficients need
subgrad_schedules = st.one_of(
    st.floats(0.01, 1.99).map(Schedule.inverse),
    st.tuples(st.floats(0.01, 0.99), st.floats(0.5, 1.0)).map(
        lambda p: Schedule.exponential(*p)),
    st.floats(0.01, 0.99).map(Schedule.constant),
)


@settings(max_examples=200, deadline=None)
@given(s=subgrad_schedules, t_max=st.integers(1, 64),
       field=st.sampled_from(["alpha", "beta", "gamma"]),
       factor=st.sampled_from([1.0, 1.01, 0.99, 1 + 1e-9, 1 - 1e-10, 1 + 3e-11]),
       tol=st.sampled_from([1e-10, 1e-12]))
def test_subgrad_check_matches_its_reference(s, t_max, field, factor, tol):
    """The broadcast check gives the verdict of the pair-grid reference on
    solved and corrupted coefficient sets (one coefficient scaled)."""
    c = solve_subgrad_coefficients(s)
    base = getattr(c, field)
    c = dataclasses.replace(c, **{field: lambda t: np.asarray(base(t)) * factor})
    with np.errstate(all="ignore"):
        want = reference_validate_subgrad_coefficients(c, s, t_max, tol)
        got = validate_subgrad_coefficients(c, s, t_max, tol)
    assert got is want


@pytest.mark.parametrize("gamma_shift,beta_shift,ok", [(1.5, 0.6, True), (0.6, 1.5, False)])
def test_subgrad_check_reads_the_triangle_i_le_t(gamma_shift, beta_shift, ok):
    """Condition 2's deviation at [i, t] separates as A(i) - B(t). Scaling
    gamma(t_max) by exp(-gamma_shift tol) and beta(t_max) by
    exp(-beta_shift tol) shifts A(t_max) and B(t_max) by those multiples
    of tol: the diagonal moves by 0.9 tol, row i = t_max (i > t, which the
    check skips) by gamma_shift tol and column t = t_max (i < t) by
    beta_shift tol. So the only violation lies below the diagonal in the
    first case and above it in the second, and a check of the transposed
    triangle gives the opposite verdicts. Under const:0.5, condition 1
    allows beta a relative change of 2 tol."""
    s, t_max, tol = parse_schedule("const:0.5"), 16, 1e-10
    c = solve_subgrad_coefficients(s)

    def at_t_max(base, shift):
        return lambda t: np.where(t == t_max, np.asarray(base(t)) * np.exp(-shift * tol), base(t))

    c = dataclasses.replace(c, gamma=at_t_max(c.gamma, gamma_shift),
                            beta=at_t_max(c.beta, beta_shift))
    assert validate_subgrad_coefficients(c, s, t_max, tol) is ok
    assert reference_validate_subgrad_coefficients(c, s, t_max, tol) is ok


@pytest.mark.parametrize("family", ["signgd", "subgrad"])
def test_a_set_whose_rows_were_read_is_freed_without_the_collector(family):
    """A set's row memo refers to nothing that refers back to the set, so
    reference counting alone frees it."""
    s = Schedule.exponential(0.5, 0.99)
    c = solve_signgd_coefficients(s) if family == "signgd" else solve_subgrad_coefficients(s)
    assert [c.row(t) for t in (1, 2, 1)][0] is c.row(1)
    ref = weakref.ref(c)
    gc.disable()
    try:
        del c
        assert ref() is None
    finally:
        gc.enable()


def test_a_sign_step_whose_step_size_underflows_has_no_row():
    """Under exp:0.5:0.5, eta(1074) = 0.5 * 0.5**1074 underflows to 0, so
    alpha2(1074) is 0 in the canonical set: step 1073 has a row, and step
    1074 is refused, naming the schedule, the step and the coefficient, on
    every read (a refused step leaves no row in the memo)."""
    c = solve_signgd_coefficients(parse_schedule("exp:0.5:0.5"))
    assert c.row(1073)[2] > 0.0
    for _ in range(2):
        with pytest.raises(ScheduleError) as exc:
            c.row(1074)
        assert str(exc.value).startswith(
            "sign-dynamics step 1074 under exp:0.5:0.5: alpha2(1074) is 0 (its step size "
            "underflows to 0); the decode after step 1073 reads")
    assert 1074 not in c._rows


@pytest.mark.parametrize("name,zero_at,refused", [("alpha2", 3, 3), ("beta2", 3, 4)])
def test_a_sign_step_with_a_zero_alpha2_or_previous_beta2_has_no_row(name, zero_at, refused):
    """A set whose alpha2(t) or beta2(t - 1) is 0 has no row of step t: its
    v scale eta(t)/alpha2(t) or its u scale eta(t-1)/beta2(t-1) has no
    value. The steps around it keep theirs."""
    c = solve_signgd_coefficients(parse_schedule("inv:1"))
    base = getattr(c, name)
    z = dataclasses.replace(c, **{name: lambda t: 0.0 if t == zero_at else base(t)})
    with pytest.raises(ScheduleError, match=rf"step {refused} under inv:1: {name}\({zero_at}\) "
                                            rf"is 0"):
        z.row(refused)
    for t in {1, 2, 3, 4, 5} - {zero_at, refused}:
        assert z.row(t) == c.row(t)


def test_sets_that_divide_by_no_underflowed_step_size_run_past_it():
    """The unit-current set's alpha2 = beta2 = eta(1) is never 0, so no step
    is refused for it: under exp:0.5:0.5 the set has a row of step 1024,
    whose eta is subnormal, and from step 1025 on it is refused for its
    scales instead (its v scale is 0 at step 1200, whose eta(1200) is 0).
    The subgradient family divides by nothing: it has a row of step 1200."""
    s = parse_schedule("exp:0.5:0.5")
    assert s(1200) == 0.0
    c = solve_signgd_coefficients(s, "unit-current")
    row = c.row(1024)
    assert row[2] == 0.25 and 0.0 < row[0] < 1e-300
    for t in (1025, 1200):
        with pytest.raises(ScheduleError, match=rf"step {t} under exp:0.5:0.5: its [uv] scale"):
            c.row(t)
    assert solve_subgrad_coefficients(s).row(1200) == (1.0, 0.0, 0.0, 0.0)


def test_a_step_whose_scaled_state_leaves_the_float_range_has_no_row():
    """The unit-current set of exp:a:g has u scale g**(t-2) and v scale
    g**(t-1), and u and v grow by 1/g per step. A step whose u or v scale is
    at most 2**-1024, whose reciprocal overflows, is refused, naming the
    step and the scale:
    under exp:0.5:0.5 step 1024 (scales 2**-1022 and 2**-1023) has a row and
    step 1025 (v scale 2**-1024) has none. The bench's exp:1:0.999 reaches
    that bound near step 709,430. Canonical scales are 1 at every step."""
    c = solve_signgd_coefficients(parse_schedule("exp:0.5:0.5"), "unit-current")
    assert c.row(1024)[3:5] == (2.0**-1022, 2.0**-1023)
    with pytest.raises(ScheduleError) as exc:
        c.row(1025)
    assert str(exc.value) == (
        "sign-dynamics step 1025 under exp:0.5:0.5: its v scale 5.56e-309 is at most "
        "2**-1024, so v, the decoded value over it, leaves the float range (the decode after "
        "step 1024 reads this step's u scale too)")
    assert 1025 not in c._rows
    bench = solve_signgd_coefficients(parse_schedule("exp:1:0.999"), "unit-current")
    assert bench.row(709_000)[4] > 0.0
    with pytest.raises(ScheduleError, match="step 710000 .* its [uv] scale"):
        bench.row(710_000)
    for text in ("inv:1", "exp:0.5:0.5", "exp:1:0.999", "const:5e152"):
        canonical = solve_signgd_coefficients(parse_schedule(text))
        for t in (1, 2, 1025, 1073):
            assert canonical.row(t)[3:5] == (1.0, 1.0)


@pytest.mark.parametrize("t_max", [8, 16, 32])
def test_subgrad_check_reads_the_pairs_i_up_to_t(t_max):
    """Under inv:1, gamma scaled by 1 - 0.9 tol and alpha by 1 + tol/20 put
    the log deviation of pair [i, t] at -0.9 tol + (t - i) tol/20: inside tol
    for every i <= t, the pairs the condition holds for, and past it for the
    pairs i > t that the check skips. Both checks accept the set."""
    s, tol = Schedule.inverse(1.0), 1e-10
    c = solve_subgrad_coefficients(s)
    c = dataclasses.replace(c, gamma=lambda t: s(t) * (1 - 0.9 * tol),
                            alpha=lambda t, a=c.alpha: a(t) * (1 + tol / 20))
    assert reference_validate_subgrad_coefficients(c, s, t_max, tol)
    assert validate_subgrad_coefficients(c, s, t_max, tol)


class TestReachableRange:
    @pytest.mark.parametrize(
        "s",
        [Schedule.inverse(1.0), Schedule.exponential(0.15, 0.965), Schedule.constant(0.2)],
    )
    @pytest.mark.parametrize("train", ["zeros", "ones"])
    def test_worst_case_decode_within_cumulative(self, s, train):
        T = 64
        dec = SignedDecoder(s)
        spikes = np.zeros(T) if train == "zeros" else np.ones(T)
        for t in range(T):
            dec.step(spikes[t])
        assert abs(dec.y) <= s.cumulative(T) + 1e-12
        # the all-constant trains actually attain the range
        assert abs(dec.y) == pytest.approx(s.cumulative(T))


def _made(make, c, t):
    """make(c, t) as the hex text of each scalar, or the text of the
    ScheduleError it raises."""
    try:
        return tuple(float.hex(x) for x in make(c, t))
    except ScheduleError as exc:
        return f"refused: {exc}"


def _zeroed(c, name, at):
    """`c` with its coefficient `name` 0 at t = `at`."""
    base = getattr(c, name)
    return dataclasses.replace(c, **{name: lambda t: 0.0 if t == at else base(t)})


any_schedules = st.one_of(st.builds(Schedule.inverse, POSITIVE),
                          st.builds(Schedule.exponential, POSITIVE, DECAY),
                          st.builds(Schedule.constant, POSITIVE))
FACTORS = st.sampled_from([1.0, 1.01, 0.5, 1 + 1e-9, 0.0, 3e300])


@settings(max_examples=150, deadline=None)
@given(s=any_schedules, unit_current=st.booleans(), factor=FACTORS,
       zero=st.one_of(st.none(), st.tuples(st.sampled_from(["alpha2", "beta2"]),
                                           st.integers(0, 300))),
       descending=st.booleans())
def test_sign_rows_are_the_reference_rows(s, unit_current, factor, zero, descending):
    """Every sign row, made from the set's one evaluation of each
    coefficient per t, is the row of the maker that evaluates each
    coefficient where it reads it, bit for bit, and a refused step is
    refused with the same message: canonical and unit-current sets, beta1
    scaled as --corrupt-beta1 scales it, alpha2 or beta2 made 0 at one t,
    rows asked for in either order."""
    c = solve_signgd_coefficients(s, "unit-current" if unit_current and s.kind == "exponential"
                                  else "canonical")
    c = _scaled(c, "beta1", factor)
    if zero is not None:
        c = _zeroed(c, *zero)
    steps = range(300, 0, -1) if descending else range(1, 301)
    with np.errstate(all="ignore"):
        for t in steps:
            assert _made(signgd_step_factors, c, t) == _made(reference_signgd_step_factors, c, t)


@settings(max_examples=100, deadline=None)
@given(s=subgrad_schedules, factor=FACTORS, descending=st.booleans())
def test_subgrad_rows_are_the_reference_rows(s, factor, descending):
    """Every subgradient row is the reference maker's, bit for bit, on
    solved sets and on sets with alpha scaled as --corrupt-alpha scales it."""
    c = _scaled(solve_subgrad_coefficients(s), "alpha", factor)
    with np.errstate(all="ignore"):
        for t in (range(300, 0, -1) if descending else range(1, 301)):
            assert _made(subgrad_step_factors, c, t) == _made(reference_subgrad_step_factors, c, t)


@pytest.mark.parametrize("parameterization,refused", [("canonical", 1074),
                                                      ("unit-current", 1025)])
def test_the_first_refused_sign_step_is_the_references(parameterization, refused):
    """Under exp:0.5:0.5 the canonical set is first refused at step 1074
    (alpha2 underflows to 0) and the unit-current set at step 1025 (its v
    scale): both makers agree on every step around it, rows and messages."""
    c = solve_signgd_coefficients(parse_schedule("exp:0.5:0.5"), parameterization)
    made = [_made(signgd_step_factors, c, t) for t in range(refused - 3, refused + 3)]
    assert made == [_made(reference_signgd_step_factors, c, t)
                    for t in range(refused - 3, refused + 3)]
    assert [isinstance(m, str) for m in made] == [False] * 3 + [True] * 3
