"""Cost-model tests: frozen goldens from the event enumerator, agreement and
discrepancy properties between the closed forms and the simulator, and the
pricing ledger."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentloop import accounting
from agentloop.accounting import (
    CATEGORIES,
    TokenModelParams,
    UsageLedger,
    before_input_terms,
    cost_report,
    count_tokens,
    savings,
    simulate_multipliers,
    simulate_tokens,
    term_discrepancies,
    tokens_after,
    tokens_before,
)
from agentloop.errors import UnknownModel

ONES = {cat: 1.0 for cat in CATEGORIES}


def params(n, m, k, **avg):
    values = {cat: 0.0 for cat in CATEGORIES}
    values.update(avg)
    return TokenModelParams(n=n, m=m, k=k, **values)


# --- count_tokens ---

def test_count_tokens_empty():
    assert count_tokens("") == 0


def test_count_tokens_exact_quarter():
    assert count_tokens("a" * 8) == 2


def test_count_tokens_ceiling():
    assert count_tokens("a" * 9) == 3


def test_count_tokens_multibyte():
    # 4 two-byte characters = 8 bytes
    assert count_tokens("é" * 4) == 2


def test_count_tokens_of_no_texts_is_zero():
    assert count_tokens() == 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(parts=st.lists(st.text(alphabet="ab \n\té€😀", max_size=12), max_size=6))
def test_count_tokens_of_parts_counts_their_join(parts):
    # zero, one and many parts; ASCII, two- to four-byte, empty and newline-bearing texts
    assert count_tokens(*parts) == count_tokens("\n".join(parts))


# --- closed forms: pinned examples ---

def test_output_before_unit_averages():
    p = params(1, 1, 1, **ONES)
    _, out_bef = tokens_before(p)
    assert out_bef == 6  # k(sumy+eval+task) + nk*analysis + mk*(action+obs)


def test_output_before_sampled_defaults():
    p = TokenModelParams.sampled_defaults()
    _, out_bef = tokens_before(p)
    assert out_bef == pytest.approx(58178.6304, rel=1e-9)
    assert abs(out_bef - 58179) <= 1


def test_output_after_sampled_defaults():
    p = TokenModelParams.sampled_defaults()
    _, out_aft = tokens_after(p)
    assert out_aft == pytest.approx(10786.1616, rel=1e-9)
    assert abs(out_aft - 10786) <= 1


def test_input_totals_sampled_defaults():
    # frozen from exact rational evaluation of the closed forms
    p = TokenModelParams.sampled_defaults()
    in_bef, _ = tokens_before(p)
    in_aft, _ = tokens_after(p)
    assert in_bef == pytest.approx(262522.63846656, rel=1e-9)
    assert in_aft == pytest.approx(132622.20877536, rel=1e-9)


def test_after_small_case():
    p = params(1, 0, 1, input=100, sumy=50, task=30, analysis=20)
    assert tokens_after(p) == (370, 100)


def test_after_zero_analyses():
    # only two calls per turn: task over input, summary over input+task
    p = params(0, 0, 1, input=100, task=30, sumy=0)
    in_aft, _ = tokens_after(p)
    assert in_aft == 2 * 100 + 30


def test_params_validation():
    with pytest.raises(ValueError):
        params(1, 1, 0, **ONES)  # k < 1
    with pytest.raises(ValueError):
        params(-1, 1, 1, **ONES)
    with pytest.raises(ValueError):
        TokenModelParams(n=1, m=1, k=1, input=-5, sumy=0, eval=0, task=0,
                         analysis=0, action=0, obs=0)


# --- simulator: pinned examples ---

def test_simulate_retrieval_small():
    avg = dict(ONES, input=100.0, sumy=50.0, task=30.0, analysis=20.0)
    assert simulate_tokens(1, 0, 1, avg, mode="retrieval") == (370, 100)


def test_simulate_retrieval_two_turns_golden():
    avg = dict(ONES, input=100.0, sumy=50.0, task=30.0, analysis=20.0)
    assert simulate_tokens(1, 0, 2, avg, mode="retrieval") == (1040, 200)


def test_simulate_flat_unit():
    tin, tout = simulate_tokens(1, 1, 1, ONES, mode="flat")
    assert (tin, tout) == (21, 6)


def test_simulate_flat_obs_not_output():
    _, tout = simulate_tokens(1, 1, 1, ONES, mode="flat", obs_as_output=False)
    assert tout == 5  # the observation event no longer counts as output


def test_simulate_requires_integers():
    with pytest.raises(TypeError):
        simulate_tokens(1.5, 1, 1, ONES)
    with pytest.raises(ValueError):
        simulate_tokens(1, 1, 0, ONES)
    with pytest.raises(ValueError):
        simulate_tokens(1, 1, 1, ONES, mode="other")


# --- savings ---

def test_savings_simulator_golden():
    p = TokenModelParams.sampled_defaults()  # rounds to (3, 4, 6)
    in_saving, out_saving = savings(p, via="simulator")
    assert in_saving == pytest.approx(0.9354308745331041, rel=1e-9)
    assert out_saving == pytest.approx(0.817722655179454, rel=1e-9)
    assert in_saving > 0.70 and out_saving > 0.70


def test_savings_formulas_golden():
    # evaluated verbatim these do NOT reproduce the reference claim (0.7981, 0.8306)
    p = TokenModelParams.sampled_defaults()
    in_saving, out_saving = savings(p, via="formulas")
    assert in_saving == pytest.approx(0.49481610595555, rel=1e-9)
    assert out_saving == pytest.approx(0.81460268958136, rel=1e-9)


def test_savings_degenerate_output_side():
    # m=0 with zeroed eval/action/obs: both modes emit the same output records,
    # so output saving is exactly 0; input still shrinks (flat pays for the
    # evaluation call's context).
    p = params(1, 0, 2, input=100, sumy=50, task=30, analysis=20)
    in_saving, out_saving = savings(p, via="simulator")
    assert out_saving == 0.0
    assert in_saving > 0.0
    in_f, out_f = savings(p, via="formulas")
    assert out_f == 0.0


def test_savings_zero_division():
    p = params(0, 0, 1)  # all averages zero
    with pytest.raises(ZeroDivisionError):
        savings(p, via="simulator")


def test_reference_claim_recorded():
    assert accounting.REFERENCE_CLAIM == {"input_saving": 0.7981, "output_saving": 0.8306}


# --- formula/simulator agreement (the retrieval side is exact) ---

@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 5),
    k=st.integers(1, 6),
    avg=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=7, max_size=7),
)
def test_after_formula_equals_retrieval_simulation(n, k, avg):
    averages = dict(zip(CATEGORIES, avg))
    p = TokenModelParams(n=n, m=0, k=k, **averages)
    assert tokens_after(p) == simulate_tokens(n, 0, k, averages, mode="retrieval")


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 5),
    m=st.integers(0, 5),
    k=st.integers(1, 6),
    avg=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=7, max_size=7),
)
def test_before_output_formula_equals_flat_simulation(n, m, k, avg):
    averages = dict(zip(CATEGORIES, avg))
    p = TokenModelParams(n=n, m=m, k=k, **averages)
    _, out_formula = tokens_before(p)
    _, out_sim = simulate_tokens(n, m, k, averages, mode="flat")
    assert out_formula == out_sim


# --- the discrepancy is confined to analysis/action/obs ---

AGREEING_TERMS = ("input", "sumy", "eval", "task")
DISAGREEING_TERMS = ("analysis", "action", "obs")


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 5), m=st.integers(0, 5), k=st.integers(1, 6))
def test_flat_discrepancy_confined(n, m, k):
    report = term_discrepancies(n, m, k, ONES)
    for cat in AGREEING_TERMS:
        assert report[cat]["delta"] == 0, f"{cat} term should match the simulator"


def test_flat_discrepancy_is_nonzero_somewhere():
    seen_nonzero = {cat: False for cat in DISAGREEING_TERMS}
    for n in range(0, 6):
        for m in range(0, 6):
            for k in range(1, 7):
                report = term_discrepancies(n, m, k, ONES)
                for cat in DISAGREEING_TERMS:
                    if report[cat]["delta"] != 0:
                        seen_nonzero[cat] = True
    assert all(seen_nonzero.values()), seen_nonzero


# --- closed forms equal the literal printed sums at integer points ---

def _literal_before_terms(n, m, k, avg):
    e = 3 + 2 * m + n
    return {
        "input": k * e * avg["input"],
        "sumy": avg["sumy"] * sum((k - i - 1) * e for i in range(k)),
        "eval": avg["eval"] * sum((k - i) * e - n - 2 * m - 2 for i in range(k)),
        "task": avg["task"] * sum((k - i) * e - n - 1 for i in range(k)),
        "analysis": avg["analysis"]
        * sum(e * k - (3 + 2 * m) * i - j - 1 for i in range(k) for j in range(n)),
        "action": avg["action"]
        * sum((3 - i) * e - 2 * n - 2 - 2 * j for i in range(k) for j in range(m + 1)),
        "obs": avg["obs"]
        * sum((3 - i) * e - 2 * n - 2 - 2 * j - 1 for i in range(k) for j in range(m + 1)),
    }


def _literal_after_input(n, k, avg):
    f = 2 + n
    return (
        k * f * avg["input"]
        + avg["sumy"] * sum((k - i) * f - n - 2 for i in range(k))
        + avg["task"] * sum((k - i) * f - n - 1 for i in range(k))
        + avg["analysis"] * sum((k - i) * f - j for i in range(k) for j in range(1, n + 1))
    )


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 5), m=st.integers(0, 5), k=st.integers(1, 6))
def test_closed_forms_match_literal_sums(n, m, k):
    p = params(n, m, k, **{cat: 1.0 for cat in CATEGORIES})
    terms = before_input_terms(p)
    literal = _literal_before_terms(n, m, k, ONES)
    for cat in CATEGORIES:
        assert terms[cat] == pytest.approx(literal[cat], abs=1e-9), cat
    in_aft, _ = tokens_after(p)
    assert in_aft == pytest.approx(_literal_after_input(n, k, ONES), abs=1e-9)


# --- monotonicity ---

def test_observation_size_only_hurts_flat():
    rng = random.Random(7)
    for _ in range(20):
        n, m, k = rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 5)
        avg_small = {cat: float(rng.randint(1, 500)) for cat in CATEGORIES}
        avg_big = dict(avg_small, obs=avg_small["obs"] + 100)
        flat_small, _ = simulate_tokens(n, m, k, avg_small, mode="flat")
        flat_big, _ = simulate_tokens(n, m, k, avg_big, mode="flat")
        retr_small, _ = simulate_tokens(n, m, k, avg_small, mode="retrieval")
        retr_big, _ = simulate_tokens(n, m, k, avg_big, mode="retrieval")
        assert flat_big > flat_small
        assert retr_big == retr_small


# --- report ---

def test_cost_report_is_deterministic_and_complete():
    p = TokenModelParams.sampled_defaults()
    first = cost_report(p)
    second = cost_report(p)
    assert first == second
    assert first["reference_claim"] == {"input_saving": 0.7981, "output_saving": 0.8306}
    assert first["simulator"]["n"] == 3
    assert first["simulator"]["m"] == 4
    assert first["simulator"]["k"] == 6
    assert set(first["discrepancies"]) == set(CATEGORIES)
    assert first["simulator"]["input_saving"] > 0.70
    assert first["simulator"]["output_saving"] > 0.70


# --- pricing and ledger ---

PRICING = {"test-model": (2.50, 10.00)}


def test_charge_arithmetic():
    ledger = UsageLedger()
    assert ledger.total_cost == 0
    entry = ledger.charge("brain", 1000, 1000, "test-model", PRICING)
    assert entry.cost == pytest.approx(0.0125)
    assert ledger.total_cost == pytest.approx(0.0125)


def test_unknown_model():
    ledger = UsageLedger()
    with pytest.raises(UnknownModel):
        ledger.charge("brain", 1, 1, "mystery", PRICING)


@settings(max_examples=50, deadline=None)
@given(
    calls=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)), max_size=20
    )
)
def test_ledger_conservation(calls):
    ledger = UsageLedger()
    for prompt, completion in calls:
        ledger.charge("hand", prompt, completion, "test-model", PRICING)
    assert ledger.total_cost == pytest.approx(sum(e.cost for e in ledger.entries))
    assert len(ledger.entries) == len(calls)
    by_model = ledger.totals_by_model()
    if calls:
        assert by_model["test-model"]["prompt_tokens"] == sum(c[0] for c in calls)


def test_load_pricing(tmp_path):
    path = tmp_path / "pricing.json"
    path.write_text('{"m1": [2.5, 10.0], "m2": [0, 0]}')
    table = accounting.load_pricing(path)
    assert table == {"m1": (2.5, 10.0), "m2": (0.0, 0.0)}


@pytest.mark.parametrize("text", [
    '{"m": [NaN, NaN]}',
    '{"m": [-1e9, -1e9]}',
    '{"m": [1.0, Infinity]}',
    '{"m": [1]}',
    '{"m": [1, 2, 3]}',
    '{"m": ["1", "2"]}',
    '{"m": [true, 0]}',
    '{"m": {"in": 1, "out": 2}}',
    '[[1, 2]]',
    'not json',
])
def test_load_pricing_refuses_a_table_that_is_not_finite_non_negative_rates(tmp_path, text):
    path = tmp_path / "pricing.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        accounting.load_pricing(path)
