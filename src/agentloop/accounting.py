"""Token counting, pricing, budget ledger, and the context-cost model.

Two independent routes compute the token cost of a run:

* closed-form totals (``tokens_before``/``tokens_after``) that evaluate the
  published per-category sums symbol-for-symbol, converted to polynomials in
  the summation bounds so they accept non-integer turn statistics, and
* an event-level simulator (``simulate_tokens``) that walks a run call by
  call and counts what each call actually pays.

The two agree exactly on the memory-retrieval side. On the flat side the
published analysis/action/observation terms do not match any event model we
could construct (they look like transcription slips); ``term_discrepancies``
quantifies the gap per category instead of silently patching the formulas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import UnknownModel

# Fixed category order: every dot product below iterates in this order so the
# formula and simulator paths produce bit-identical floats.
CATEGORIES = ("input", "sumy", "eval", "task", "analysis", "action", "obs")

# Published headline savings, recorded for reports. Not reproducible from the
# published closed forms and averages; kept as a reference claim only.
REFERENCE_CLAIM = {"input_saving": 0.7981, "output_saving": 0.8306}


def count_tokens(*texts: str) -> int:
    """Deterministic offline token proxy: ceil(utf-8 bytes / 4) of the texts
    joined by "\n", counted from their sizes without building the join (no
    texts count 0). ASCII text is not encoded: its length is its byte count,
    and ``isascii`` reads a flag."""
    size = len(texts) - 1 if texts else 0  # one byte per separator
    for text in texts:
        size += len(text) if text.isascii() else len(text.encode("utf-8"))
    return -(-size // 4)


@dataclass(frozen=True)
class TokenModelParams:
    """Turn statistics and per-category average token sizes.

    n: analyses per turn, m: action-observation pairs per turn, k: turns.
    The seven averages are the mean token counts of one record of each kind.
    """

    n: float
    m: float
    k: float
    input: float
    sumy: float
    eval: float
    task: float
    analysis: float
    action: float
    obs: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n < 0 or self.m < 0:
            raise ValueError("n and m must be non-negative")
        for cat in CATEGORIES:
            if getattr(self, cat) < 0:
                raise ValueError(f"average '{cat}' must be non-negative")

    def averages(self) -> dict[str, float]:
        return {cat: getattr(self, cat) for cat in CATEGORIES}

    @classmethod
    def sampled_defaults(cls) -> "TokenModelParams":
        """The sampled per-category averages and turn statistics."""
        return cls(
            n=2.53, m=3.78, k=5.64,
            input=359, sumy=784, eval=7.54, task=754,
            analysis=148, action=227, obs=1994,
        )


def _dot(coeffs: Mapping[str, float], avg: Mapping[str, float]) -> float:
    total = 0.0
    for cat in CATEGORIES:
        total += coeffs.get(cat, 0.0) * avg[cat]
    return total


# Polynomial forms of the index sums, valid at real-valued bounds:
#   sum_{i=0}^{k-1} i       = k(k-1)/2
#   sum_{i=0}^{k-1} (k-i)   = k(k+1)/2


def before_input_coefficients(n: float, m: float, k: float) -> dict[str, float]:
    """Per-category multipliers of the flat-history input total, verbatim.

    The action/observation terms keep their published (3-i) factor and
    j=0..m inner bound, and the analysis term its (3+2m)i coefficient, even
    though all three look inconsistent with the sibling terms; see
    ``term_discrepancies`` for the measured consequences.
    """
    e = 3 + 2 * m + n
    s_i = k * (k - 1) / 2.0
    s_ki = k * (k + 1) / 2.0
    action_core = (3 * k - s_i) * e - k * (2 * n + 2 + m)
    return {
        "input": k * e,
        "sumy": e * (s_ki - k),
        "eval": e * s_ki - k * (n + 2 * m + 2),
        "task": e * s_ki - k * (n + 1),
        "analysis": n * k * k * e - (3 + 2 * m) * n * s_i - k * n * (n + 1) / 2.0,
        "action": (m + 1) * action_core,
        "obs": (m + 1) * action_core - k * (m + 1),
    }


def after_input_coefficients(n: float, k: float) -> dict[str, float]:
    """Per-category multipliers of the retrieval-mode input total."""
    f = 2 + n
    s_ki = k * (k + 1) / 2.0
    return {
        "input": k * f,
        "sumy": f * s_ki - k * (n + 2),
        "task": f * s_ki - k * (n + 1),
        "analysis": f * n * s_ki - k * n * (n + 1) / 2.0,
    }


def before_input_terms(p: TokenModelParams) -> dict[str, float]:
    coeffs = before_input_coefficients(p.n, p.m, p.k)
    avg = p.averages()
    return {cat: coeffs[cat] * avg[cat] for cat in CATEGORIES}


def tokens_before(p: TokenModelParams) -> tuple[float, float]:
    """Input/output token totals without memory retrieval (closed form)."""
    tin = _dot(before_input_coefficients(p.n, p.m, p.k), p.averages())
    out_coeffs = {
        "sumy": p.k, "eval": p.k, "task": p.k,
        "analysis": p.n * p.k,
        "action": p.m * p.k, "obs": p.m * p.k,
    }
    tout = _dot(out_coeffs, p.averages())
    return tin, tout


def tokens_after(p: TokenModelParams) -> tuple[float, float]:
    """Input/output token totals with memory retrieval (closed form)."""
    tin = _dot(after_input_coefficients(p.n, p.k), p.averages())
    out_coeffs = {"sumy": p.k, "task": p.k, "analysis": p.n * p.k}
    tout = _dot(out_coeffs, p.averages())
    return tin, tout


def simulate_multipliers(
    n: int, m: int, k: int, mode: str = "flat", obs_as_output: bool = True
) -> tuple[dict[str, int], dict[str, int]]:
    """Walk a run event by event; return per-category input/output multipliers.

    flat: every turn emits n analyses, a task, m action-observation pairs, an
    evaluation, and a summary; every event is a call whose context is the user
    input plus every prior event of the whole run.

    retrieval: every turn makes n+2 brain calls (analyses, task, summary);
    each call's context is the user input plus all previously retained
    analysis/task/summary records. Observations never reach a brain call.
    """
    for name, value in (("n", n), ("m", m), ("k", k)):
        if not isinstance(value, int):
            raise TypeError(f"{name} must be an integer for simulation, got {value!r}")
    if n < 0 or m < 0 or k < 1:
        raise ValueError("need n >= 0, m >= 0, k >= 1")
    if mode not in ("flat", "retrieval"):
        raise ValueError(f"unknown mode {mode!r}")

    in_mult = {cat: 0 for cat in CATEGORIES}
    out_mult = {cat: 0 for cat in CATEGORIES}
    context: dict[str, int] = {cat: 0 for cat in CATEGORIES}  # retained record counts

    if mode == "flat":
        turn_events = ["analysis"] * n + ["task"] + ["action", "obs"] * m + ["eval", "sumy"]
    else:
        turn_events = ["analysis"] * n + ["task", "sumy"]

    for _turn in range(k):
        for cat in turn_events:
            in_mult["input"] += 1
            for prior in CATEGORIES:
                in_mult[prior] += context[prior]
            if cat != "obs" or obs_as_output:
                out_mult[cat] += 1
            context[cat] += 1
    return in_mult, out_mult


def simulate_tokens(
    n: int,
    m: int,
    k: int,
    avg: Mapping[str, float],
    mode: str = "flat",
    obs_as_output: bool = True,
) -> tuple[float, float]:
    """Event-level token totals for integer turn statistics."""
    in_mult, out_mult = simulate_multipliers(n, m, k, mode, obs_as_output)
    return _dot(in_mult, avg), _dot(out_mult, avg)


def term_discrepancies(
    n: int, m: int, k: int, avg: Mapping[str, float]
) -> dict[str, dict[str, float]]:
    """Per-category gap between the published flat input terms and the simulator."""
    coeffs = before_input_coefficients(n, m, k)
    in_mult, _ = simulate_multipliers(n, m, k, mode="flat", obs_as_output=True)
    report = {}
    for cat in CATEGORIES:
        formula = coeffs[cat] * avg[cat]
        simulated = in_mult[cat] * avg[cat]
        report[cat] = {
            "formula": formula,
            "simulator": simulated,
            "delta": formula - simulated,
        }
    return report


def _round_to_int(x: float) -> int:
    return int(math.floor(x + 0.5))


def savings(p: TokenModelParams, via: str = "simulator") -> tuple[float, float]:
    """Fractional input/output savings of retrieval over flat history.

    via="formulas" evaluates the published closed forms verbatim;
    via="simulator" rounds n, m, k to the nearest integers and compares the
    two event-level simulations.
    """
    if via == "formulas":
        in_bef, out_bef = tokens_before(p)
        in_aft, out_aft = tokens_after(p)
    elif via == "simulator":
        n, m, k = _round_to_int(p.n), _round_to_int(p.m), _round_to_int(p.k)
        avg = p.averages()
        in_bef, out_bef = simulate_tokens(n, m, k, avg, mode="flat")
        in_aft, out_aft = simulate_tokens(n, m, k, avg, mode="retrieval")
    else:
        raise ValueError(f"unknown savings route {via!r}")
    if in_bef == 0 or out_bef == 0:
        raise ZeroDivisionError("flat totals are zero; savings undefined")
    return 1.0 - in_aft / in_bef, 1.0 - out_aft / out_bef


def cost_report(p: TokenModelParams) -> dict:
    """Full cost-model report: formulas, simulator, savings, discrepancies."""
    in_bef, out_bef = tokens_before(p)
    in_aft, out_aft = tokens_after(p)
    n, m, k = _round_to_int(p.n), _round_to_int(p.m), _round_to_int(p.k)
    avg = p.averages()
    sim_in_bef, sim_out_bef = simulate_tokens(n, m, k, avg, mode="flat")
    sim_in_aft, sim_out_aft = simulate_tokens(n, m, k, avg, mode="retrieval")

    def _savings_pair(before: float, after: float) -> float | None:
        return None if before == 0 else 1.0 - after / before

    return {
        "params": {"n": p.n, "m": p.m, "k": p.k, "averages": avg},
        "formulas": {
            "input_before": in_bef,
            "output_before": out_bef,
            "input_after": in_aft,
            "output_after": out_aft,
            "input_saving": _savings_pair(in_bef, in_aft),
            "output_saving": _savings_pair(out_bef, out_aft),
        },
        "simulator": {
            "n": n, "m": m, "k": k,
            "note": "n, m, k rounded to nearest integers for event enumeration",
            "input_before": sim_in_bef,
            "output_before": sim_out_bef,
            "input_after": sim_in_aft,
            "output_after": sim_out_aft,
            "input_saving": _savings_pair(sim_in_bef, sim_in_aft),
            "output_saving": _savings_pair(sim_out_bef, sim_out_aft),
        },
        "reference_claim": dict(REFERENCE_CLAIM),
        "discrepancies": term_discrepancies(n, m, k, avg),
    }


# --- pricing and the usage ledger ---

PricingTable = Mapping[str, tuple[float, float]]


def load_pricing(path: str | Path) -> dict[str, tuple[float, float]]:
    """Load a JSON pricing table: model -> [input rate, output rate] per 1M tokens.
    ValueError unless every rate is a finite, non-negative number: a NaN or
    negative rate would switch the budget cap off."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("pricing table must map each model to [input rate, output rate]")
    table: dict[str, tuple[float, float]] = {}
    for model, rates in data.items():
        if not (
            isinstance(rates, list)
            and len(rates) == 2
            and all(type(rate) in (int, float) and 0 <= rate < math.inf for rate in rates)
        ):
            raise ValueError(f"pricing for {model!r} is not two finite, non-negative rates: {rates!r}")
        table[model] = (float(rates[0]), float(rates[1]))
    return table


def call_cost(prompt_tokens: int, completion_tokens: int, model: str, pricing: PricingTable) -> float:
    if model not in pricing:
        raise UnknownModel(f"no pricing for model {model!r}")
    rate_in, rate_out = pricing[model]
    return prompt_tokens * rate_in / 1e6 + completion_tokens * rate_out / 1e6


@dataclass(frozen=True)
class UsageEntry:
    call_id: int
    role: str
    prompt_tokens: int
    completion_tokens: int
    model: str
    cost: float


@dataclass
class UsageLedger:
    """Append-only record of backend calls and their cost."""

    entries: list[UsageEntry] = field(default_factory=list)
    _total: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._total = sum(e.cost for e in self.entries)

    def charge(
        self,
        role: str,
        prompt_tokens: int,
        completion_tokens: int,
        model: str,
        pricing: PricingTable,
    ) -> UsageEntry:
        entry = UsageEntry(
            call_id=len(self.entries),
            role=role,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            model=model,
            cost=call_cost(prompt_tokens, completion_tokens, model, pricing),
        )
        self.entries.append(entry)
        self._total += entry.cost
        return entry

    @property
    def total_cost(self) -> float:
        # a running total: the budget guard reads it before and after every call
        return self._total

    def totals_by_model(self) -> dict[str, dict[str, float]]:
        totals: dict[str, dict[str, float]] = {}
        for e in self.entries:
            t = totals.setdefault(
                e.model, {"prompt_tokens": 0, "completion_tokens": 0, "cost": 0.0}
            )
            t["prompt_tokens"] += e.prompt_tokens
            t["completion_tokens"] += e.completion_tokens
            t["cost"] += e.cost
        return totals

    def to_dict(self) -> dict:
        return {
            "entries": [vars(e) for e in self.entries],
            "totals_by_model": self.totals_by_model(),
            "total_cost": self.total_cost,
        }
