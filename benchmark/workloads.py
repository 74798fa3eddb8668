"""Seeded generators for the benchmark's scripted sessions.

A generator returns a ``Plan``: the mock script the engine replays, the files
that seed the workdir, and the generator's own model of everything the
session must produce (record-kind counts, observation classes, final file
bytes, backend calls per turn). Every line number and anchor in the script is
derived from that model, so the same seed always gives the same inputs and
the harness can check the engine's outputs against the model.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

# Sizes used by the benchmark command; tests pass smaller ones.
SIZES = {
    "long_session": {"turns": 60},
    "edit_burst": {"turns": 8, "files": 4, "lines_per_file": 3000},
    "flat_history": {"turns": 40},
}

PRICING = {"mock-brain": [3.0, 15.0], "mock-hand": [0.25, 1.25]}

# Words of one length, so that the seed moves token counts very little.
_WORDS = (
    "module helper values output branch checks result counts shapes tables "
    "states record parser layers buffer signal offset limits window factor "
    "stream source target report status marker anchor widths"
).split()


@dataclass
class Plan:
    request: str
    entries: list[dict]
    files: dict[str, str]
    final_files: dict[str, str]
    turns: int
    calls_per_turn: list[int]
    kinds: Counter
    observations: Counter
    flags: list[str] = field(default_factory=list)


def classify_observation(text: str) -> str:
    """Coarse class of one observation record, shared by plan and check."""
    if text.startswith("edit applied:"):
        return "edit_applied"
    if text.startswith("edit mismatch:"):
        return "edit_mismatch"
    if text.startswith("function replaced in"):
        return "function_replaced"
    if text.startswith("Command ") and "belongs to the" in text:
        return "rejected"
    if text.startswith("exit status 0\n"):
        return "command_ok"
    return "other"


def _literal(text: str) -> str:
    """Quote text as a command-call string argument."""
    if '"' in text or "\\" in text:
        raise ValueError("generated text must not need escaping beyond newlines")
    return '"' + text.replace("\n", "\\n") + '"'


def _sentence(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words))


class _Script:
    """Accumulates script entries and the plan's expected counts."""

    def __init__(self) -> None:
        self.entries: list[dict] = []
        self.kinds: Counter = Counter()
        self.observations: Counter = Counter()
        self.calls_per_turn: list[int] = []
        self._pending_expect: str | None = None

    def brain(self, completion: str, expect: str | None = None) -> None:
        entry = {"role": "brain", "completion": completion}
        if expect is not None:
            entry["expect_substring"] = expect
        self.entries.append(entry)

    def hand(self, completion: str, observation: str | None = None, expect_next: str | None = None) -> None:
        """One hand completion; ``observation`` is what the engine must record for it."""
        entry = {"role": "hand", "completion": completion}
        if self._pending_expect is not None:
            entry["expect_substring"] = self._pending_expect
        self._pending_expect = expect_next
        self.entries.append(entry)
        if observation is not None:
            self.kinds["action"] += 1
            self.kinds["observation"] += 1
            self.observations[observation] += 1

    def done(self, result: str) -> None:
        self.hand(f"DONE: {result}")
        self._pending_expect = None

    def expect_next_hand(self, needle: str) -> None:
        self._pending_expect = needle

    def end_turn(self, start: int) -> None:
        self.calls_per_turn.append(len(self.entries) - start)


def _open_session(script: _Script, requirement: str, request: str) -> None:
    script.brain(f"REQUIREMENT: {requirement}", expect=request[:40])
    script.kinds["user_request"] += 1
    script.kinds["mandatory_requirement"] += 1


def _close_turn(script: _Script, rng: random.Random, turn: int, turns: int, expect: str) -> None:
    script.brain(f"SUMMARY: turn {turn}: {_sentence(rng, 14)}.")
    script.brain("SATISFIED" if turn == turns else "NOT YET", expect=expect)
    script.kinds["summary"] += 1


# --- long_session / flat_history ---


_ANALYSES = 3  # brain analysis steps per long_session turn
_FUNCS = 3  # functions per long_session module


def _module_text(rng: random.Random, turn: int) -> str:
    lines = [f"# helpers generated for step {turn:03d}"]
    for k in range(_FUNCS):
        lines += ["", "", f"def h{turn:03d}_{k}(x):"]
        lines.append(f"    return x * {rng.randint(10, 99)} + {rng.randint(10, 99)}")
    return "\n".join(lines) + "\n"


def long_session(seed: int, turns: int, flat: bool = False) -> Plan:
    """Each turn: a few analyses, one code task that writes a new module and
    runs cheap shell checks on it, an evaluation, a summary and a stop check."""
    rng = random.Random(seed)
    request = "Build a package of small helper modules, one module per step, each checked with wc and grep."
    script = _Script()
    _open_session(script, "every helper module exists and defines its functions", request)
    files = {"NOTES.txt": f"helper package notes, seed {seed}\n"}
    final = dict(files)
    for turn in range(1, turns + 1):
        start = len(script.entries) - (1 if turn == 1 else 0)
        name = f"mod_{turn:03d}.py"
        funcs = _FUNCS
        text = _module_text(rng, turn)
        final[name] = text
        nlines = text.count("\n")
        for i in range(_ANALYSES):
            marker = "\nNEXT: task" if i == _ANALYSES - 1 else ""
            script.brain(f"ANALYSIS: {name} {_sentence(rng, 18)}.{marker}")
        script.kinds["analysis"] += _ANALYSES
        script.brain(
            f"TASK:\nOBJECTIVE: Create {name} with {funcs} helper functions\nSTEPS:\n"
            f"- write {name}\n- check its line count\n- count its functions\n"
            f"EXPECTED: exit status 0 and {funcs} functions\nDOMAIN: code"
        )
        script.kinds["task"] += 1
        write = f"cat > {name} <<'EOF'\n{text}EOF"
        script.hand(
            f"Writing {name} now.\nrun_command({_literal(write)})",
            observation="command_ok",
            expect_next="exit status 0",
        )
        script.hand(
            f"run_command({_literal(f'wc -l < {name}')})",
            observation="command_ok",
            expect_next=f"exit status 0\n{nlines}\n",
        )
        script.hand(
            f"run_command({_literal(f'grep -c ^def {name}')})",
            observation="command_ok",
            expect_next=f"exit status 0\n{funcs}\n",
        )
        script.done(f"wrote {name} ({nlines} lines, {funcs} functions)")
        script.brain(f"EVALUATION: pass - {name} has {funcs} functions", expect=f"exit status 0\n{funcs}\n")
        script.kinds["evaluation"] += 1
        _close_turn(script, rng, turn, turns, expect=name)
        script.end_turn(start)
    return Plan(
        request=request,
        entries=script.entries,
        files=files,
        final_files=final,
        turns=turns,
        calls_per_turn=script.calls_per_turn,
        kinds=script.kinds,
        observations=script.observations,
        flags=["--memory-retrieval", "off", "--dispatch-mode", "flat"] if flat else [],
    )


def flat_history(seed: int, turns: int) -> Plan:
    return long_session(seed, turns, flat=True)


# --- edit_burst ---


class _FileModel:
    """The generator's copy of the seeded files, edited in step with the script."""

    def __init__(self, files: dict[str, list[str]]) -> None:
        self.files = files

    def text(self, name: str) -> str:
        return "\n".join(self.files[name]) + "\n"

    def candidates(self, name: str, anchor: str) -> list[int]:
        wanted = anchor.strip()
        return [i + 1 for i, line in enumerate(self.files[name]) if wanted in line.strip()]

    def function_span(self, name: str, signature: str) -> tuple[int, int]:
        """0-based (def index, last body index), by replace_function's rule."""
        lines = self.files[name]
        hits = [i for i, line in enumerate(lines) if line.strip().startswith(signature)]
        if len(hits) != 1:
            raise ValueError(f"signature {signature!r} matches {len(hits)} lines")
        def_idx = hits[0]
        indent = len(lines[def_idx]) - len(lines[def_idx].lstrip())
        last = def_idx
        for i in range(def_idx + 1, len(lines)):
            if not lines[i].strip():
                continue
            if len(lines[i]) - len(lines[i].lstrip()) <= indent:
                break
            last = i
        return def_idx, last


_BODY_LINES = 11  # one body length for every function keeps patch sizes, and tokens, seed-independent
_EDITS = 12  # edit_file actions per edit_burst turn


def _big_file(rng: random.Random, f: int, target_lines: int) -> tuple[list[str], list[str]]:
    lines: list[str] = []
    signatures: list[str] = []
    k = 0
    while len(lines) < target_lines:
        sig = f"def f{f}_{k:04d}("
        signatures.append(sig)
        lines.append(f"{sig}x):")
        for j in range(_BODY_LINES):
            lines.append(f"    v{f}_{k:04d}_{j:02d} = x * {rng.randint(10, 99)} + {rng.randint(10, 99)}")
        lines.append(f"    return v{f}_{k:04d}_{_BODY_LINES - 1:02d}")
        lines.append("")
        k += 1
    return lines, signatures


def _new_body(rng: random.Random, tag: str, count: int) -> list[str]:
    return [
        f"    w_{tag}_{j:02d} = x * {rng.randint(10, 99)} + {rng.randint(10, 99)}  # {_sentence(rng, 4)}"
        for j in range(count)
    ]


def edit_burst(seed: int, turns: int, files: int, lines_per_file: int) -> Plan:
    """Each turn: one file-edit task of many anchored edits, a third of them
    first sent with a wrong line number and corrected from the hint, plus an
    occasional replace_function, misrouted run_command and failed evaluation."""
    rng = random.Random(seed)
    request = "Refresh the constants in the pkg modules with anchored edits, one batch per step."
    names = [f"pkg/mod_{f}.py" for f in range(files)]
    model_files: dict[str, list[str]] = {}
    signatures: dict[str, list[str]] = {}
    for f, name in enumerate(names):
        model_files[name], signatures[name] = _big_file(rng, f, lines_per_file)
    model = _FileModel(model_files)
    initial = {name: model.text(name) for name in names}
    script = _Script()
    _open_session(script, "every batch of anchored edits is applied", request)
    retry_turn = (turns + 1) // 2
    # every other function, each edited at most once: hunks never merge or
    # cancel, so the cumulative patch, and the brain's tokens, barely depend on the seed
    targets = [(name, sig) for name in names for sig in signatures[name][::2]]
    rng.shuffle(targets)
    needed = turns * _EDITS + 1 + turns // 2
    if len(targets) < needed:
        raise ValueError(f"{files} files of {lines_per_file} lines hold {len(targets)} edit targets, {needed} needed")

    def edit(tag: str, wrong: bool) -> None:
        name, sig = targets.pop()
        lines = model.files[name]
        def_idx, last = model.function_span(name, sig)
        # body assignment lines only: never the def or the return line
        first_body, last_body = def_idx + 1, last - 1
        s = rng.randint(first_body, last_body - 4)
        e = s + 4
        start_anchor, end_anchor = lines[s].strip(), lines[e].strip()
        for anchor in (start_anchor, end_anchor):
            if len(model.candidates(name, anchor)) != 1:
                raise ValueError(f"anchor {anchor!r} is not unique")
        new = _new_body(rng, tag, 15)
        body = _literal("\n".join(new))

        def call(first: int, last: int) -> str:
            return (
                f"Replacing lines of {sig[4:-1]} with the refreshed constants.\nedit_file("
                f"{_literal(name)}, {first}, {last}, {_literal(start_anchor)}, {_literal(end_anchor)}, {body})"
            )

        s1, e1 = s + 1, e + 1
        if wrong:
            delta = rng.randint(1, 6) * (1 if e1 + 6 <= len(lines) else -1)
            script.hand(
                call(s1 + delta, e1 + delta),
                observation="edit_mismatch",
                expect_next=f'"anchor": "start", "given_line": {s1 + delta}, "candidate_lines": [{s1}]',
            )
        script.hand(
            call(s1, e1),
            observation="edit_applied",
            expect_next=f"edit applied: {name} lines {s1}-{e1} replaced",
        )
        lines[s : e + 1] = new

    def replace(tag: str) -> None:
        name, sig = targets.pop()
        def_idx, last = model.function_span(name, sig)
        code = [f"{sig}x):"] + _new_body(rng, tag, 8)
        code.append(f"    return w_{tag}_00")
        script.hand(
            f"Rewriting {sig[4:-1]} whole.\nreplace_function({_literal(name)}, {_literal(sig)}, {_literal(chr(10).join(code))})",
            observation="function_replaced",
            expect_next=f"function replaced in {name}",
        )
        model.files[name][def_idx : last + 1] = code

    def misroute() -> None:
        script.hand(
            f"Checking the module imports first.\nrun_command({_literal('python3 -c pass')})",
            observation="rejected",
            expect_next="Command 'run_command' belongs to the 'code' domain",
        )

    for turn in range(1, turns + 1):
        start = len(script.entries) - (1 if turn == 1 else 0)
        script.brain(f"ANALYSIS: batch {turn} {_sentence(rng, 16)}.\nNEXT: task")
        script.kinds["analysis"] += 1
        script.brain(
            f"TASK:\nOBJECTIVE: Apply edit batch {turn} to the pkg modules\nSTEPS:\n"
            f"- edit the selected function bodies\n- fix line numbers from mismatch hints\n"
            f"EXPECTED: every edit of batch {turn} applied\nDOMAIN: file-edit"
        )
        script.kinds["task"] += 1
        wrong = set(rng.sample(range(_EDITS), _EDITS // 3))
        for n in range(_EDITS):
            edit(f"t{turn:02d}e{n:02d}", n in wrong)
            if n == _EDITS // 2 and turn % 2 == 1:
                misroute()
        if turn % 2 == 0:
            replace(f"t{turn:02d}r")
        script.done(f"batch {turn} applied")
        if turn == retry_turn:
            script.brain(f"EVALUATION: fail - batch {turn} must also refresh one more body")
            script.kinds["evaluation"] += 1
            script.expect_next_hand(f"NOTE: fail - batch {turn}")
            edit(f"t{turn:02d}x0", False)
            script.done(f"batch {turn} completed")
        script.brain(f"EVALUATION: pass - batch {turn} applied", expect="edit applied:")
        script.kinds["evaluation"] += 1
        _close_turn(script, rng, turn, turns, expect=f"batch {turn}")
        script.end_turn(start)
    final = {name: model.text(name) for name in names}
    return Plan(
        request=request,
        entries=script.entries,
        files=initial,
        final_files=final,
        turns=turns,
        calls_per_turn=script.calls_per_turn,
        kinds=script.kinds,
        observations=script.observations,
    )


GENERATORS = {"long_session": long_session, "edit_burst": edit_burst, "flat_history": flat_history}


def build(workload: str, seed: int, **sizes) -> Plan:
    """The plan for one workload at the benchmark's sizes, overridable by tests."""
    return GENERATORS[workload](seed, **{**SIZES[workload], **sizes})
