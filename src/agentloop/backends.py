"""Model backends: the chat-completion contract, a deterministic scripted
mock for offline replay, and a thin HTTP client.

A backend is anything with::

    model: str
    complete(messages, temperature=0.0) -> BackendResponse

where messages is an ordered list of (role, content) pairs and ``model`` is
the pricing-table key its calls are charged at. The engine calls a backend
one call at a time, voting samples included. A response carries only the
usage the backend was given (a script override or the server's ``usage``);
a missing completion figure is counted from the text. ``prompt_tokens`` is
None when nothing reported it: the engine then charges its own count of the
prompt, the one its budget guard made before the call.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from .accounting import count_tokens
from .errors import BackendFailure, FixtureMismatch

Messages = list[tuple[str, str]]


@dataclass(frozen=True)
class BackendResponse:
    text: str
    prompt_tokens: int | None  # None: not reported
    completion_tokens: int


def _reported(usage: dict, key: str) -> int | None:
    """The token figure usage gives under key, None when missing or null; a
    figure that is not a non-negative integer fails the call."""
    value = usage.get(key)
    if value is None or (type(value) is int and value >= 0):
        return value
    raise BackendFailure(f"bad {key} in usage: {value!r}")


def _response(text: str, usage: dict) -> BackendResponse:
    completion_tokens = _reported(usage, "completion_tokens")
    return BackendResponse(
        text=text,
        prompt_tokens=_reported(usage, "prompt_tokens"),
        completion_tokens=count_tokens(text) if completion_tokens is None else completion_tokens,
    )


class ScriptSource:
    """Shared cursor over a list of scripted completions, consumed in call order.

    Entries are either a bare completion string or an object with:
      completion        the text to return (required)
      role              expected caller role, asserted when present
      expect_substring  must occur in the rendered prompt, asserted when present
      prompt_tokens / completion_tokens   usage overrides (non-negative integers)
      fail              if true, raise BackendFailure instead of answering
    """

    def __init__(self, entries: list) -> None:
        self.entries = [self._normalize(e) for e in entries]
        self.index = 0
        self._lock = threading.Lock()

    @staticmethod
    def _normalize(entry) -> dict:
        if isinstance(entry, str):
            return {"completion": entry}
        if isinstance(entry, dict) and "completion" in entry:
            return entry
        raise ValueError(f"bad script entry: {entry!r}")

    def next_entry(self, role: str, messages: Messages) -> dict:
        with self._lock:
            if self.index >= len(self.entries):
                raise BackendFailure(
                    f"script exhausted after {len(self.entries)} completions ({role} call)"
                )
            entry = self.entries[self.index]
            self.index += 1
        expected_role = entry.get("role")
        if expected_role is not None and expected_role != role:
            raise FixtureMismatch(
                f"script entry {self.index - 1} expects a {expected_role} call, got {role}"
            )
        needle = entry.get("expect_substring")
        if needle is not None and needle not in "\n".join(content for _r, content in messages):
            raise FixtureMismatch(
                f"script entry {self.index - 1}: {needle!r} not found in prompt"
            )
        if entry.get("fail"):
            raise BackendFailure(f"scripted failure at entry {self.index - 1}")
        return entry


def load_script(path: str | Path) -> ScriptSource:
    """Load a script from a JSON list or a JSONL file (one entry per line)."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.strip()
    if stripped.startswith("["):
        return ScriptSource(json.loads(stripped))
    entries = [json.loads(line) for line in stripped.splitlines() if line.strip()]
    return ScriptSource(entries)


@dataclass
class ScriptedBackend:
    """Deterministic mock backend replaying a shared script."""

    source: ScriptSource
    role: str = "brain"
    model: str = "mock"

    def complete(self, messages: Messages, temperature: float = 0.0) -> BackendResponse:
        entry = self.source.next_entry(self.role, messages)
        return _response(entry["completion"], entry)


@dataclass
class HttpChatBackend:
    """Minimal chat-completion HTTP client (OpenAI-style wire format)."""

    base_url: str
    model: str
    api_key_env: str = "AGENTLOOP_API_KEY"
    request_timeout: float = 120.0

    def complete(self, messages: Messages, temperature: float = 0.0) -> BackendResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": role, "content": content} for role, content in messages],
            "temperature": temperature,
        }
        # imported here: urllib.request loads ssl and http.client, which scripted runs never need
        import urllib.error
        import urllib.request

        key = os.environ.get(self.api_key_env, "")
        request = urllib.request.Request(
            self.base_url.rstrip("/") + "/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {key}",
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.request_timeout) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise BackendFailure(f"backend request failed: {exc}") from exc
        try:
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage") or {}  # null counts as missing
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendFailure(f"malformed backend response: {body!r}") from exc
        if not isinstance(text, str):
            raise BackendFailure(f"backend response carries no text: {body!r}")
        if not isinstance(usage, dict):
            raise BackendFailure(f"malformed usage in backend response: {usage!r}")
        return _response(text, usage)
