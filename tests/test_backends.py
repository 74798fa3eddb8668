"""Scripted mock backend and the HTTP client wire handling."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agentloop import backends
from agentloop.backends import (
    HttpChatBackend,
    ScriptSource,
    ScriptedBackend,
    load_script,
)
from agentloop.errors import BackendFailure, FixtureMismatch

from conftest import PromptRecorder, record_count_tokens


def test_scripted_backend_consumes_in_order():
    source = ScriptSource(["first", "second"])
    backend = ScriptedBackend(source, role="brain")
    assert backend.complete([("user", "hi")]).text == "first"
    assert backend.complete([("user", "hi")]).text == "second"


def test_scripted_backend_exhaustion():
    backend = ScriptedBackend(ScriptSource(["only"]), role="brain")
    backend.complete([("user", "x")])
    with pytest.raises(BackendFailure):
        backend.complete([("user", "x")])


def test_scripted_backend_role_assertion():
    source = ScriptSource([{"completion": "for the hand", "role": "hand"}])
    with pytest.raises(FixtureMismatch):
        ScriptedBackend(source, role="brain").complete([("user", "x")])


def test_scripted_backend_prompt_assertion():
    source = ScriptSource([{"completion": "ok", "expect_substring": "magic words"}])
    backend = ScriptedBackend(source, role="brain")
    with pytest.raises(FixtureMismatch):
        backend.complete([("user", "nothing relevant")])
    source2 = ScriptSource([{"completion": "ok", "expect_substring": "magic words"}])
    backend2 = ScriptedBackend(source2, role="brain")
    assert backend2.complete([("user", "the magic words appear")]).text == "ok"


def test_scripted_backend_failure_entry():
    backend = ScriptedBackend(ScriptSource([{"completion": "", "fail": True}]), role="brain")
    with pytest.raises(BackendFailure):
        backend.complete([("user", "x")])


def test_scripted_backend_usage_proxy_and_override(monkeypatch):
    counted = record_count_tokens(monkeypatch, backends)
    source = ScriptSource(["12345678", {"completion": "x", "prompt_tokens": 9, "completion_tokens": 7}])
    backend = ScriptedBackend(source, role="brain")
    first = backend.complete([("user", "abcd")])
    assert first.completion_tokens == 2  # ceil(8 / 4)
    assert first.prompt_tokens is None  # not reported: the engine counts the prompt
    second = backend.complete([("user", "abcd")])
    assert (second.prompt_tokens, second.completion_tokens) == (9, 7)
    assert counted == ["12345678"]  # only the completion; the overrides are not counted


@pytest.mark.parametrize("usage", [
    {"prompt_tokens": -1}, {"prompt_tokens": "9"}, {"completion_tokens": 1.5}, {"completion_tokens": True},
])
def test_scripted_backend_bad_usage_override_is_a_backend_failure(usage):
    backend = ScriptedBackend(ScriptSource([{"completion": "x", **usage}]), role="brain")
    with pytest.raises(BackendFailure):
        backend.complete([("user", "abcd")])


def test_scripted_backend_records_prompts():
    backend = PromptRecorder(ScriptSource(["a", "b"]), role="brain")
    backend.complete([("system", "sys"), ("user", "one")])
    backend.complete([("user", "two")])
    assert len(backend.prompts) == 2
    assert "sys" in backend.prompts[0] and "two" in backend.prompts[1]


def test_shared_source_interleaves_roles():
    source = ScriptSource(
        [
            {"completion": "brain 1", "role": "brain"},
            {"completion": "hand 1", "role": "hand"},
            {"completion": "brain 2", "role": "brain"},
        ]
    )
    brain = ScriptedBackend(source, role="brain")
    hand = ScriptedBackend(source, role="hand")
    assert brain.complete([("user", "x")]).text == "brain 1"
    assert hand.complete([("user", "x")]).text == "hand 1"
    assert brain.complete([("user", "x")]).text == "brain 2"


def test_load_script_json_list(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(["one", {"completion": "two"}]))
    source = load_script(path)
    assert [e["completion"] for e in source.entries] == ["one", "two"]


def test_load_script_jsonl(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('"one"\n{"completion": "two"}\n')
    source = load_script(path)
    assert [e["completion"] for e in source.entries] == ["one", "two"]


def test_bad_script_entry():
    with pytest.raises(ValueError):
        ScriptSource([{"no_completion": 1}])


# --- HTTP client (no network: urlopen is stubbed) ---

class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_http_backend_parses_response(monkeypatch):
    captured = {}

    def fake_urlopen(request, timeout=None):
        captured["url"] = request.full_url
        captured["payload"] = json.loads(request.data.decode("utf-8"))
        body = {
            "choices": [{"message": {"content": "hello"}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 3},
        }
        return _FakeResponse(json.dumps(body).encode("utf-8"))

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    backend = HttpChatBackend("http://backend.local/v1", model="m")
    response = backend.complete([("system", "s"), ("user", "u")], temperature=0.7)
    assert response.text == "hello"
    assert (response.prompt_tokens, response.completion_tokens) == (11, 3)
    assert captured["url"] == "http://backend.local/v1/chat/completions"
    assert captured["payload"]["model"] == "m"
    assert captured["payload"]["temperature"] == 0.7
    assert captured["payload"]["messages"][0] == {"role": "system", "content": "s"}


def test_http_backend_malformed_response(monkeypatch):
    monkeypatch.setattr(
        "urllib.request.urlopen",
        lambda request, timeout=None: _FakeResponse(b'{"nope": true}'),
    )
    backend = HttpChatBackend("http://backend.local", model="m")
    with pytest.raises(BackendFailure):
        backend.complete([("user", "u")])


def _serve(monkeypatch, body: dict) -> None:
    monkeypatch.setattr(
        "urllib.request.urlopen",
        lambda request, timeout=None: _FakeResponse(json.dumps(body).encode("utf-8")),
    )


def test_http_backend_counts_tokens_when_usage_is_null(monkeypatch):
    counted = record_count_tokens(monkeypatch, backends)
    _serve(monkeypatch, {"choices": [{"message": {"content": "12345678"}}], "usage": None})
    response = HttpChatBackend("http://backend.local", model="m").complete([("user", "abcd")])
    assert response.text == "12345678"
    assert (response.prompt_tokens, response.completion_tokens) == (None, 2)  # ceil(8 / 4)
    assert counted == ["12345678"]  # the prompt is the engine's to count


@pytest.mark.parametrize("usage", [
    "abc",
    [11, 3],
    {"prompt_tokens": "many"},
    {"prompt_tokens": -5},
    {"prompt_tokens": 11.5},
    {"completion_tokens": "3"},
    {"completion_tokens": False},
])
def test_http_backend_malformed_usage_is_a_backend_failure(monkeypatch, usage):
    _serve(monkeypatch, {"choices": [{"message": {"content": "hello"}}], "usage": usage})
    with pytest.raises(BackendFailure):
        HttpChatBackend("http://backend.local", model="m").complete([("user", "u")])


def test_http_backend_null_content_is_a_backend_failure(monkeypatch):
    _serve(monkeypatch, {"choices": [{"message": {"content": None}}]})
    with pytest.raises(BackendFailure):
        HttpChatBackend("http://backend.local", model="m").complete([("user", "u")])


def test_http_backend_counts_only_what_the_server_omits(monkeypatch):
    counted = record_count_tokens(monkeypatch, backends)
    _serve(monkeypatch, {
        "choices": [{"message": {"content": "hello"}}],
        "usage": {"prompt_tokens": 11, "completion_tokens": 3},
    })
    backend = HttpChatBackend("http://backend.local", model="m")
    response = backend.complete([("system", "s"), ("user", "the prompt")])
    assert (response.prompt_tokens, response.completion_tokens) == (11, 3)
    assert counted == []
    _serve(monkeypatch, {
        "choices": [{"message": {"content": "hello"}}], "usage": {"prompt_tokens": 11},
    })
    backend.complete([("system", "s"), ("user", "the prompt")])
    assert counted == ["hello"]



def test_importing_the_cli_loads_no_http_client():
    src = str(Path(backends.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import agentloop.cli, sys; print([m for m in ('ssl', 'http.client') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"
