import contextlib
import json
import socket
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from trajrules import dsl
from trajrules.errors import (
    BackendError,
    BackendTimeoutError,
    EmptySampleSetError,
    RetriesExhaustedError,
)
from trajrules.llm import (
    BackendConfig,
    ChatMessage,
    HttpBackend,
    KIND_MARKERS,
    MockBackend,
    _post,
    complete,
    format_rule_block,
    parse_refinement_response,
    parse_rule_response,
    prompt_kind,
)
from trajrules.rules import Rule


def msg(content, role="user"):
    return [ChatMessage(role=role, content=content)]


def test_chat_message_validation():
    ChatMessage(role="assistant", content="ok")
    with pytest.raises(ValueError):
        ChatMessage(role="tool", content="x")
    with pytest.raises(ValueError):
        ChatMessage(role="user", content="")


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(temperature=2.5)
    with pytest.raises(ValueError):
        BackendConfig(max_output_tokens=0)
    with pytest.raises(ValueError):
        BackendConfig(max_retries=-1)
    for timeout in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="timeout_s must be positive"):
            BackendConfig(timeout_s=timeout)
    for endpoint in ("file:///etc/passwd", "api.test/v1/chat", ""):
        with pytest.raises(ValueError, match="endpoint must be an http:// or https:// URL"):
            BackendConfig(endpoint=endpoint)


def test_prompt_kind_routing():
    for kind, marker in KIND_MARKERS.items():
        assert prompt_kind(msg(f"preamble\n{marker}\nbody")) == kind
    with pytest.raises(BackendError):
        prompt_kind(msg("no task header here"))


def test_mock_backend_fixture_file(tmp_path):
    (tmp_path / "reflection.md").write_text("fixture text", encoding="utf-8")
    backend = MockBackend(fixture_dir=tmp_path)
    assert backend.complete(msg(KIND_MARKERS["reflection"])) == "fixture text"
    with pytest.raises(BackendError):
        backend.complete(msg(KIND_MARKERS["discovery"]))


RULE_BLOCK = """
Some analysis prose the model wrote.

```rule
id: T1
description: very low jerk spread
condition: std_jerk < 0.3
contexts: any
tasks: identification
category: smoothness
polarity: AV_indicative
```

```rule
id: T2
description: gentle braking in traffic
condition: max_decel < 0.6
contexts: congested, free_flow
tasks: identification, speed
category: speed
polarity: AV_indicative
direction: decelerate
```
"""


def test_parse_rule_response_happy_path():
    rules, rejected = parse_rule_response(RULE_BLOCK)
    assert rejected == []
    assert [r.id for r in rules] == ["T1", "T2"]
    assert rules[0].state == "candidate"
    assert rules[0].predicate_text == "std_jerk < 0.3"
    assert rules[1].contexts == frozenset({"congested", "free_flow"})
    assert rules[1].tasks == frozenset({"identification", "speed"})
    assert rules[1].direction == "decelerate"


def test_parse_rule_response_defaults():
    text = "```rule\nid: T3\ndescription: d\ncondition: std_speed < 2\ncategory: speed\n```"
    rules, rejected = parse_rule_response(text)
    assert rejected == []
    (rule,) = rules
    assert rule.contexts == frozenset({"any"})
    assert rule.tasks == frozenset({"identification"})
    assert rule.polarity == "AV_indicative"
    assert rule.direction is None


def test_parse_rule_response_blank_scope_uses_defaults():
    text = ("```rule\nid: T4\ndescription: d\ncondition: std_speed < 2\ncategory: speed\n"
            "contexts:\ntasks:\nstate: verified\n```")
    rules, rejected = parse_rule_response(text)
    assert rejected == []
    (rule,) = rules
    assert rule.contexts == frozenset({"any"})
    assert rule.tasks == frozenset({"identification"})
    assert rule.state == "candidate"


@pytest.mark.parametrize("body,fragment", [
    ("description: d\ncondition: std_jerk < 1\ncategory: smoothness", "missing field 'id'"),
    ("id: X\ndescription: d\ncondition: headway_var < 1\ncategory: speed", "headway_var"),
    ("id: X\ndescription: d\ncondition: std_jerk <\ncategory: smoothness", ""),
    ("id: X\ndescription: d\ncondition: std_jerk < 1\ncategory: vibes", "unknown category"),
    ("id: X\ndescription: d\ncondition: std_jerk < 1\ncategory: speed\ncontexts: highway", "unknown contexts"),
    ("id: X\ndescription: d\ncondition: std_jerk < 1\ncategory: speed\ntasks: parking", "unknown tasks"),
    ("id: X\ndescription: d\ncondition: std_jerk < 1\ncategory: speed\npolarity: maybe", "unknown polarity"),
    ("id: X\ndescription: d\ncondition: std_jerk < 1\ncategory: speed\ndirection: up", "unknown direction"),
])
def test_parse_rule_response_rejections(body, fragment):
    rules, rejected = parse_rule_response(f"```rule\n{body}\n```")
    assert rules == []
    assert len(rejected) == 1
    assert fragment in rejected[0].reason


def test_parse_rule_response_duplicate_id():
    block = "```rule\nid: T1\ndescription: d\ncondition: std_jerk < 1\ncategory: speed\n```"
    rules, rejected = parse_rule_response(block + "\n" + block)
    assert len(rules) == 1
    assert len(rejected) == 1
    assert "duplicate" in rejected[0].reason


def test_parse_rule_response_empty_id_is_rejected_not_raised():
    empty = "```rule\nid:\ndescription: d\ncondition: std_jerk < 1\ncategory: speed\n```"
    good = "```rule\nid: G\ndescription: d\ncondition: std_jerk < 1\ncategory: speed\n```"
    rules, rejected = parse_rule_response(empty + "\n" + good)
    assert [r.id for r in rules] == ["G"]
    assert len(rejected) == 1
    assert "rule id must be non-empty" in rejected[0].reason


def test_parse_rule_response_bad_block_does_not_abort_batch():
    bad = "```rule\nid: B\ndescription: d\ncondition: nope < 1\ncategory: speed\n```"
    rules, rejected = parse_rule_response(bad + "\n" + RULE_BLOCK)
    assert [r.id for r in rules] == ["T1", "T2"]
    assert len(rejected) == 1


def test_parse_rule_response_prose_only():
    rules, rejected = parse_rule_response("I could not find any patterns.")
    assert rules == [] and rejected == []


def test_format_rule_block_round_trip():
    rule = Rule(
        id="RT1",
        description="slows before moving over",
        predicate=dsl.parse_predicate("pre_lane_change_decel IN 0.2..0.3"),
        contexts=frozenset({"free_flow"}),
        tasks=frozenset({"lane_change", "identification"}),
        category="lane_change",
        polarity="AV_indicative",
        direction="left_LC",
    )
    text = format_rule_block(rule)
    parsed, rejected = parse_rule_response(text)
    assert rejected == []
    (back,) = parsed
    assert back.id == rule.id
    assert back.predicate_text == rule.predicate_text
    assert back.contexts == rule.contexts
    assert back.tasks == rule.tasks
    assert back.category == rule.category
    assert back.direction == "left_LC"


REFINEMENT_TEXT = """
```refinement
rule_id: R2
action: adjust_threshold
condition: std_accel < 0.3
rationale: threshold far too loose
```

```refinement
rule_id: R7
action: add_context
contexts: free_flow
rationale: only holds in free flow
```

```refinement
rule_id: R30
action: retire
rationale: redundant with R27
```
"""


def test_parse_refinement_response_actions():
    out = parse_refinement_response(REFINEMENT_TEXT)
    assert [s.action for s in out] == ["adjust_threshold", "add_context", "retire"]
    assert dsl.to_dsl(out[0].new_predicate) == "std_accel < 0.3"
    assert out[1].new_contexts == frozenset({"free_flow"})
    assert out[2].new_predicate is None and out[2].new_contexts is None
    assert out[0].rationale == "threshold far too loose"


@pytest.mark.parametrize("body", [
    "rule_id: R2\naction: adjust_threshold\nrationale: forgot the condition",
    "rule_id: R2\naction: adjust_threshold\ncondition: std_accel <",
    "rule_id: R2\naction: escalate",
    "rule_id: R2\naction: add_context\ncontexts: highway",
    "rule_id: R2\naction: add_context",
])
def test_parse_refinement_degrades_to_retire(body):
    (sugg,) = parse_refinement_response(f"```refinement\n{body}\n```")
    assert sugg.rule_id == "R2"
    assert sugg.action == "retire"
    assert sugg.rationale.startswith("unparseable suggestion:")


def test_parse_refinement_field_error_keeps_rule_id():
    # a no-colon line breaks field parsing; the id still comes from its own line, in any case
    for key in ("rule_id", "RULE_ID", "Rule_Id"):
        text = f"```refinement\n{key}: R9\naction adjust_threshold\n```"
        (sugg,) = parse_refinement_response(text)
        assert sugg.rule_id == "R9", key
        assert sugg.action == "retire"
        assert "unparseable suggestion" in sugg.rationale


def test_parse_refinement_empty_rule_id_names_no_rule():
    # the id is read from the rule_id line alone, never from the line after it
    (sugg,) = parse_refinement_response("```refinement\nrule_id:\nadjust the threshold\n```")
    assert sugg.rule_id == ""
    assert sugg.action == "retire"
    assert sugg.rationale == ("unparseable suggestion: expected 'key: value', "
                              "got 'adjust the threshold'")


def test_blank_and_comment_lines_are_skipped_in_reply_blocks():
    rules, rejected = parse_rule_response(
        "```rule\n# proposed after the jerk comparison\nid: R101\n\n"
        "description: keeps jerk very low\n  # threshold from the AV cluster\n"
        "condition: std_jerk < 0.3\n\ncategory: smoothness\n```")
    assert rejected == []
    assert [(r.id, r.description, r.predicate_text) for r in rules] == [
        ("R101", "keeps jerk very low", "std_jerk < 0.3")]
    (sugg,) = parse_refinement_response(
        "```refinement\n\n# loosen slightly\nrule_id: R101\n\naction: adjust_threshold\n"
        "# the old cap missed borderline drivers\ncondition: std_jerk < 0.33\n```")
    assert (sugg.rule_id, sugg.action, sugg.rationale) == ("R101", "adjust_threshold", "")
    assert dsl.to_dsl(sugg.new_predicate) == "std_jerk < 0.33"


def completion(content):
    """A chat-completions response body carrying this message content."""
    return json.dumps({"choices": [{"message": {"content": content}}]})


@pytest.fixture
def no_sleep(monkeypatch):
    sleeps = []
    monkeypatch.setattr("trajrules.llm.time.sleep", sleeps.append)
    return sleeps


def test_complete_success_payload(monkeypatch, no_sleep):
    calls = []

    def fake_post(url, body, headers, timeout):
        assert isinstance(body, bytes)
        calls.append((url, json.loads(body), headers, timeout))
        return (200, completion("hello"))

    monkeypatch.setattr("trajrules.llm._post", fake_post)
    monkeypatch.setenv("TRAJRULES_API_TOKEN", "sk-test")
    cfg = BackendConfig(endpoint="https://api.test/v1/chat", model="m1", temperature=0.2)
    out = HttpBackend(cfg).complete(
        [ChatMessage("system", "be terse"), ChatMessage("user", "hi")]
    )
    assert out == "hello"
    url, payload, headers, timeout = calls[0]
    assert url == "https://api.test/v1/chat"
    assert payload["model"] == "m1"
    assert payload["temperature"] == 0.2
    assert payload["max_tokens"] == cfg.max_output_tokens
    assert payload["messages"] == [
        {"role": "system", "content": "be terse"},
        {"role": "user", "content": "hi"},
    ]
    assert headers["Authorization"] == "Bearer sk-test"
    assert headers["Content-Type"] == "application/json"
    assert timeout == cfg.timeout_s
    assert no_sleep == []


def test_complete_no_token_no_auth_header(monkeypatch, no_sleep):
    captured = {}

    def fake_post(url, body, headers, timeout):
        captured.update(headers)
        return (200, completion("x"))

    monkeypatch.setattr("trajrules.llm._post", fake_post)
    monkeypatch.delenv("TRAJRULES_API_TOKEN", raising=False)
    complete(BackendConfig(), [ChatMessage("user", "hi")])
    assert "Authorization" not in captured


def test_complete_retries_429_then_succeeds(monkeypatch, no_sleep):
    responses = [(429, "slow down"), (200, completion("ok"))]

    monkeypatch.setattr("trajrules.llm._post", lambda *a, **k: responses.pop(0))
    out = complete(BackendConfig(), [ChatMessage("user", "hi")])
    assert out == "ok"
    assert no_sleep == [0.5]


def test_complete_persistent_500_exhausts_retries(monkeypatch, no_sleep):
    n = {"calls": 0}

    def fake_post(*a, **k):
        n["calls"] += 1
        return (500, "boom")

    monkeypatch.setattr("trajrules.llm._post", fake_post)
    monkeypatch.setattr("trajrules.llm.RETRY_BACKOFF_S", 1.0)
    cfg = BackendConfig(max_retries=2)
    with pytest.raises(RetriesExhaustedError) as exc_info:
        complete(cfg, [ChatMessage("user", "hi")])
    assert n["calls"] == 3
    assert exc_info.value.status == 500
    # exponential backoff: 1.0 then 2.0
    assert no_sleep == [1.0, 2.0]


def test_complete_client_error_fails_fast(monkeypatch, no_sleep):
    n = {"calls": 0}

    def fake_post(*a, **k):
        n["calls"] += 1
        return (400, "bad request")

    monkeypatch.setattr("trajrules.llm._post", fake_post)
    with pytest.raises(BackendError) as exc_info:
        complete(BackendConfig(), [ChatMessage("user", "hi")])
    assert not isinstance(exc_info.value, RetriesExhaustedError)
    assert exc_info.value.status == 400
    assert n["calls"] == 1


def test_complete_timeout_exhausts_retries(monkeypatch, no_sleep):
    def fake_post(*a, **k):
        raise TimeoutError("too slow")

    monkeypatch.setattr("trajrules.llm._post", fake_post)
    with pytest.raises(RetriesExhaustedError):
        complete(BackendConfig(max_retries=1), [ChatMessage("user", "hi")])


def test_complete_connection_error_retried(monkeypatch, no_sleep):
    attempts = [ConnectionRefusedError("refused"), (200, completion("ok"))]

    def fake_post(*a, **k):
        item = attempts.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    monkeypatch.setattr("trajrules.llm._post", fake_post)
    assert complete(BackendConfig(), [ChatMessage("user", "hi")]) == "ok"


def test_complete_malformed_body(monkeypatch, no_sleep):
    monkeypatch.setattr(
        "trajrules.llm._post",
        lambda *a, **k: (200, json.dumps({"choices": []})),
    )
    with pytest.raises(BackendError):
        complete(BackendConfig(), [ChatMessage("user", "hi")])


@pytest.mark.parametrize("content", [None, 42, ["text"], {"text": "x"}],
                         ids=["null", "number", "list", "object"])
def test_complete_non_string_content_is_malformed(monkeypatch, no_sleep, content):
    monkeypatch.setattr("trajrules.llm._post", lambda *a, **k: (200, completion(content)))
    with pytest.raises(BackendError, match="malformed completion response: content is") as info:
        complete(BackendConfig(), [ChatMessage("user", "hi")])
    assert not isinstance(info.value, RetriesExhaustedError)
    assert no_sleep == []


def test_complete_empty_messages():
    with pytest.raises(EmptySampleSetError):
        complete(BackendConfig(), [])


# --- the real transport against a loopback server ---

HANG = None  # scripted status meaning: answer nothing until the test ends
GARBAGE = -1  # scripted status meaning: answer with a line that is not HTTP
TRUNCATED = -2  # scripted status meaning: a 503 whose body ends short of its length


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each request with the next (status, text) of the server's script.

    A 3xx status sends text as its Location. GETs are answered too, so a
    redirect that urllib follows (as a GET) is seen and recorded.
    """

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.received.append((self.command, self.path, self.headers, body))
        status, text = self.server.script.pop(0)
        if status is HANG:
            self.server.release.wait(5)
            return
        if status == GARBAGE:
            self.wfile.write(b"garbage\r\n\r\n")
            return
        data = text.encode("utf-8")
        self.send_response(503 if status == TRUNCATED else status)
        self.send_header("Content-Type", "application/json")
        if 300 <= status < 400:
            self.send_header("Location", text)
        self.send_header("Content-Length", str(len(data) + (100 if status == TRUNCATED else 0)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST

    def log_message(self, *args):
        pass


class LoopbackServer(ThreadingHTTPServer):
    daemon_threads = False  # so server_close joins every handler thread

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ScriptedHandler)
        self.script, self.received, self.release = [], [], threading.Event()
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat"


@pytest.fixture
def direct(monkeypatch):
    """No proxy between the client and the loopback interface."""
    for name in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@contextlib.contextmanager
def serving():
    server = LoopbackServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert not thread.is_alive()


@pytest.fixture
def loopback(direct):
    with serving() as server:
        yield server


def test_loopback_429_then_200(loopback, no_sleep, monkeypatch):
    monkeypatch.setenv("TRAJRULES_API_TOKEN", "sk-loop")
    loopback.script += [(429, "slow down"), (200, completion("ok"))]
    cfg = BackendConfig(endpoint=loopback.url, model="m1")
    assert complete(cfg, [ChatMessage("user", "hi")]) == "ok"
    assert no_sleep == [0.5]
    assert len(loopback.received) == 2
    method, path, headers, body = loopback.received[-1]
    assert (method, path) == ("POST", "/v1/chat")
    assert headers["Authorization"] == "Bearer sk-loop"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {
        "model": "m1",
        "messages": [{"role": "user", "content": "hi"}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_output_tokens,
    }


def test_loopback_400_fails_fast(loopback, no_sleep):
    loopback.script.append((400, "bad request"))
    with pytest.raises(BackendError) as info:
        complete(BackendConfig(endpoint=loopback.url), [ChatMessage("user", "hi")])
    assert not isinstance(info.value, RetriesExhaustedError)
    assert info.value.status == 400
    assert info.value.body == "bad request"
    assert len(loopback.received) == 1
    assert no_sleep == []


def test_loopback_5xx_exhausts_retries(loopback, no_sleep):
    loopback.script += [(500, "boom"), (503, "busy")]
    cfg = BackendConfig(endpoint=loopback.url, max_retries=1)
    with pytest.raises(RetriesExhaustedError) as info:
        complete(cfg, [ChatMessage("user", "hi")])
    assert info.value.status == 503
    assert info.value.__cause__.body == "busy"
    assert len(loopback.received) == 2
    assert no_sleep == [0.5]


def test_loopback_timeout_exhausts_retries(loopback, no_sleep):
    loopback.script += [(HANG, ""), (HANG, "")]
    cfg = BackendConfig(endpoint=loopback.url, timeout_s=0.2, max_retries=1)
    with pytest.raises(RetriesExhaustedError) as info:
        complete(cfg, [ChatMessage("user", "hi")])
    assert isinstance(info.value.__cause__, BackendTimeoutError)
    assert info.value.status is None
    assert len(loopback.received) == 2
    assert no_sleep == [0.5]


@pytest.mark.parametrize("broken", [GARBAGE, TRUNCATED], ids=["status_line", "truncated_body"])
def test_loopback_broken_response_is_retried(loopback, no_sleep, broken):
    loopback.script += [(broken, "partial"), (200, completion("ok"))]
    cfg = BackendConfig(endpoint=loopback.url)
    assert complete(cfg, [ChatMessage("user", "hi")]) == "ok"
    assert no_sleep == [0.5]


def test_loopback_non_json_body_is_malformed(loopback, no_sleep):
    loopback.script.append((200, "<html>not json</html>"))
    with pytest.raises(BackendError, match="malformed completion response") as info:
        complete(BackendConfig(endpoint=loopback.url), [ChatMessage("user", "hi")])
    assert not isinstance(info.value, RetriesExhaustedError)
    assert info.value.body == "<html>not json</html>"
    assert len(loopback.received) == 1


@pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
def test_loopback_redirect_fails_fast_without_following(loopback, no_sleep, monkeypatch, code):
    # following would resend the bearer token to whatever host the 3xx names
    monkeypatch.setenv("TRAJRULES_API_TOKEN", "sk-loop")
    with serving() as elsewhere:
        elsewhere.script.append((200, completion("ok")))
        loopback.script.append((code, elsewhere.url))
        with pytest.raises(BackendError) as info:
            complete(BackendConfig(endpoint=loopback.url), [ChatMessage("user", "hi")])
        assert elsewhere.received == []
    assert not isinstance(info.value, RetriesExhaustedError)
    assert info.value.status == code
    assert info.value.body == elsewhere.url
    assert len(loopback.received) == 1
    assert no_sleep == []


def test_loopback_redirect_to_ftp_fails_fast(loopback, no_sleep):
    loopback.script.append((302, "ftp://127.0.0.1:9/v1/chat"))
    with pytest.raises(BackendError) as info:
        complete(BackendConfig(endpoint=loopback.url), [ChatMessage("user", "hi")])
    assert not isinstance(info.value, RetriesExhaustedError)
    assert info.value.status == 302
    assert no_sleep == []


def test_loopback_refused_connection_is_retried(direct, no_sleep):
    with socket.socket() as sock:  # bound, never listening, then closed: the port refuses
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    cfg = BackendConfig(endpoint=f"http://127.0.0.1:{port}/v1/chat", max_retries=2)
    with pytest.raises(RetriesExhaustedError, match="connection failed") as info:
        complete(cfg, [ChatMessage("user", "hi")])
    assert info.value.status is None
    assert no_sleep == [0.5, 1.0]


def test_post_unwraps_a_connect_timeout(monkeypatch):
    # urllib wraps a timeout while connecting in URLError; a read timeout arrives bare
    def connect_times_out(opener, request, timeout):
        raise urllib.error.URLError(TimeoutError("timed out"))

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", connect_times_out)
    with pytest.raises(TimeoutError):
        _post("http://127.0.0.1:9/v1/chat", b"{}", {}, 0.2)

