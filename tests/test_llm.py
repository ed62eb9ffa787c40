import requests
import pytest

from trajrules import dsl
from trajrules.errors import (
    BackendError,
    EmptySampleSetError,
    RetriesExhaustedError,
)
from trajrules.llm import (
    BackendConfig,
    ChatMessage,
    HttpBackend,
    KIND_MARKERS,
    MockBackend,
    complete,
    format_rule_block,
    parse_refinement_response,
    parse_rule_response,
    prompt_kind,
)
from trajrules.rules import ContextConstraint, Rule


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


def test_prompt_kind_routing():
    for kind, marker in KIND_MARKERS.items():
        assert prompt_kind(msg(f"preamble\n{marker}\nbody")) == kind
    with pytest.raises(BackendError):
        prompt_kind(msg("no task header here"))


def test_mock_backend_responses_take_priority(tmp_path):
    (tmp_path / "discovery.md").write_text("from file", encoding="utf-8")
    backend = MockBackend(fixture_dir=tmp_path, responses={"discovery": "from dict"})
    assert backend.complete(msg(KIND_MARKERS["discovery"])) == "from dict"


def test_mock_backend_fixture_file(tmp_path):
    (tmp_path / "reflection.md").write_text("fixture text", encoding="utf-8")
    backend = MockBackend(fixture_dir=tmp_path)
    assert backend.complete(msg(KIND_MARKERS["reflection"])) == "fixture text"
    with pytest.raises(BackendError):
        backend.complete(msg(KIND_MARKERS["discovery"]))


def test_mock_backend_needs_a_source():
    with pytest.raises(ValueError):
        MockBackend()


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
    assert rules[1].context.allowed_contexts == frozenset({"congested", "free_flow"})
    assert rules[1].context.applicable_tasks == frozenset({"identification", "speed"})
    assert rules[1].direction == "decelerate"


def test_parse_rule_response_defaults():
    text = "```rule\nid: T3\ndescription: d\ncondition: std_speed < 2\ncategory: speed\n```"
    rules, rejected = parse_rule_response(text)
    assert rejected == []
    (rule,) = rules
    assert rule.context.allowed_contexts == frozenset({"any"})
    assert rule.context.applicable_tasks == frozenset({"identification"})
    assert rule.polarity == "AV_indicative"
    assert rule.direction is None


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
        context=ContextConstraint(frozenset({"free_flow"}), frozenset({"lane_change", "identification"})),
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
    assert back.context == rule.context
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
    assert out[0].new_predicate == "std_accel < 0.3"
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
    # a no-colon line breaks field parsing; the id is recovered by regex
    text = "```refinement\nrule_id: R9\naction adjust_threshold\n```"
    (sugg,) = parse_refinement_response(text)
    assert sugg.rule_id == "R9"
    assert sugg.action == "retire"
    assert "unparseable suggestion" in sugg.rationale


class FakeResponse:
    def __init__(self, status_code, content=None, text="", json_data=None):
        self.status_code = status_code
        self.text = text
        if json_data is not None:
            self._json = json_data
        elif content is not None:
            self._json = {"choices": [{"message": {"content": content}}]}
        else:
            self._json = None

    def json(self):
        if self._json is None:
            raise ValueError("not json")
        return self._json


@pytest.fixture
def no_sleep(monkeypatch):
    sleeps = []
    monkeypatch.setattr("trajrules.llm.time.sleep", sleeps.append)
    return sleeps


def test_complete_success_payload(monkeypatch, no_sleep):
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append((url, json, headers, timeout))
        return FakeResponse(200, content="hello")

    monkeypatch.setattr("trajrules.llm.requests.post", fake_post)
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
    assert timeout == cfg.timeout_s
    assert no_sleep == []


def test_complete_no_token_no_auth_header(monkeypatch, no_sleep):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(headers)
        return FakeResponse(200, content="x")

    monkeypatch.setattr("trajrules.llm.requests.post", fake_post)
    monkeypatch.delenv("TRAJRULES_API_TOKEN", raising=False)
    complete(BackendConfig(), [ChatMessage("user", "hi")])
    assert "Authorization" not in captured


def test_complete_retries_429_then_succeeds(monkeypatch, no_sleep):
    responses = [FakeResponse(429, text="slow down"), FakeResponse(200, content="ok")]

    monkeypatch.setattr("trajrules.llm.requests.post", lambda *a, **k: responses.pop(0))
    out = complete(BackendConfig(retry_backoff_s=0.5), [ChatMessage("user", "hi")])
    assert out == "ok"
    assert no_sleep == [0.5]


def test_complete_persistent_500_exhausts_retries(monkeypatch, no_sleep):
    n = {"calls": 0}

    def fake_post(*a, **k):
        n["calls"] += 1
        return FakeResponse(500, text="boom")

    monkeypatch.setattr("trajrules.llm.requests.post", fake_post)
    cfg = BackendConfig(max_retries=2, retry_backoff_s=1.0)
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
        return FakeResponse(400, text="bad request")

    monkeypatch.setattr("trajrules.llm.requests.post", fake_post)
    with pytest.raises(BackendError) as exc_info:
        complete(BackendConfig(), [ChatMessage("user", "hi")])
    assert not isinstance(exc_info.value, RetriesExhaustedError)
    assert exc_info.value.status == 400
    assert n["calls"] == 1


def test_complete_timeout_exhausts_retries(monkeypatch, no_sleep):
    def fake_post(*a, **k):
        raise requests.Timeout("too slow")

    monkeypatch.setattr("trajrules.llm.requests.post", fake_post)
    with pytest.raises(RetriesExhaustedError):
        complete(BackendConfig(max_retries=1), [ChatMessage("user", "hi")])


def test_complete_connection_error_retried(monkeypatch, no_sleep):
    attempts = [requests.ConnectionError("refused"), FakeResponse(200, content="ok")]

    def fake_post(*a, **k):
        item = attempts.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    monkeypatch.setattr("trajrules.llm.requests.post", fake_post)
    assert complete(BackendConfig(), [ChatMessage("user", "hi")]) == "ok"


def test_complete_malformed_body(monkeypatch, no_sleep):
    monkeypatch.setattr(
        "trajrules.llm.requests.post",
        lambda *a, **k: FakeResponse(200, json_data={"choices": []}),
    )
    with pytest.raises(BackendError):
        complete(BackendConfig(), [ChatMessage("user", "hi")])


def test_complete_empty_messages():
    with pytest.raises(EmptySampleSetError):
        complete(BackendConfig(), [])
