"""LLM completion backends and structured response parsing.

The HTTP backend speaks the common chat-completion wire shape (model,
messages, temperature, max_tokens) with bearer-token auth and exponential
backoff on transient failures. The mock backend replays fixture files keyed
by prompt kind, which keeps the whole pipeline runnable offline and
deterministic.

Model responses carry rules and refinement suggestions in fenced blocks::

    ```rule
    id: R101
    description: keeps jerk very low
    condition: std_jerk < 0.3
    contexts: any
    tasks: identification
    category: smoothness
    polarity: AV_indicative
    ```

    ```refinement
    rule_id: R101
    action: adjust_threshold
    condition: std_jerk < 0.33
    rationale: misses borderline smooth drivers
    ```

Parsing never aborts a batch: each block either compiles or is returned as
a RejectedBlock with the reason.
"""
from __future__ import annotations

import json
import logging
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Protocol, Sequence

from . import dsl
from .errors import (
    BackendError,
    BackendTimeoutError,
    EmptySampleSetError,
    LibraryValidationError,
    PredicateError,
    RetriesExhaustedError,
)
from .rules import CONTEXTS, Rule

log = logging.getLogger(__name__)

#: Section headers the prompt builders embed; the mock backend routes on them.
KIND_MARKERS = {
    "discovery": "## Analysis Task",
    "reflection": "## Reflection Task",
}

REFINEMENT_ACTIONS = ("adjust_threshold", "add_context", "combine_features", "retire")


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "system" or "user"
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role {self.role!r}")
        if not self.content:
            raise ValueError("chat message content must not be empty")


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = "https://api.example.com/v1/chat/completions"
    model: str = "default"
    temperature: float = 0.7
    max_output_tokens: int = 2000
    timeout_s: float = 60.0
    max_retries: int = 3
    retry_backoff_s: float = 0.5
    token_env: str = "TRAJRULES_API_TOKEN"

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive")
        if not self.retry_backoff_s >= 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if not self.endpoint.startswith(("http://", "https://")):
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {self.endpoint!r}")


class Backend(Protocol):
    def complete(self, messages: Sequence[ChatMessage]) -> str: ...


def _post(url: str, body: bytes, headers: dict[str, str], timeout: float) -> tuple[int, str]:
    """POST once; return (status, text) for any status, or raise TimeoutError/OSError.

    urllib is imported here so that a process which never sends a request
    does not load http.client and ssl.
    """
    import http.client
    import urllib.error
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        # urllib would resend the headers, bearer token included, to any host
        # a 3xx names; declining makes the 3xx an HTTPError like any other
        def redirect_request(self, *args):
            return None

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        try:
            resp = urllib.request.build_opener(NoRedirect).open(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            resp = exc  # a 3xx/4xx/5xx response; its body is read like any other
        with resp:
            return resp.status, resp.read().decode("utf-8", errors="replace")
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, TimeoutError):
            raise exc.reason from exc
        raise
    except http.client.HTTPException as exc:  # malformed or truncated response
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc


def complete(cfg: BackendConfig, messages: Sequence[ChatMessage]) -> str:
    """POST a chat completion and return the response text.

    Retries timeouts, connection errors, and 429/5xx responses with
    exponential backoff; other HTTP errors raise BackendError immediately.
    After the retry budget, raises RetriesExhaustedError.
    """
    if not messages:
        raise EmptySampleSetError("no messages to send")
    token = os.environ.get(cfg.token_env, "")
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    payload = {
        "model": cfg.model,
        "messages": [{"role": m.role, "content": m.content} for m in messages],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_output_tokens,
    }
    body = json.dumps(payload).encode("utf-8")
    last: BackendError | None = None
    for attempt in range(cfg.max_retries + 1):
        if attempt:
            time.sleep(cfg.retry_backoff_s * 2 ** (attempt - 1))
        try:
            status, text = _post(cfg.endpoint, body, headers, cfg.timeout_s)
        except TimeoutError as exc:
            last = BackendTimeoutError(f"request timed out after {cfg.timeout_s}s")
            log.warning("completion attempt %d timed out: %s", attempt + 1, exc)
            continue
        except OSError as exc:
            last = BackendError(f"connection failed: {exc}")
            log.warning("completion attempt %d failed: %s", attempt + 1, exc)
            continue
        if status == 429 or status >= 500:
            last = BackendError(f"HTTP {status}", status=status, body=text[:2000])
            log.warning("completion attempt %d got HTTP %d", attempt + 1, status)
            continue
        if status != 200:
            raise BackendError(f"HTTP {status}", status=status, body=text[:2000])
        try:
            content = json.loads(text)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}", body=text[:2000]) from exc
        return content
    raise RetriesExhaustedError(
        f"gave up after {cfg.max_retries + 1} attempts: {last}",
        status=getattr(last, "status", None),
    ) from last


class HttpBackend:
    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        return complete(self.cfg, messages)


def prompt_kind(messages: Sequence[ChatMessage]) -> str:
    """Classify a prompt by the task header its builder embedded."""
    text = "\n".join(m.content for m in messages)
    for kind, marker in KIND_MARKERS.items():
        if marker in text:
            return kind
    raise BackendError("prompt does not carry a recognizable task header")


class MockBackend:
    """Deterministic stand-in backend reading fixture files <dir>/<kind>.md.

    The same prompt kind always yields the same text, so pipelines driven by
    this backend are reproducible.
    """

    def __init__(self, fixture_dir: str | Path):
        self.fixture_dir = Path(fixture_dir)

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        kind = prompt_kind(messages)
        path = self.fixture_dir / f"{kind}.md"
        if not path.exists():
            raise BackendError(f"mock backend has no fixture for prompt kind {kind!r}")
        return path.read_text(encoding="utf-8")


# --- structured response blocks ---

@dataclass(frozen=True)
class RejectedBlock:
    text: str
    reason: str


@dataclass(frozen=True)
class RefinementSuggestion:
    rule_id: str
    action: str
    new_predicate: dsl.Predicate | None = None
    new_contexts: frozenset[str] | None = None
    rationale: str = ""


_FENCE_RE = re.compile(r"```(?P<tag>rule|refinement)\s*\n(?P<body>.*?)```", re.DOTALL)


def _bodies(text: str, tag: str) -> Iterator[str]:
    """The body of each ```tag fence in text, in order."""
    return (m.group("body") for m in _FENCE_RE.finditer(text) if m.group("tag") == tag)


def _parse_fields(body: str) -> tuple[dict[str, str], str | None]:
    """A block's 'key: value' fields, keys lower-cased, and the complaint about
    its first line of another form (blank and # lines are skipped)."""
    fields: dict[str, str] = {}
    malformed = None
    for line in body.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            malformed = malformed or f"expected 'key: value', got {line!r}"
            continue
        key, value = line.split(":", 1)
        fields[key.strip().lower()] = value.strip()
    return fields, malformed


def _split_list(value: str) -> frozenset[str]:
    return frozenset(part.strip() for part in value.split(",") if part.strip())


def format_rule_block(rule: Rule) -> str:
    lines = [
        "```rule",
        f"id: {rule.id}",
        f"description: {rule.description}",
        f"condition: {rule.predicate_text}",
        f"contexts: {', '.join(sorted(rule.contexts))}",
        f"tasks: {', '.join(sorted(rule.tasks))}",
        f"category: {rule.category}",
        f"polarity: {rule.polarity}",
    ]
    if rule.direction is not None:
        lines.append(f"direction: {rule.direction}")
    lines.append("```")
    return "\n".join(lines)


def _rule_from_block(body: str) -> Rule:
    """Rule of one block; absent lines and blank scope lines take Rule's defaults."""
    fields, malformed = _parse_fields(body)
    if malformed:
        raise ValueError(malformed)
    for required in ("id", "description", "condition", "category"):
        if required not in fields:
            raise ValueError(f"missing field {required!r}")
    optional = {key: fields[key] for key in ("polarity", "direction") if key in fields}
    for key in ("contexts", "tasks"):
        if values := _split_list(fields.get(key, "")):
            optional[key] = values
    return Rule(
        id=fields["id"],
        description=fields["description"],
        predicate=dsl.parse_predicate(fields["condition"]),
        category=fields["category"],
        **optional,
    )


def parse_rule_response(text: str) -> tuple[list[Rule], list[RejectedBlock]]:
    """Extract rules from a discovery response.

    Every ```rule fence is parsed independently; blocks that fail to compile
    (bad DSL, unknown atom, missing fields, values Rule rejects, an id an
    earlier block took) become RejectedBlock entries instead of aborting the batch.
    """
    rules: list[Rule] = []
    rejected: list[RejectedBlock] = []
    seen: set[str] = set()
    for body in _bodies(text, "rule"):
        try:
            rule = _rule_from_block(body)
            if rule.id in seen:
                raise ValueError(f"duplicate rule id {rule.id!r}")
        except (ValueError, PredicateError, LibraryValidationError) as exc:
            rejected.append(RejectedBlock(text=body.strip(), reason=str(exc)))
            continue
        seen.add(rule.id)
        rules.append(rule)
    return rules, rejected


def parse_refinement_response(text: str) -> list[RefinementSuggestion]:
    """Extract refinement suggestions from a reflection response.

    A block that names a rule but is otherwise unusable degrades to a
    retire suggestion carrying the parse failure as its rationale, so a
    confused model response still resolves deterministically. A block with
    a malformed line still takes its rule id from its own rule_id line.
    """
    suggestions: list[RefinementSuggestion] = []
    for body in _bodies(text, "refinement"):
        fields, malformed = _parse_fields(body)
        try:
            if malformed:
                raise ValueError(malformed)
            action = fields.get("action", "")
            if action not in REFINEMENT_ACTIONS:
                raise ValueError(f"unknown action {action!r}")
            new_predicate = new_contexts = None
            if action in ("adjust_threshold", "combine_features"):
                if "condition" not in fields:
                    raise ValueError(f"action {action} requires a condition")
                new_predicate = dsl.parse_predicate(fields["condition"])
            elif action == "add_context":
                new_contexts = _split_list(fields.get("contexts", ""))
                if not new_contexts or new_contexts - set(CONTEXTS):
                    raise ValueError("action add_context requires known contexts")
            suggestions.append(RefinementSuggestion(
                fields.get("rule_id", ""), action, new_predicate, new_contexts,
                fields.get("rationale", ""),
            ))
        except (ValueError, PredicateError) as exc:
            suggestions.append(RefinementSuggestion(
                fields.get("rule_id", ""), "retire", rationale=f"unparseable suggestion: {exc}"))
    return suggestions
