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

import logging
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import requests

from . import dsl
from .errors import (
    BackendError,
    BackendTimeoutError,
    EmptySampleSetError,
    PredicateError,
    RetriesExhaustedError,
)
from .rules import (
    CATEGORIES,
    CONTEXTS,
    DIRECTIONS,
    POLARITIES,
    TASKS,
    ContextConstraint,
    Rule,
)

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


class Backend(Protocol):
    def complete(self, messages: Sequence[ChatMessage]) -> str: ...


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
    last: BackendError | None = None
    for attempt in range(cfg.max_retries + 1):
        if attempt:
            time.sleep(cfg.retry_backoff_s * 2 ** (attempt - 1))
        try:
            resp = requests.post(cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout_s)
        except requests.Timeout as exc:
            last = BackendTimeoutError(f"request timed out after {cfg.timeout_s}s")
            log.warning("completion attempt %d timed out: %s", attempt + 1, exc)
            continue
        except requests.RequestException as exc:
            last = BackendError(f"connection failed: {exc}")
            log.warning("completion attempt %d failed: %s", attempt + 1, exc)
            continue
        if resp.status_code == 429 or resp.status_code >= 500:
            last = BackendError(f"HTTP {resp.status_code}", status=resp.status_code, body=resp.text[:2000])
            log.warning("completion attempt %d got HTTP %d", attempt + 1, resp.status_code)
            continue
        if resp.status_code != 200:
            raise BackendError(f"HTTP {resp.status_code}", status=resp.status_code, body=resp.text[:2000])
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}", body=resp.text[:2000]) from exc
    raise RetriesExhaustedError(
        f"gave up after {cfg.max_retries + 1} attempts: {last}",
        status=getattr(last, "status", None),
    )


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
    """Deterministic stand-in backend.

    Responses come either from an explicit {kind: text} mapping or from
    fixture files <dir>/<kind>.md. The same prompt kind always yields the
    same text, so pipelines driven by this backend are reproducible.
    """

    def __init__(self, fixture_dir: str | Path | None = None, responses: dict[str, str] | None = None):
        if fixture_dir is None and responses is None:
            raise ValueError("MockBackend needs a fixture_dir or a responses mapping")
        self.fixture_dir = Path(fixture_dir) if fixture_dir is not None else None
        self.responses = dict(responses) if responses else {}

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        kind = prompt_kind(messages)
        if kind in self.responses:
            return self.responses[kind]
        if self.fixture_dir is not None:
            path = self.fixture_dir / f"{kind}.md"
            if path.exists():
                return path.read_text(encoding="utf-8")
        raise BackendError(f"mock backend has no fixture for prompt kind {kind!r}")


# --- structured response blocks ---

@dataclass(frozen=True)
class RejectedBlock:
    text: str
    reason: str


@dataclass(frozen=True)
class RefinementSuggestion:
    rule_id: str
    action: str
    new_predicate: str | None = None
    new_contexts: frozenset[str] | None = None
    rationale: str = ""


_FENCE_RE = re.compile(r"```(?P<tag>rule|refinement)\s*\n(?P<body>.*?)```", re.DOTALL)


def _parse_fields(body: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in body.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError(f"expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        fields[key.strip().lower()] = value.strip()
    return fields


def _split_list(value: str) -> frozenset[str]:
    return frozenset(part.strip() for part in value.split(",") if part.strip())


def format_rule_block(rule: Rule) -> str:
    lines = [
        "```rule",
        f"id: {rule.id}",
        f"description: {rule.description}",
        f"condition: {rule.predicate_text}",
        f"contexts: {', '.join(sorted(rule.context.allowed_contexts))}",
        f"tasks: {', '.join(sorted(rule.context.applicable_tasks))}",
        f"category: {rule.category}",
        f"polarity: {rule.polarity}",
    ]
    if rule.direction is not None:
        lines.append(f"direction: {rule.direction}")
    lines.append("```")
    return "\n".join(lines)


def _rule_from_block(body: str) -> Rule:
    fields = _parse_fields(body)
    for required in ("id", "description", "condition", "category"):
        if required not in fields:
            raise ValueError(f"missing field {required!r}")
    contexts = _split_list(fields.get("contexts", "any")) or frozenset({"any"})
    tasks = _split_list(fields.get("tasks", "identification")) or frozenset({"identification"})
    bad_ctx = contexts - set(CONTEXTS)
    if bad_ctx:
        raise ValueError(f"unknown contexts {sorted(bad_ctx)}")
    bad_tasks = tasks - set(TASKS)
    if bad_tasks:
        raise ValueError(f"unknown tasks {sorted(bad_tasks)}")
    category = fields["category"]
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}")
    polarity = fields.get("polarity", "AV_indicative")
    if polarity not in POLARITIES:
        raise ValueError(f"unknown polarity {polarity!r}")
    direction = fields.get("direction")
    if direction is not None and direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    return Rule(
        id=fields["id"],
        description=fields["description"],
        predicate=dsl.parse_predicate(fields["condition"]),
        context=ContextConstraint(contexts, tasks),
        category=category,
        polarity=polarity,
        direction=direction,
        state="candidate",
    )


def parse_rule_response(text: str) -> tuple[list[Rule], list[RejectedBlock]]:
    """Extract rules from a discovery response.

    Every ```rule fence is parsed independently; blocks that fail to compile
    (bad DSL, unknown atom, missing fields) become RejectedBlock entries
    instead of aborting the batch.
    """
    rules: list[Rule] = []
    rejected: list[RejectedBlock] = []
    seen: set[str] = set()
    for match in _FENCE_RE.finditer(text):
        if match.group("tag") != "rule":
            continue
        body = match.group("body")
        try:
            rule = _rule_from_block(body)
        except (ValueError, PredicateError) as exc:
            rejected.append(RejectedBlock(text=body.strip(), reason=str(exc)))
            continue
        if rule.id in seen:
            rejected.append(RejectedBlock(text=body.strip(), reason=f"duplicate rule id {rule.id!r}"))
            continue
        seen.add(rule.id)
        rules.append(rule)
    return rules, rejected


def parse_refinement_response(text: str) -> list[RefinementSuggestion]:
    """Extract refinement suggestions from a reflection response.

    A block that names a rule but is otherwise unusable degrades to a
    retire suggestion carrying the parse failure as its rationale, so a
    confused model response still resolves deterministically.
    """
    suggestions: list[RefinementSuggestion] = []
    for match in _FENCE_RE.finditer(text):
        if match.group("tag") != "refinement":
            continue
        body = match.group("body")
        try:
            fields = _parse_fields(body)
        except ValueError as exc:
            ids = re.search(r"rule_id\s*:\s*(\S+)", body)
            suggestions.append(RefinementSuggestion(
                rule_id=ids.group(1) if ids else "",
                action="retire",
                rationale=f"unparseable suggestion: {exc}",
            ))
            continue
        rule_id = fields.get("rule_id", "")
        try:
            action = fields.get("action", "")
            if action not in REFINEMENT_ACTIONS:
                raise ValueError(f"unknown action {action!r}")
            new_predicate = None
            new_contexts = None
            if action in ("adjust_threshold", "combine_features"):
                if "condition" not in fields:
                    raise ValueError(f"action {action} requires a condition")
                dsl.parse_predicate(fields["condition"])  # must compile
                new_predicate = fields["condition"]
            elif action == "add_context":
                contexts = _split_list(fields.get("contexts", ""))
                if not contexts or contexts - set(CONTEXTS):
                    raise ValueError("action add_context requires known contexts")
                new_contexts = contexts
            suggestions.append(RefinementSuggestion(
                rule_id=rule_id,
                action=action,
                new_predicate=new_predicate,
                new_contexts=new_contexts,
                rationale=fields.get("rationale", ""),
            ))
        except (ValueError, PredicateError) as exc:
            suggestions.append(RefinementSuggestion(
                rule_id=rule_id,
                action="retire",
                rationale=f"unparseable suggestion: {exc}",
            ))
    return suggestions
