"""Bounded retry with deterministic backoff.

The serving layer's graceful-degradation primitive: transient faults
(:class:`~repro.errors.TransientIOError`) are retried a bounded number
of times; the backoff is *simulated time* — a deterministic exponential
schedule the closed-loop clock adds to the operation's service time, so
retried runs reproduce byte-for-byte.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.errors import RetryExhaustedError, TransientIOError

T = TypeVar("T")

#: Retries after the first attempt before giving up.
DEFAULT_RETRY_LIMIT = 4

#: First backoff step in simulated milliseconds.
DEFAULT_BACKOFF_BASE_MS = 1.0


def backoff_delay_ms(
    attempt: int, base_ms: float = DEFAULT_BACKOFF_BASE_MS
) -> float:
    """Deterministic exponential backoff: ``base * 2**attempt`` ms."""
    return base_ms * (2.0 ** attempt)


def call_with_retries(
    fn: Callable[[], T],
    limit: int = DEFAULT_RETRY_LIMIT,
    retry_on: tuple[type[BaseException], ...] = (TransientIOError,),
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> tuple[T, int]:
    """Call ``fn`` until it succeeds; returns ``(result, retries_used)``.

    ``on_retry(attempt, exc)`` fires before each retry (attempt is the
    zero-based retry index) — the serving layer charges its simulated
    backoff there.  After ``limit`` retries the last failure is wrapped
    in :class:`~repro.errors.RetryExhaustedError` with the original as
    ``__cause__``.
    """
    if limit < 0:
        raise RetryExhaustedError("retry limit must be non-negative")
    attempt = 0
    while True:
        try:
            return fn(), attempt
        except retry_on as exc:
            if attempt >= limit:
                raise RetryExhaustedError(
                    f"gave up after {attempt} retries: {exc}"
                ) from exc
            if on_retry is not None:
                on_retry(attempt, exc)
            attempt += 1
