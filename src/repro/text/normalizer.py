"""Text normalization shared by the taxonomy, the query log, and detection.

Everything that compares strings (taxonomy lookups, pattern matching, pair
mining) must see the *same* normal form, so normalization lives in exactly
one place.
"""

from __future__ import annotations

import re
import unicodedata

_WS_RE = re.compile(r"\s+")
_DASH_RE = re.compile(r"[-–—_/]+")
_STRIP_RE = re.compile(r"[^\w\s$%.']", re.UNICODE)

#: Characters :func:`normalize` passes through unchanged (ASCII, so NFKC
#: and lowercasing are identities too).
_CANONICAL_RE = re.compile(r"[a-z0-9$%.' ]*")

#: Most tokens one query may carry, counted as ``normalize_fast(text).split()``
#: (the tokens the detector segments). Head scoring is quadratic in the
#: segment count, so every ingress (HTTP ``/detect``, the replica ``detect``
#: op, ``repro detect``) refuses a longer query; none truncates it.
MAX_QUERY_TOKENS = 32


def normalize(text: str) -> str:
    """Return the canonical form of ``text``.

    Steps: Unicode NFKC fold, lowercase, dashes/underscores/slashes to
    spaces, strip residual punctuation (keeping ``$ % . '`` which carry
    meaning in queries), collapse whitespace.

    >>> normalize("  iPhone-5S  Smart_Cover ")
    'iphone 5s smart cover'
    """
    text = unicodedata.normalize("NFKC", text)
    text = text.lower()
    text = _DASH_RE.sub(" ", text)
    text = _STRIP_RE.sub(" ", text)
    text = _WS_RE.sub(" ", text)
    return text.strip()


def normalize_fast(text: str) -> str:
    """:func:`normalize`, skipping the regex passes when ``text`` is
    visibly already in normal form (the common case for query traffic).

    The serving layer keys its result cache and the router's hash ring
    on this, so it must equal :func:`normalize` on every input
    (``tests/test_runtime_parity.py``).
    """
    if (
        _CANONICAL_RE.fullmatch(text)
        and "  " not in text
        and text[:1] != " "
        and text[-1:] != " "
    ):
        return text
    return normalize(text)


def token_cap_error(text: str) -> str | None:
    """Why an ingress refuses ``text`` — it has more than
    :data:`MAX_QUERY_TOKENS` tokens — or None when it is within the cap."""
    tokens = len(normalize_fast(text).split())
    if tokens <= MAX_QUERY_TOKENS:
        return None
    return (
        f"query has {tokens} tokens, over the limit of {MAX_QUERY_TOKENS} "
        "(MAX_QUERY_TOKENS)"
    )


def normalize_term(term: str) -> str:
    """Normalize a term that acts as a dictionary key (taxonomy entries).

    Like :func:`normalize` but also strips a trailing period, which shows up
    in extraction output ("inc.", "corp.").
    """
    norm = normalize(term)
    return norm.rstrip(". ")
