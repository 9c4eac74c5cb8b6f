"""Unicode text normalization and gold-alias matching.

The matcher answers one question: does a candidate translation contain any
acceptable surface form of the target entity?  Both sides are normalized the
same way first, so the answer is insensitive to case, diacritics, and
whitespace layout, and a substring test is all that remains.

Gold aliases repeat from record to record, so ``GoldEntitySet`` takes each
alias's form from a memo of ``normalize``.  The memo holds at most
``ALIAS_MEMO_SIZE`` aliases, least recently used out first, and only aliases
of at most ``ALIAS_MEMO_CHARS`` characters; a longer one is normalized
directly.  ``normalize`` is a pure function of its argument, so the memo is a
pure cache: a result is the same whether it came from the memo or not, and
what earlier records or other connections sent changes no reply.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache

__all__ = ["normalize", "match_entity", "GoldEntitySet"]


def normalize(text: str) -> str:
    """Return the canonical matching form of ``text``.

    Steps, in order: Unicode default lowercasing, canonical decomposition
    (NFD), removal of combining marks, canonical recomposition (NFC), and
    collapsing of every whitespace run to a single space with leading and
    trailing whitespace dropped.  Scripts without case or combining marks
    pass through unchanged apart from the whitespace handling.

    The function is idempotent: ``normalize(normalize(s)) == normalize(s)``.
    """
    if text.isascii():
        # The same result: ASCII lowercases to ASCII, NFD and NFC leave it
        # as it is, and no ASCII character is a combining mark.
        return " ".join(text.lower().split())
    decomposed = unicodedata.normalize("NFD", text.lower())
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    # Collapse whitespace only after mark removal; deleting a mark that sat
    # between two spaces must not leave a double space behind.
    return " ".join(unicodedata.normalize("NFC", stripped).split())


# Bounds of the alias memo.  A form has at most two characters per code point,
# so however long the aliases clients send, the memo stays under 4 MB (3.8 MB
# when full of 128-character aliases that each double).
ALIAS_MEMO_SIZE = 2048
ALIAS_MEMO_CHARS = 128


@lru_cache(maxsize=ALIAS_MEMO_SIZE)
def _memo_normalize(alias: str) -> str:
    # By its module-global name, so a wrapper installed on ``normalize`` sees
    # every miss.
    return normalize(alias)


@dataclass(frozen=True)
class GoldEntitySet:
    """Acceptable surface forms for one entity.

    ``normalized_aliases`` is derived at construction time and is the only
    view the matcher consults.  Construction fails if ``aliases`` is a bare
    string or empty, or if any alias normalizes to the empty string, since an
    empty alias would match every candidate.  Aliases of at most ``ALIAS_MEMO_CHARS``
    characters are normalized through the module's memo.
    """

    entity_id: str
    aliases: tuple[str, ...]
    normalized_aliases: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if isinstance(self.aliases, str):
            raise ValueError(f"entity {self.entity_id!r}: aliases must be a sequence of strings, not a str")
        object.__setattr__(self, "aliases", tuple(self.aliases))
        if not self.aliases:
            raise ValueError(f"entity {self.entity_id!r}: empty alias list")
        normed = tuple([_memo_normalize(a) if len(a) <= ALIAS_MEMO_CHARS else normalize(a)
                        for a in self.aliases])
        empties = [raw for raw, n in zip(self.aliases, normed) if not n]
        if empties:
            raise ValueError(
                f"entity {self.entity_id!r}: aliases normalize to empty: {empties!r}"
            )
        object.__setattr__(self, "normalized_aliases", normed)


def match_entity(translation: str, gold: GoldEntitySet) -> int:
    """Return 1 if the normalized translation contains any normalized alias.

    Matching is substring containment on normalized text, so an alias also
    matches when embedded in longer output.  Returns 0 or 1 rather than a
    bool because the value feeds arithmetic in the reward.
    """
    normed = normalize(translation)
    for alias in gold.normalized_aliases:
        if alias in normed:
            return 1
    return 0
