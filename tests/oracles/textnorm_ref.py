"""``normalize`` written as its definition, one character at a time.

Lowercase, decompose (NFD), drop every combining mark, recompose (NFC),
then collapse whitespace runs to one space and trim.  ``entrl.textnorm``
takes a shorter path for ASCII text and memoizes gold aliases; both must
give exactly this result.
"""

import unicodedata


def normalize_ref(text: str) -> str:
    decomposed = unicodedata.normalize("NFD", text.lower())
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return " ".join(unicodedata.normalize("NFC", stripped).split())
