"""The strict response parser as written before it searched each marker once.

It counts both markers over the whole string, strips leading whitespace
with ``lstrip`` and finds each marker with ``index``.  ``entrl.reward``'s
``parse_segments`` finds each marker once and counts from there; both must
return equal ``ResponseSegments`` for every string and config.
"""

from entrl.reward import ResponseSegments


def parse_segments_ref(raw: str, config) -> ResponseSegments:
    invalid = ResponseSegments(format_valid=0)
    if raw.count(config.open_marker) != 1 or raw.count(config.close_marker) != 1:
        return invalid
    if not raw.lstrip().startswith(config.open_marker):
        return invalid
    open_end = raw.index(config.open_marker) + len(config.open_marker)
    close_start = raw.index(config.close_marker)
    if close_start < open_end:
        return invalid
    trans = raw[close_start + len(config.close_marker):].strip()
    if not trans:
        return invalid
    return ResponseSegments(format_valid=1, think=raw[open_end:close_start], trans=trans)
