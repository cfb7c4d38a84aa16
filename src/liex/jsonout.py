"""JSON writer for the CLI.

write_json(obj, write) passes write exactly the text of
json.dumps(obj, indent=2), in chunks of bounded size.  On CPython an indent
sends json to its pure-Python encoder, one generator frame per value and
one write per fragment.  Here a list whose items are all str or all int,
the bulk of liex output (span, table and basis-change rows), is one join
over the C string escaper or int.__repr__.

Values are what liex prints: dicts with str keys, lists, tuples, str, int,
bool and None, of exactly those types.  Anything else, a float or a
Fraction say, raises TypeError.

Repeated parts are not rendered over and over.  A row of str or of int
is looked up by its content, and there are few distinct rows.  A dict or
a list of containers is keyed by identity and depth: met a second time,
its text is kept and reused from then on.  Search output repeats its
semigroup and basis-change objects that way.  Ids stay valid because obj
keeps every part alive during the call, and a part met only once leaves
just its id behind.
"""

from json.encoder import encode_basestring_ascii as _quote

_LITERALS = {None: "null", True: "true", False: "false"}
_STR = {str}
_INT = {int}
_CHUNK = 1 << 16        # characters per write
_STREAM_LEVELS = 2      # containers this shallow are written piece by piece


def _render(x, nl, seen, memo):
    """Text of x, with nl the newline and indent of the line x starts on."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    inner = nl + "  "
    if t is list or t is tuple:
        if not x:
            return "[]"
        kinds = set(map(type, x))
        if kinds == _STR or kinds == _INT:
            # exact str or exact int items: equal tuples print the same
            key = (tuple(x), len(nl))
            text = memo.get(key)
            if text is None:
                text = memo[key] = "[" + inner + ("," + inner).join(
                    map(_quote if kinds == _STR else int.__repr__, x)) + nl + "]"
            return text
    elif t is dict:
        if not x:
            return "{}"
    elif x is None or x is True or x is False:
        return _LITERALS[x]
    else:
        raise TypeError("Object of type %s is not JSON serializable" % t.__name__)
    key = (id(x), len(nl))
    text = memo.get(key)
    if text is not None:
        return text
    if t is dict:
        text = "{" + inner + ("," + inner).join(
            [k + ": " + (_quote(v) if type(v) is str else _render(v, inner, seen, memo))
             for k, v in zip(map(_quote, x), x.values())]) + nl + "}"
    else:
        text = "[" + inner + ("," + inner).join(
            [_render(v, inner, seen, memo) for v in x]) + nl + "]"
    if key in seen:
        memo[key] = text
    else:
        seen.add(key)
    return text


def write_json(obj, write):
    """Write json.dumps(obj, indent=2) through write."""
    seen = set()
    memo = {}
    pending = []
    size = 0

    def put(s):
        nonlocal size
        pending.append(s)
        size += len(s)
        if size >= _CHUNK:
            write("".join(pending))
            pending.clear()
            size = 0

    def stream(x, nl, levels):
        t = type(x)
        if not levels or not x or (t is not dict and t is not list and t is not tuple):
            put(_render(x, nl, seen, memo))
            return
        inner = nl + "  "
        if t is dict:
            put("{")
            for i, (k, v) in enumerate(x.items()):
                put(("," if i else "") + inner + _quote(k) + ": ")
                stream(v, inner, levels - 1)
            put(nl + "}")
        else:
            put("[")
            for i, v in enumerate(x):
                put(("," if i else "") + inner)
                stream(v, inner, levels - 1)
            put(nl + "]")

    stream(obj, "\n", _STREAM_LEVELS)
    if pending:
        write("".join(pending))
