"""The manifest boundary: parse(text) returns the manifest in text, or
raises Refusal with the message and path that jsonschema.validate gives.

The text is parsed as strict JSON: NaN, Infinity and number literals
past the float range, such as 1e400 or a 400-digit integer, are refused
naming the token.  The manifest is then checked by the check compiled
from the packaged draft-7 schema on first use.

A compiled check returns every failure of an instance, as jsonschema's
iter_errors yields them, or an empty tuple when it passes.  A failure
is (path, weak, off_type, message, tail): path leads from the checked
instance to the one that failed, weak marks a oneOf, off_type a schema
whose "type" the instance does not match, and message stands at path +
tail.  The reported failure is jsonschema's best_match: the greatest
rank, which is the shallowest path, then the greatest, then not weak,
then off type, the first of equals winning.  A oneOf that no branch
passes descends as best_match does: at its own rank it reports the
least-ranked failure of all its branches, or that no branch passed
when the two least share a rank.
"""

import functools
import json
import math
import operator
from importlib import resources


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# draft-7 types: a bool is never a number, an integral float is an integer
_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: _is_number(x) and (isinstance(x, int)
                                            or x.is_integer()),
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _equal(a, b):
    """Draft-7 equality, as enum and const use it: True and 1 differ,
    1 and 1.0 do not."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k])
                                            for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _failed(schema, x, message, weak=False, tail=()):
    """The one failure of a keyword of schema at x itself, as a tuple of
    failures."""
    off_type = (not isinstance(schema, dict) or "type" not in schema
                or not _TYPES[schema["type"]](x))
    return ((), weak, off_type, message, tail),


def _rank(failure):
    path, weak, off_type = failure[:3]
    return -len(path), path, not weak, off_type


def _under(key, failures):
    return tuple(((key,) + f[0],) + f[1:] for f in failures)


def _all(checks):
    if len(checks) == 1:
        return checks[0]

    def check(x):
        failures = ()
        for c in checks:
            failures += c(x)
        return failures
    return check


def _type_check(name, schema, sub):
    test = _TYPES[name]
    return lambda x: () if test(x) else _failed(
        schema, x, "%r is not of type %r" % (x, name))


def _enum_check(values, schema, sub):
    return lambda x: () if any(_equal(x, v) for v in values) else (
        _failed(schema, x, "%r is not one of %r" % (x, values)))


def _const_check(value, schema, sub):
    return lambda x: () if _equal(x, value) else _failed(
        schema, x, "%r was expected" % (value,))


def _required_check(names, schema, sub):
    return lambda x: tuple(
        f for n in names if isinstance(x, dict) and n not in x
        for f in _failed(schema, x, "%r is a required property" % n))


def _properties_check(props, schema, sub):
    checks = [(name, sub(s)) for name, s in props.items()]

    def check(x):
        failures = ()
        if isinstance(x, dict):
            for name, c in checks:
                if name in x and (f := c(x[name])):
                    failures += _under(name, f)
        return failures
    return check


def _additional_check(extra, schema, sub):
    if extra is not False:
        raise ValueError("additionalProperties %r has no compiled check"
                         % (extra,))
    known = frozenset(schema.get("properties", ()))

    def check(x):
        if isinstance(x, dict) and not known.issuperset(x):
            names = sorted(set(x) - known, key=str)
            return _failed(schema, x, "Additional properties are not "
                           "allowed (%s %s unexpected)"
                           % (", ".join(map(repr, names)),
                              "was" if len(names) == 1 else "were"))
        return ()
    return check


def _items_check(items, schema, sub):
    if isinstance(items, list):
        raise ValueError("positional items have no compiled check")
    each = sub(items)

    def check(x):
        # passing is an empty tuple: the loop stays in C until a failure
        if isinstance(x, list) and any(map(each, x)):
            return tuple(f for k, found in enumerate(map(each, x))
                         for f in _under(k, found))
        return ()
    return check


def _length_check(fails, words):
    """minItems or maxItems; words(n) says how a list fails bound n."""
    return lambda n, schema, sub: (
        lambda x: _failed(schema, x, "%r %s" % (x, words(n)))
        if isinstance(x, list) and fails(len(x), n) else ())


def _bound_check(fails, words):
    """A numeric bound; fails is the comparison that refuses, as in
    jsonschema."""
    return lambda bound, schema, sub: (
        lambda x: _failed(schema, x, "%r is %s %r" % (x, words, bound))
        if _is_number(x) and fails(x, bound) else ())


def _one_of_check(schemas, schema, sub):
    checks = [sub(s) for s in schemas]

    def check(x):
        failures = [c(x) for c in checks]
        passed = [s for s, f in zip(schemas, failures) if not f]
        if len(passed) == 1:
            return ()
        if passed:
            return _failed(schema, x, "%r is valid under each of %s" % (
                x, ", ".join(map(repr, passed[1:] + passed[:1]))), weak=True)
        # best_match's descent: the least rank over every branch's
        # failures, unless two failures share it
        best, *rest = sorted(sum(failures, ()), key=_rank)
        if rest and _rank(rest[0]) == _rank(best):
            return _failed(schema, x, "%r is not valid under any of the "
                           "given schemas" % (x,), weak=True)
        path, _, _, message, tail = best
        return _failed(schema, x, message, weak=True, tail=path + tail)
    return check


def _not_check(negated, schema, sub):
    check = sub(negated)
    return lambda x: () if check(x) else _failed(
        schema, x, "%r should not be valid under %r" % (x, negated))


def _if_check(cond, schema, sub):
    test, then = sub(cond), sub(schema.get("then", True))
    return lambda x: () if test(x) else then(x)


_KEYWORDS = {
    "type": _type_check,
    "enum": _enum_check,
    "const": _const_check,
    "required": _required_check,
    "properties": _properties_check,
    "additionalProperties": _additional_check,
    "items": _items_check,
    "minItems": _length_check(operator.lt, lambda n: (
        "should be non-empty" if n == 1 else "is too short")),
    "maxItems": _length_check(operator.gt, lambda n: (
        "is expected to be empty" if n == 0 else "is too long")),
    "minimum": _bound_check(operator.lt, "less than the minimum of"),
    "maximum": _bound_check(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound_check(
        operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound_check(
        operator.ge, "greater than or equal to the maximum of"),
    "allOf": lambda schemas, schema, sub: _all([sub(s) for s in schemas]),
    "oneOf": _one_of_check,
    "not": _not_check,
    "if": _if_check,
    "then": None,  # read by if
    "$schema": None, "title": None, "definitions": None,
}


def _check(schema, root):
    """The check of schema, a subschema of root, that returns the tuple
    of its failures.  $ref takes a local JSON pointer, such as
    #/definitions/params; a keyword outside _KEYWORDS raises ValueError,
    so no check is skipped unseen."""
    if schema is True:
        return lambda x: ()
    if schema is False:
        return lambda x: _failed(schema, x,
                                 "False schema does not allow %r" % (x,))
    if "$ref" in schema:
        # draft 7 ignores the siblings of $ref
        ref = schema["$ref"]
        if not ref.startswith("#/"):
            raise ValueError("$ref %r has no compiled check; only local "
                             "ones do" % ref)
        target = root
        for part in ref[2:].split("/"):
            target = target[part]
        return _check(target, root)
    unknown = sorted(set(schema) - set(_KEYWORDS))
    if unknown:
        raise ValueError("schema keywords %s have no compiled check"
                         % ", ".join(unknown))
    return _all([_KEYWORDS[key](value, schema, lambda s: _check(s, root))
                 for key, value in schema.items()
                 if _KEYWORDS[key] is not None])


def compile_schema(schema, root):
    """The compiled check of schema, a subschema of root: a function that
    returns None when an instance passes, else (message, path) of the
    failure jsonschema.validate reports, path a list of keys and indices."""
    check = _check(schema, root)

    def failure(x):
        failures = check(x)
        if failures:
            path, _, _, message, tail = max(failures, key=_rank)
            return message, [*path, *tail]
    return failure


class Refusal(ValueError):
    """A refused manifest; its args are the message and, for a schema
    refusal, the path of the refused value as a list of str."""


def _refuse_constant(token):
    raise ValueError("%s is not a JSON number" % token)


def _finite_float(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError("%s is past the float range" % token)
    return value


def _finite_int(token):
    _finite_float(token)
    return int(token)


def packaged_schema():
    return json.loads(resources.files("equidist").joinpath(
        "manifest_schema.json").read_text(encoding="utf-8"))


@functools.cache
def packaged_check():
    """The compiled check of the packaged schema, built on first use."""
    schema = packaged_schema()
    return compile_schema(schema, schema)


def parse(text):
    """The manifest in text, parsed as strict JSON with every number
    finite and checked once against the packaged schema; else Refusal."""
    try:
        obj = json.loads(text, parse_constant=_refuse_constant,
                         parse_float=_finite_float, parse_int=_finite_int)
    except ValueError as exc:
        raise Refusal("manifest is not valid JSON: %s" % exc) from None
    if (failure := packaged_check()(obj)) is not None:
        raise Refusal(failure[0], [str(p) for p in failure[1]])
    return obj
