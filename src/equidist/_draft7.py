"""The compiled check of a draft-7 JSON schema, as the manifest schema
uses it.

A schema compiles to one function over parsed JSON: None when the
instance passes, else the failure that jsonschema.validate would report.
Each keyword becomes a check that passes every instance its keyword does
not apply to, as in draft 7, and words a failure as jsonschema does.

A failure is (path, weak, off_type, message, tail): path leads from the
checked instance to the one that failed, weak marks a oneOf, off_type a
schema whose "type" the instance does not match, and message stands at
path + tail.  Failures rank as in jsonschema's best_match: the shallowest
path, then the greatest, then not weak, then off type, and the first of
equals wins.  A oneOf that no branch passes reports, at its own rank,
the failure of the branch that failed deepest; when two branches tie for
deepest it reports that no branch passed.
"""

import operator


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


def _failure(schema, x, message, weak=False, tail=()):
    """The failure of a keyword of schema at x itself."""
    off_type = (not isinstance(schema, dict) or "type" not in schema
                or not _TYPES[schema["type"]](x))
    return (), weak, off_type, message, tail


def _rank(failure):
    path, weak, off_type = failure[:3]
    return -len(path), path, not weak, off_type


def _first(failures):
    """The failure of failures that jsonschema reports, or None."""
    return max(failures, key=_rank) if failures else None


def _under(key, failure):
    return ((key,) + failure[0],) + failure[1:]


def _all(checks):
    if len(checks) == 1:
        return checks[0]

    def check(x):
        failures = []
        for c in checks:
            if (f := c(x)) is not None:
                failures.append(f)
        return _first(failures)
    return check


def _type_check(name, schema, sub):
    test = _TYPES[name]
    return lambda x: None if test(x) else _failure(
        schema, x, "%r is not of type %r" % (x, name))


def _enum_check(values, schema, sub):
    return lambda x: None if any(_equal(x, v) for v in values) else (
        _failure(schema, x, "%r is not one of %r" % (x, values)))


def _const_check(value, schema, sub):
    return lambda x: None if _equal(x, value) else _failure(
        schema, x, "%r was expected" % (value,))


def _required_check(names, schema, sub):
    def check(x):
        if isinstance(x, dict):
            for name in names:
                if name not in x:
                    return _failure(schema, x,
                                    "%r is a required property" % name)
    return check


def _properties_check(props, schema, sub):
    checks = [(name, sub(s)) for name, s in props.items()]

    def check(x):
        if isinstance(x, dict):
            return _first([_under(name, f) for name, c in checks
                           if name in x and (f := c(x[name])) is not None])
    return check


def _additional_check(extra, schema, sub):
    if extra is not False:
        raise ValueError("additionalProperties %r has no compiled check"
                         % (extra,))
    known = frozenset(schema.get("properties", ()))

    def check(x):
        if isinstance(x, dict) and not known.issuperset(x):
            names = sorted(set(x) - known, key=str)
            return _failure(schema, x, "Additional properties are not "
                            "allowed (%s %s unexpected)"
                            % (", ".join(map(repr, names)),
                               "was" if len(names) == 1 else "were"))
    return check


def _items_check(items, schema, sub):
    if isinstance(items, list):
        raise ValueError("positional items have no compiled check")
    each = sub(items)

    def check(x):
        # a failure is a non-empty tuple: the loop stays in C until one
        if isinstance(x, list) and any(map(each, x)):
            return _first([_under(k, f) for k, f in enumerate(map(each, x))
                           if f is not None])
    return check


def _length_check(fails, words):
    """minItems or maxItems; words(n) says how a list fails bound n."""
    return lambda n, schema, sub: (
        lambda x: _failure(schema, x, "%r %s" % (x, words(n)))
        if isinstance(x, list) and fails(len(x), n) else None)


def _bound_check(fails, words):
    """A numeric bound; fails is the comparison that refuses, as in
    jsonschema."""
    return lambda bound, schema, sub: (
        lambda x: _failure(schema, x, "%r is %s %r" % (x, words, bound))
        if _is_number(x) and fails(x, bound) else None)


def _one_of_check(schemas, schema, sub):
    checks = [sub(s) for s in schemas]

    def check(x):
        failures = [c(x) for c in checks]
        passed = [s for s, f in zip(schemas, failures) if f is None]
        if len(passed) == 1:
            return None
        if passed:
            return _failure(schema, x, "%r is valid under each of %s" % (
                x, ", ".join(map(repr, passed[1:] + passed[:1]))), weak=True)
        depths = [len(f[0]) + len(f[4]) for f in failures]
        if depths.count(max(depths)) == 1:
            path, _, _, message, tail = failures[depths.index(max(depths))]
            return _failure(schema, x, message, weak=True, tail=path + tail)
        return _failure(schema, x, "%r is not valid under any of the given "
                        "schemas" % (x,), weak=True)
    return check


def _not_check(negated, schema, sub):
    check = sub(negated)
    return lambda x: None if check(x) is not None else _failure(
        schema, x, "%r should not be valid under %r" % (x, negated))


def _if_check(cond, schema, sub):
    test, then = sub(cond), sub(schema.get("then", True))
    return lambda x: None if test(x) is not None else then(x)


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
    """The check of schema, a subschema of root, that returns a failure
    tuple or None.  $ref takes a local JSON pointer, such as
    #/definitions/params; a keyword outside _KEYWORDS raises ValueError,
    so no check is skipped unseen."""
    if schema is True:
        return lambda x: None
    if schema is False:
        return lambda x: _failure(schema, x,
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
    failure jsonschema.validate reports, path a list of keys and indices.
    A failure under a oneOf is worded as the branch that failed deepest
    words it, or as no branch passing when two tie."""
    check = _check(schema, root)

    def failure(x):
        found = check(x)
        if found is not None:
            path, _, _, message, tail = found
            return message, [*path, *tail]
    return failure
