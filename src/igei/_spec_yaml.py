"""PyYAML's reading of an index spec file; only a spec file imports it.

The bundled default spec is served from :mod:`igei._bundled_spec`, a
snapshot of ``igei_tree.yaml`` that this module writes:

    PYTHONPATH=src python -m igei._spec_yaml > src/igei/_bundled_spec.py
"""

from __future__ import annotations

import yaml

from igei.errors import SpecError


class _UniqueKeys:
    """Safe-loader mixin that refuses a repeated mapping key; PyYAML keeps the last one."""

    def construct_mapping(self, node, deep=False):
        keys = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # ``<<`` keys may repeat; the base class merges them
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in keys
            except TypeError:  # unhashable: the base class reports it
                continue
            if repeated:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"found duplicate key {key!r}",
                    key_node.start_mark,
                )
            keys.add(key)
        return super().construct_mapping(node, deep=deep)


class _PureLoader(_UniqueKeys, yaml.SafeLoader):
    """PyYAML's own parser: the one whose errors a spec message quotes."""


class _UniqueKeyLoader(_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's parser where PyYAML was built with it, about ten times faster."""


# The pure parser recurses once per nesting level and runs out of Python stack
# a few hundred levels down, where libyaml goes on: a deeper document is left
# to the pure parser, so that it is refused with the pure parser's message.
_FAST_NESTING = 100


def _deeper_than(root, limit: int) -> bool:
    """Whether collections nest more than ``limit`` levels deep, ``root`` the first.

    Nodes are walked in document order and each counts once, where it
    first appears: an alias repeats its anchor without nesting it again.
    """
    stack, seen = [(root, 0)], set()
    while stack:
        node, depth = stack.pop()
        if isinstance(node, yaml.ScalarNode) or id(node) in seen:
            continue
        if depth == limit:
            return True
        seen.add(id(node))
        if isinstance(node, yaml.SequenceNode):
            children = node.value
        else:
            children = [child for pair in node.value for child in pair]
        stack.extend((child, depth + 1) for child in reversed(children))
    return False


def _parse_yaml(text: str):
    """The YAML document in ``text``.

    :class:`_PureLoader` parses a text that holds a tab, which PyYAML's
    own scanner refuses in places where libyaml takes it, and parses
    again a document the fast loader refuses or that nests too deep for
    the pure one; so a spec loads, or fails with the same message, with
    or without libyaml.
    """
    if "\t" not in text:
        loader = _UniqueKeyLoader(text)
        try:
            node = loader.get_single_node()
            if node is None:
                return None
            if not _deeper_than(node, _FAST_NESTING):
                return loader.construct_document(node)
        except Exception:
            pass  # the pure loader raises the error a spec message quotes
        finally:
            loader.dispose()
    return yaml.load(text, Loader=_PureLoader)


def parse_spec(text: str, source):
    """The YAML document in ``text``, read from ``source``; a fault is a :class:`SpecError`."""
    try:
        return _parse_yaml(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            where = f" at line {mark.line + 1}, column {mark.column + 1}"
        elif isinstance(exc, yaml.reader.ReaderError):
            # a control character: the reader knows only its position
            where = f" at position {exc.position}"
        else:
            where = ""
        # PyYAML's own text repeats the location on further lines
        problem = getattr(exc, "problem", None) or str(exc).split("\n", 1)[0]
        raise SpecError(f"{source}: malformed YAML{where}: {problem}") from None
    except RecursionError:
        raise SpecError(f"{source}: malformed YAML: nesting is too deep") from None
    except Exception as exc:
        # PyYAML's scalar constructors raise bare errors for a value they
        # cannot build: ValueError for 2023-13-45, IndexError for !!float ''
        raise SpecError(
            f"{source}: malformed YAML: cannot construct a value "
            f"({type(exc).__name__}: {str(exc)[:80]})"
        ) from None


def snapshot_source(text: str) -> str:
    """The source of :mod:`igei._bundled_spec` for the spec document in ``text``.

    A top-level list or mapping takes one line per item.
    """
    lines = []
    for key, value in _parse_yaml(text).items():
        if isinstance(value, list):
            lines += [f"        {key!r}: [", *(f"            {item!r}," for item in value),
                      "        ],"]
        elif isinstance(value, dict):
            lines += [f"        {key!r}: {{",
                      *(f"            {k!r}: {v!r}," for k, v in value.items()), "        },"]
        else:
            lines.append(f"        {key!r}: {value!r},")
    body = "\n".join(lines)
    return f'''"""The bundled index spec: the document PyYAML reads from ``igei_tree.yaml``.

``igei_tree.yaml`` stays the edited source, and a test pins this snapshot
to it. Written by :mod:`igei._spec_yaml`; regenerate it with

    PYTHONPATH=src python -m igei._spec_yaml > src/igei/_bundled_spec.py
"""


def document() -> dict:
    """A new copy of the document on each call: no caller shares one."""
    return {{
{body}
    }}
'''


if __name__ == "__main__":
    from igei.dataio import DEFAULT_SPEC_RESOURCE, bundled_path

    print(snapshot_source(bundled_path(DEFAULT_SPEC_RESOURCE).read_text(encoding="utf-8")),
          end="")
