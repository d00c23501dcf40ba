"""PyYAML's reading of an index spec file; only a spec file imports it.

The bundled default spec is served from :mod:`igei._bundled_spec`, a
snapshot of ``igei_tree.yaml`` that this module writes:

    PYTHONPATH=src python -m igei._spec_yaml > src/igei/_bundled_spec.py
"""

from __future__ import annotations

import yaml

from igei.errors import SpecError


class _PureLoader(yaml.SafeLoader):
    """PyYAML's pure-Python safe loader, refusing a repeated mapping key that PyYAML
    would overwrite. It runs with or without libyaml, so a spec loads, or fails
    with the same message, on every install."""

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


def _parse_yaml(text: str):
    """The YAML document in ``text``, read by :class:`_PureLoader`."""
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
