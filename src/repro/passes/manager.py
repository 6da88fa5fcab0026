"""Pass management: registration, pipelines, and textual pipeline parsing.

Passes are registered by their command-line name (the paper uses
``--equeue-read-write`` style flags); a :class:`PassManager` runs a
sequence of (pass, options) pairs over a module and re-verifies after each
pass, so a broken rewrite fails loudly at the pass that caused it.

Pipelines can be described textually, e.g.::

    convert-linalg-to-affine-loops,equeue-read-write,
    allocate-buffer{memory=sram},launch{proc=kernel}
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple, Type

from ..ir.diagnostics import PassError
from ..ir.module import ModuleOp
from ..ir.verifier import verify


class Pass:
    """Base class for module passes."""

    #: Command-line style name, e.g. ``"equeue-read-write"``.
    pass_name: str = ""

    def __init__(self, **options):
        self.options = options

    def run(self, module: ModuleOp) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def option(self, key: str, default=None):
        return self.options.get(key, default)

    def require_option(self, key: str):
        if key not in self.options:
            raise PassError(f"pass {self.pass_name!r} requires option {key!r}")
        return self.options[key]


_PASS_REGISTRY: Dict[str, Type[Pass]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    if not cls.pass_name:
        raise PassError(f"{cls.__name__} must define pass_name")
    _PASS_REGISTRY[cls.pass_name] = cls
    return cls


def lookup_pass(name: str) -> Type[Pass]:
    try:
        return _PASS_REGISTRY[name]
    except KeyError:
        raise PassError(
            f"unknown pass {name!r}; registered: {sorted(_PASS_REGISTRY)}"
        ) from None


def registered_passes() -> Dict[str, Type[Pass]]:
    return dict(_PASS_REGISTRY)


class PassManager:
    """Runs a pipeline of passes over a module."""

    def __init__(self, verify_each: bool = True):
        self.pipeline: List[Pass] = []
        self.verify_each = verify_each

    def add(self, pass_or_name, **options) -> "PassManager":
        if isinstance(pass_or_name, str):
            pass_cls = lookup_pass(pass_or_name)
            self.pipeline.append(pass_cls(**options))
        elif isinstance(pass_or_name, Pass):
            self.pipeline.append(pass_or_name)
        else:
            self.pipeline.append(pass_or_name(**options))
        return self

    def run(self, module: ModuleOp) -> ModuleOp:
        for pass_instance in self.pipeline:
            pass_instance.run(module)
            if self.verify_each:
                try:
                    verify(module)
                except Exception as error:
                    raise PassError(
                        f"verification failed after pass "
                        f"{pass_instance.pass_name!r}: {error}"
                    ) from error
        return module

    @staticmethod
    def parse(pipeline: str, verify_each: bool = True) -> "PassManager":
        """Build a manager from textual pipeline syntax (see module doc)."""
        manager = PassManager(verify_each=verify_each)
        for name, options in parse_pipeline(pipeline):
            manager.add(name, **options)
        return manager


_PASS_NAME = re.compile(r"\s*([A-Za-z0-9_-]+)\s*")


def parse_pipeline(text: str) -> List[Tuple[str, Dict[str, object]]]:
    """Parse ``"a,b{k=v, j=2}"`` into [(name, options), ...].

    Option values may themselves contain balanced braces (e.g.
    ``proc_template=pe_{0}_{1}``); the option block ends at the matching
    closing brace.
    """
    result: List[Tuple[str, Dict[str, object]]] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _PASS_NAME.match(text, pos)
        if match is None or not match.group(1):
            raise PassError(f"malformed pipeline near {text[pos:pos + 20]!r}")
        name = match.group(1)
        pos = match.end()
        options: Dict[str, object] = {}
        if pos < len(text) and text[pos] == "{":
            end = _matching_brace(text, pos)
            body = text[pos + 1 : end]
            for item in filter(None, (s.strip() for s in _split_options(body))):
                if "=" not in item:
                    raise PassError(f"malformed pass option {item!r}")
                key, _, value = item.partition("=")
                options[key.strip()] = _coerce(value.strip())
            pos = end + 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
        result.append((name, options))
        if pos < len(text):
            if text[pos] != ",":
                raise PassError(f"expected ',' in pipeline at {text[pos:]!r}")
            pos += 1
    return result


def _matching_brace(text: str, start: int) -> int:
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise PassError(f"unbalanced '{{' in pipeline at {text[start:]!r}")


def _split_options(body: str) -> List[str]:
    """Split on commas not nested inside braces."""
    items: List[str] = []
    depth = 0
    current = []
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    items.append("".join(current))
    return items


def _coerce(value: str):
    if re.fullmatch(r"-?\d+", value):
        return int(value)
    if value in ("true", "false"):
        return value == "true"
    return value

