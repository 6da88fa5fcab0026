"""Source-size measurement for the §VI-C implementation-effort comparison.

The paper argues the EQueue approach needs far less code to switch
dataflows than a one-off simulator: SCALE-Sim implements WS in 569 LOC and
changes 410 LOC for IS, while the paper's EQueue generator is 281 LOC with
an 11-line delta.  This module measures the equivalent numbers for *this*
repository: the size of our systolic generator and the number of
dataflow-conditional lines in it (the code that would change when switching
dataflows — everything else is shared).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path


def measure_loc(path: Path) -> int:
    """Non-blank, non-comment source lines."""
    count = 0
    in_docstring = False
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_docstring:
            if '"""' in line:
                in_docstring = False
            continue
        if line.startswith('"""') or line.startswith("r'''"):
            if not (line.count('"""') == 2):
                in_docstring = True
            continue
        if line.startswith("#"):
            continue
        count += 1
    return count


@dataclass
class GeneratorLOCReport:
    """Measured effort numbers for our systolic generator."""

    total_loc: int
    dataflow_conditional_loc: int  # lines under WS/IS/OS-specific branches

    @property
    def shared_loc(self) -> int:
        return self.total_loc - self.dataflow_conditional_loc


_DATAFLOW_BRANCH = re.compile(
    r'dataflow\s*(==|in)\s*|"(WS|IS|OS)"|\'(WS|IS|OS)\''
)


def generator_loc_report() -> GeneratorLOCReport:
    """Measure the systolic generator's size and dataflow-specific delta.

    The "delta" counts lines inside branches keyed on the dataflow — the
    code that distinguishes WS from IS from OS.  Switching dataflow in this
    repository changes **one constructor argument**; the conditional lines
    are the entire per-dataflow implementation surface.
    """
    from ..generators import systolic

    source_path = Path(systolic.__file__)
    total = measure_loc(source_path)

    conditional = 0
    in_branch = False
    branch_indent = 0
    for raw in source_path.read_text(encoding="utf-8").splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip())
        if in_branch:
            if indent > branch_indent:
                conditional += 1
                continue
            in_branch = False
        if stripped.startswith(("if", "elif", "else")) and _DATAFLOW_BRANCH.search(
            stripped
        ):
            in_branch = True
            branch_indent = indent
            conditional += 1
    return GeneratorLOCReport(
        total_loc=total, dataflow_conditional_loc=conditional
    )

