"""Loader and writer for the system-definition file format.

Files are UTF-8 (a leading byte-order mark is skipped), INI-like:
``[section]`` headers, ``key = value`` entries and ``#`` comment lines.
Expression lists are separated by ``;`` (commas appear inside atan2
calls).  Sections:

* ``[chart]``   - complex_dim, optional coordinate names
* ``[system]``  - k, field_i (2N components each), grad_i, optional domain
* ``[cr_data]`` - either an explicit parametrization (params, sigma,
  field_i as ambient expressions) or matrix-group data (matrix_dim, base,
  basis_i, embed), plus optional base_params and param_domain
* ``[oracle]``  - closed-form field_i and grad_i to compare a
  reconstruction against
* ``[config]``  - default settings, the keys of ``SETTINGS``

One spec table (``_SECTIONS``) gives each section's fixed keys and indexed
prefixes; one reader (``_Section``) rejects duplicate, unknown and gapped
keys and reports every ``ValueError`` raised while converting a value or
building a model as a ``LoadError`` naming the section, the key and the
line; so is an expression nested, or a tree, deeper than ``MAX_DEPTH``
(``expr.MAX_DEPTH`` = 64; the gallery's deepest is 10), which bounds every
recursive walk of an input tree and of its derivatives.  The models
(``ComplexChart``, ``VectorField``, ``GradientSystem``,
``MatrixGroupSpec``, ``CRInitialData``) check their own invariants; the
loader keeps only the rules that join keys or sections.  ``SETTINGS`` holds
the checked converter of each setting, shared with the CLI flags.

The built-in gallery ships as data files inside the package, so the file
path is exercised by everything that runs a gallery system.  The full
format reference lives in docs/format.md.
"""

from __future__ import annotations

import importlib.resources
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .cauchy import ClosedForms, CRInitialData
from .expr import MAX_DEPTH, Expr, ParseError, depth, parse_expr, to_string
from .flow import MatrixGroupSpec
from .geometry import ComplexChart, VectorField
from .verify import GradientSystem

__all__ = [
    "SystemFile", "LoadError", "SETTINGS", "MAX_COMPLEX_DIM", "MAX_ROWS",
    "MAX_STEPS_PER_UNIT", "check_rows",
    "load", "loads", "save", "dumps", "builtin_names", "load_builtin", "builtin_text",
]

BUILTINS = (
    "line", "line-alt", "heisenberg", "affine", "model-k1",
    "model-k1-rotated", "heisenberg-cr", "broken-demo", "non-transverse-demo",
)


def _rule(convert, ok, wanted: str):
    def check(raw):
        value = convert(raw)
        if not ok(value):
            raise ValueError(f"must be {wanted}, got {raw}")
        return value
    return check


_COUNT = _rule(int, lambda n: n >= 1, "an integer >= 1")
_POSITIVE = _rule(float, lambda v: 0 < v < math.inf, "a finite number > 0")

# the largest [chart] complex_dim; the gallery's largest is 3, and the
# symbolic tables grow with a power of the dimension
MAX_COMPLEX_DIM = 64
_COMPLEX_DIM = _rule(int, lambda n: n <= MAX_COMPLEX_DIM,
                     f"an integer <= {MAX_COMPLEX_DIM}")

# the most system texts ``loads`` keeps built at once, with their tapes; the
# gallery holds 9 and each benchmark workload loads 2 to 6
LOAD_CACHE_SIZE = 64

# the most rows one run evaluates: sample points (verify), queries, grid^k
# (cauchy) or profile cells, grid^2 (normal-form); the largest in use are
# normal-form --grid 300 (90,000 cells) and grid 21 at k = 3 (9,261 queries)
MAX_ROWS = 100_000


# the most Runge-Kutta steps per unit of flow time: 32 times the default of
# 32, and twice the largest in use (512).  At flow.MAX_TIME = 16 a flow
# row takes at most 16 * 1,024 = 16,384 steps of 12 stages, 196,608 tape calls
MAX_STEPS_PER_UNIT = 1_024


def check_rows(count: int, what: str) -> int:
    """``count`` if it is at most MAX_ROWS, else a LoadError naming ``what``;
    checked before a run allocates anything of that size."""
    if count > MAX_ROWS:
        raise LoadError(f"{what}: {count} rows, more than MAX_ROWS = {MAX_ROWS}")
    return count


# setting -> checked converter; the keys of [config] and the values of the
# CLI flags that override them
SETTINGS = {
    "seed": _rule(int, lambda n: n >= 0, "an integer >= 0"),
    "points": _COUNT,
    "grid": _COUNT,
    "steps_per_unit": _rule(int, lambda n: 1 <= n <= MAX_STEPS_PER_UNIT,
                            f"an integer from 1 to MAX_STEPS_PER_UNIT = {MAX_STEPS_PER_UNIT}"),
    "tol": _POSITIVE,
    "cauchy_tol": _POSITIVE,
    "newton_tol": _POSITIVE,
    "u_extent": _rule(float, lambda v: 0 <= v < math.inf, "a finite number >= 0"),
}

# section -> (fixed keys, prefixes of the indexed keys prefix_1..prefix_m)
_SECTIONS = {
    "chart": ({"complex_dim", "names"}, ()),
    "system": ({"k", "domain"}, ("field", "grad")),
    "cr_data": ({"params", "sigma", "matrix_dim", "base", "embed",
                 "base_params", "param_domain"}, ("field", "basis")),
    "oracle": ((), ("field", "grad")),
    "config": (SETTINGS, ()),
}


class LoadError(ValueError):
    """Malformed system file; message carries section/key/line context."""

    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)
        self.line = line


@dataclass(frozen=True, eq=False)
class SystemFile:
    """A parsed and cross-validated system definition, immutable: ``loads``
    hands one to every caller of the same text, so ``config`` is a read-only
    mapping and the arrays it holds are read-only."""

    name: str
    chart: ComplexChart
    system: GradientSystem | None = None
    cr: CRInitialData | None = None
    oracle: ClosedForms | None = None
    config: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))
    text: str = ""


_REQUIRED = object()


class _Section:
    """The entries of one section, checked against its spec as they arrive."""

    def __init__(self, name: str):
        self.name = name
        self.keys, self.prefixes = _SECTIONS[name]
        self.entries: dict[str, tuple[str, int]] = {}   # key -> (value, line)
        self.indexed: dict[str, list[str]] = {}          # prefix -> keys

    def add(self, key: str, value: str, line: int) -> None:
        if key in self.entries:
            raise LoadError(f"duplicate key '{key}' in [{self.name}]", line)
        prefix, _, index = key.rpartition("_")
        if prefix in self.prefixes and index.isdecimal():
            self.indexed.setdefault(prefix, []).append(key)
        elif key not in self.keys:
            raise LoadError(f"unknown key '{key}' in [{self.name}]", line)
        self.entries[key] = (value, line)

    def has(self, name: str) -> bool:
        """Whether the key ``name``, or an indexed key name_i, is present."""
        return name in self.entries or name in self.indexed

    def line(self, key: str | None) -> int | None:
        return self.entries[key][1] if key in self.entries else None

    @contextmanager
    def blame(self, key: str | None = None):
        """Report a ValueError raised inside as a LoadError of this section,
        and of ``key`` and its line when given."""
        try:
            yield
        except LoadError:
            raise
        except ValueError as err:
            where = f"[{self.name}] {key}" if key else f"[{self.name}]"
            raise LoadError(f"{where}: {err}", self.line(key)) from None

    def read(self, key: str, convert, default=_REQUIRED):
        """``convert(value)`` of ``key``; ``default`` when absent, which
        without a default is an error."""
        if key not in self.entries:
            if default is _REQUIRED:
                raise LoadError(f"[{self.name}] needs {key}")
            return default
        with self.blame(key):
            return convert(self.entries[key][0])

    def items(self, prefix: str, convert) -> tuple:
        """The converted values of prefix_1..prefix_m, which must have no gaps."""
        keys = self.indexed.get(prefix, [])
        wanted = [f"{prefix}_{i}" for i in range(1, len(keys) + 1)]
        for key in keys:
            if key not in wanted:
                raise LoadError(f"[{self.name}] {prefix} indices must be "
                                "1..m without gaps", self.line(key))
        return tuple(self.read(key, convert) for key in wanted)

    def fields(self, chart: ComplexChart) -> tuple[VectorField, ...]:
        """field_1..field_m, each 2N component expressions on ``chart``."""
        return self.items("field", lambda text: VectorField(chart, _exprs(text)))


def _split_sections(text: str) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise LoadError(f"duplicate section [{name}]", lineno)
            if name not in _SECTIONS:
                raise LoadError(f"unknown section [{name}]", lineno)
            current = sections[name] = _Section(name)
            continue
        if current is None:
            raise LoadError("content before any [section] header", lineno)
        if "=" not in line:
            raise LoadError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        current.add(key.strip(), value.strip(), lineno)
    return sections


def _expr(text: str) -> Expr:
    try:
        e = parse_expr(text.strip())
    except ParseError as err:
        raise ValueError(f"{err} in {text.strip()!r}") from None
    if (d := depth(e)) > MAX_DEPTH:
        raise ValueError(f"expression of depth {d} is deeper than MAX_DEPTH = {MAX_DEPTH}")
    return e


def _exprs(text: str) -> tuple[Expr, ...]:
    return tuple(map(_expr, text.split(";")))


def _names(text: str) -> tuple[str, ...]:
    return tuple(text.replace(";", " ").split())


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _numbers(text: str) -> np.ndarray:
    return _readonly(np.array([float(tok) for tok in text.split(";")]))


def _matrix(text: str) -> np.ndarray:
    rows = [[float(tok) for tok in chunk.split()] for chunk in text.split("/")]
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged matrix rows")
    if not np.all(np.isfinite(rows)):
        raise ValueError("matrix entries must be finite numbers")
    return _readonly(np.array(rows))


def _positions(text: str) -> tuple[tuple[int, int], ...]:
    pairs = [chunk.split() for chunk in text.split(";")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("embed entries are 'row col' pairs")
    return tuple((int(r) - 1, int(c) - 1) for r, c in pairs)


def _load_chart(sec: _Section) -> ComplexChart:
    n = sec.read("complex_dim", _COMPLEX_DIM)
    names = sec.read("names", _names, None)
    with sec.blame("complex_dim" if names is None else "names"):
        chart = ComplexChart.standard(n) if names is None else ComplexChart(names)
    if chart.N != n:
        raise LoadError(f"[chart] names give complex dimension {chart.N}, not {n}",
                        sec.line("names"))
    return chart


def _load_system(sec: _Section, chart: ComplexChart, name: str) -> GradientSystem:
    k = sec.read("k", int)
    fields, grads = sec.fields(chart), sec.items("grad", _expr)
    if len(fields) != k or len(grads) != k:
        raise LoadError(
            f"[system] declares k = {k} but has {len(fields)} fields "
            f"and {len(grads)} gradient components", sec.line("k"))
    with sec.blame():
        return GradientSystem(chart, fields, grads, sec.read("domain", _exprs, ()),
                              name)


def _load_cr(sec: _Section, chart: ComplexChart, name: str) -> CRInitialData:
    group = sec.has("matrix_dim")
    if any(map(sec.has, ("params", "sigma", "field") if group
               else ("base", "embed", "basis"))):
        raise LoadError("[cr_data] mixes matrix-group and explicit data")
    shared = dict(param_domain=sec.read("param_domain", _exprs, ()),
                  base_params=sec.read("base_params", _numbers, None), name=name)
    with sec.blame():
        if not group:
            fields = sec.fields(chart)
            return CRInitialData(
                chart=chart, k=len(fields), param_names=sec.read("params", _names),
                sigma=sec.read("sigma", _exprs), ambient_fields=fields, **shared)
        m = sec.read("matrix_dim", int)
        base = sec.read("base", _matrix)
        if base.shape != (m, m):
            raise LoadError(f"[cr_data] base must be {m}x{m}", sec.line("base"))
        spec = MatrixGroupSpec(chart, base, sec.read("embed", _positions),
                               sec.items("basis", _matrix))
        return CRInitialData.from_group(spec, **shared)


def _load_oracle(sec: _Section, chart: ComplexChart, cr: CRInitialData | None):
    # the closed forms make a gradient system of their own, which checks them
    with sec.blame():
        closed = GradientSystem(chart, sec.fields(chart), sec.items("grad", _expr))
    if cr is not None and closed.k != cr.k:
        raise LoadError(f"[oracle] has {closed.k} fields, [cr_data] has k = {cr.k}")
    return ClosedForms((closed.grads, closed.fields))


@lru_cache(maxsize=LOAD_CACHE_SIZE)
def loads(text: str, name: str = "<string>") -> SystemFile:
    """Parse a system definition from a string.

    The result is shared: every call with the same ``text`` and ``name``
    returns one immutable SystemFile, kept for the LOAD_CACHE_SIZE (64)
    texts loaded most recently, so what its models build on first use (the
    compiled check tables, predicates and flow tapes) is built once per
    process.  A text that does not load raises its LoadError at every call."""
    sections = _split_sections(text)
    if "chart" not in sections:
        raise LoadError("missing [chart] section")
    chart = _load_chart(sections["chart"])
    system = cr = oracle = None
    config = {}
    if "system" in sections:
        system = _load_system(sections["system"], chart, name)
    if "cr_data" in sections:
        cr = _load_cr(sections["cr_data"], chart, name)
    if "oracle" in sections:
        oracle = _load_oracle(sections["oracle"], chart, cr)
    if "config" in sections:
        sec = sections["config"]
        config = {key: sec.read(key, SETTINGS[key]) for key in sec.entries}
    return SystemFile(name=name, chart=chart, system=system, cr=cr,
                      oracle=oracle, config=MappingProxyType(config), text=text)


def load(path) -> SystemFile:
    """Parse a system definition file, UTF-8 with or without a byte-order
    mark: ``loads`` of its text, named by the file's stem, so the same
    shared, immutable SystemFile per (text, name)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise LoadError(f"cannot read {p}: {err}") from None
    return loads(text, name=p.stem)


def builtin_names() -> tuple[str, ...]:
    """The shipped gallery, in stable listing order."""
    return BUILTINS


def builtin_text(name: str) -> str:
    if name not in BUILTINS:
        raise LoadError(f"unknown builtin system '{name}'")
    res = importlib.resources.files("cgsys").joinpath(f"gallery/{name}.cgs")
    return res.read_text(encoding="utf-8")


def load_builtin(name: str) -> SystemFile:
    return loads(builtin_text(name), name=name)


def _fmt_exprs(exprs) -> str:
    return "; ".join(to_string(e) for e in exprs)


def _fmt_matrix(M) -> str:
    return " / ".join(" ".join(repr(float(v)) for v in row) for row in np.asarray(M))


def _indexed(prefix: str, items, fmt) -> list[str]:
    """The entries prefix_1 .. prefix_m of ``items``, each formatted by fmt."""
    return [f"{prefix}_{i} = {fmt(v)}" for i, v in enumerate(items, start=1)]


def _fmt_field(f: VectorField) -> str:
    return _fmt_exprs(f.components)


def dumps(sf: SystemFile) -> str:
    """Serialize back to the file format; reloading reproduces the model."""
    out = [f"# {sf.name}", "", "[chart]", f"complex_dim = {sf.chart.N}",
           f"names = {' '.join(sf.chart.names)}", ""]
    if sf.system is not None:
        out += ["[system]", f"k = {sf.system.k}",
                *_indexed("field", sf.system.fields, _fmt_field),
                *_indexed("grad", sf.system.grads, to_string)]
        if sf.system.domain:
            out.append(f"domain = {_fmt_exprs(sf.system.domain)}")
        out.append("")
    if sf.cr is not None:
        out.append("[cr_data]")
        if sf.cr.group is not None:
            spec = sf.cr.group
            out += [f"matrix_dim = {spec.matrix_dim}",
                    f"base = {_fmt_matrix(spec.base.real)}",
                    *_indexed("basis", spec.basis, _fmt_matrix),
                    "embed = " + "; ".join(f"{r + 1} {c + 1}" for r, c in spec.positions)]
        else:
            out += ["params = " + "; ".join(sf.cr.param_names),
                    f"sigma = {_fmt_exprs(sf.cr.sigma)}",
                    *_indexed("field", sf.cr.ambient_fields, _fmt_field)]
        if sf.cr.param_domain:
            out.append(f"param_domain = {_fmt_exprs(sf.cr.param_domain)}")
        if sf.cr.base_params is not None:
            out.append("base_params = " + "; ".join(
                repr(float(v)) for v in sf.cr.base_params))
        out.append("")
    if sf.oracle is not None:
        grads, fields = sf.oracle
        out += ["[oracle]", *_indexed("field", fields, _fmt_field),
                *_indexed("grad", grads, to_string), ""]
    if sf.config:
        out += ["[config]", *(f"{k} = {sf.config[k]}" for k in sorted(sf.config)), ""]
    return "\n".join(out)


def save(sf: SystemFile, path) -> None:
    Path(path).write_text(dumps(sf), encoding="utf-8")
