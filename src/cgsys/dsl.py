"""Loader and writer for the system-definition file format.

Files are UTF-8, INI-like: ``[section]`` headers, ``key = value`` entries
and ``#`` comment lines.  Expression lists are separated by ``;`` (commas
appear inside atan2 calls).  Sections:

* ``[chart]``   - complex_dim, optional coordinate names
* ``[system]``  - k, field_i (2N components each), grad_i, optional domain
* ``[cr_data]`` - either an explicit parametrization (params, sigma,
  field_i as ambient expressions) or matrix-group data (matrix_dim, base,
  basis_i, embed), plus optional base_params and param_domain
* ``[oracle]``  - closed-form field_i and grad_i to compare a
  reconstruction against
* ``[config]``  - numeric defaults (seed, points, tol, steps_per_unit,
  newton_tol, grid, u_extent)

The built-in gallery ships as data files inside the package, so the file
path is exercised by everything that runs a gallery system.  The full
format reference lives in docs/format.md.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cauchy import CRInitialData
from .expr import Expr, ParseError, parse_expr, to_string
from .flow import MatrixGroupSpec
from .geometry import ComplexChart, VectorField
from .verify import GradientSystem

__all__ = [
    "SystemFile", "LoadError", "load", "loads", "save", "dumps",
    "builtin_names", "load_builtin", "builtin_text",
]

BUILTINS = (
    "line", "line-alt", "heisenberg", "affine", "model-k1",
    "model-k1-rotated", "heisenberg-cr", "broken-demo", "non-transverse-demo",
)

_CONFIG_KEYS = {
    "seed": int, "points": int, "tol": float, "cauchy_tol": float,
    "steps_per_unit": int, "newton_tol": float, "grid": int, "u_extent": float,
}

_SYSTEM_KEYS = {"k", "domain"}
_CR_KEYS = {"params", "sigma", "matrix_dim", "base", "embed",
            "base_params", "param_domain"}
_CHART_KEYS = {"complex_dim", "names"}


class LoadError(ValueError):
    """Malformed system file; message carries section/key/line context."""

    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)
        self.line = line


@dataclass
class SystemFile:
    """A parsed and cross-validated system definition."""

    name: str
    chart: ComplexChart
    system: GradientSystem | None = None
    cr: CRInitialData | None = None
    oracle: tuple[tuple[Expr, ...], tuple[VectorField, ...]] | None = None
    config: dict = field(default_factory=dict)
    text: str = ""


def _split_sections(text: str):
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise LoadError(f"duplicate section [{current}]", lineno)
            sections[current] = []
            continue
        if current is None:
            raise LoadError("content before any [section] header", lineno)
        if "=" not in line:
            raise LoadError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        sections[current].append((lineno, key.strip(), value.strip()))
    return sections


def _as_table(entries, section):
    table = {}
    lines = {}
    for lineno, key, value in entries:
        if key in table:
            raise LoadError(f"duplicate key '{key}' in [{section}]", lineno)
        table[key] = value
        lines[key] = lineno
    return table, lines


def _parse_expr_here(text, section, key, lineno) -> Expr:
    try:
        return parse_expr(text)
    except ParseError as err:
        raise LoadError(
            f"[{section}] {key}: {err.args[0]} in {text!r}", lineno) from None


def _expr_list(text, section, key, lineno):
    return tuple(_parse_expr_here(part.strip(), section, key, lineno)
                 for part in text.split(";"))


def _indexed_values(table, lines, prefix, section):
    """Collect field_1..field_m style keys in order, rejecting gaps."""
    out = []
    i = 1
    while f"{prefix}_{i}" in table:
        out.append((table[f"{prefix}_{i}"], lines[f"{prefix}_{i}"]))
        i += 1
    for key in table:
        if key.startswith(prefix + "_"):
            try:
                idx = int(key[len(prefix) + 1:])
            except ValueError:
                raise LoadError(f"bad key '{key}' in [{section}]", lines[key]) from None
            if idx < 1 or idx > len(out):
                raise LoadError(
                    f"[{section}] {prefix} indices must be 1..m without gaps",
                    lines[key])
    return out


def _parse_matrix(text, section, key, lineno) -> np.ndarray:
    rows = []
    for chunk in text.split("/"):
        try:
            rows.append([float(tok) for tok in chunk.split()])
        except ValueError:
            raise LoadError(f"[{section}] {key}: bad matrix entry", lineno) from None
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise LoadError(f"[{section}] {key}: ragged matrix rows", lineno)
    return np.array(rows)


def _load_chart(sections) -> ComplexChart:
    if "chart" not in sections:
        raise LoadError("missing [chart] section")
    table, lines = _as_table(sections["chart"], "chart")
    for key in table:
        if key not in _CHART_KEYS:
            raise LoadError(f"unknown key '{key}' in [chart]", lines[key])
    if "complex_dim" not in table:
        raise LoadError("[chart] needs complex_dim")
    try:
        n = int(table["complex_dim"])
    except ValueError:
        raise LoadError("[chart] complex_dim must be an integer",
                        lines["complex_dim"]) from None
    if "names" in table:
        names = tuple(table["names"].split())
        chart = ComplexChart(names)
        if chart.N != n:
            raise LoadError(
                f"[chart] names give complex dimension {chart.N}, not {n}",
                lines["names"])
        return chart
    return ComplexChart.standard(n)


def _load_system(sections, chart, name) -> GradientSystem | None:
    if "system" not in sections:
        return None
    table, lines = _as_table(sections["system"], "system")
    fields_raw = _indexed_values(table, lines, "field", "system")
    grads_raw = _indexed_values(table, lines, "grad", "system")
    known = (_SYSTEM_KEYS | {f"field_{i + 1}" for i in range(len(fields_raw))}
             | {f"grad_{i + 1}" for i in range(len(grads_raw))})
    for key in table:
        if key not in known:
            raise LoadError(f"unknown key '{key}' in [system]", lines[key])
    if "k" not in table:
        raise LoadError("[system] needs k")
    k = int(table["k"])
    if len(fields_raw) != k or len(grads_raw) != k:
        raise LoadError(
            f"[system] declares k = {k} but has {len(fields_raw)} fields "
            f"and {len(grads_raw)} gradient components")
    vfields = []
    for i, (text, lineno) in enumerate(fields_raw):
        comps = _expr_list(text, "system", f"field_{i + 1}", lineno)
        if len(comps) != chart.dim:
            raise LoadError(
                f"[system] field_{i + 1} has {len(comps)} components, "
                f"chart needs {chart.dim}", lineno)
        try:
            vfields.append(VectorField(chart, comps))
        except ValueError as err:
            raise LoadError(f"[system] field_{i + 1}: {err}", lineno) from None
    grads = tuple(_parse_expr_here(t, "system", f"grad_{i + 1}", ln)
                  for i, (t, ln) in enumerate(grads_raw))
    domain = ()
    if "domain" in table:
        domain = _expr_list(table["domain"], "system", "domain", lines["domain"])
    try:
        return GradientSystem(chart, tuple(vfields), grads, domain, name)
    except ValueError as err:
        raise LoadError(f"[system]: {err}") from None


def _load_cr(sections, chart, name) -> CRInitialData | None:
    if "cr_data" not in sections:
        return None
    table, lines = _as_table(sections["cr_data"], "cr_data")
    fields_raw = _indexed_values(table, lines, "field", "cr_data")
    basis_raw = _indexed_values(table, lines, "basis", "cr_data")
    known = (_CR_KEYS | {f"field_{i + 1}" for i in range(len(fields_raw))}
             | {f"basis_{i + 1}" for i in range(len(basis_raw))})
    for key in table:
        if key not in known:
            raise LoadError(f"unknown key '{key}' in [cr_data]", lines[key])

    param_domain = ()
    base_params = None

    if "matrix_dim" in table:
        if fields_raw or "params" in table or "sigma" in table:
            raise LoadError("[cr_data] mixes matrix-group and explicit data")
        m = int(table["matrix_dim"])
        if "base" not in table or "embed" not in table or not basis_raw:
            raise LoadError("[cr_data] matrix data needs base, embed, basis_i")
        base = _parse_matrix(table["base"], "cr_data", "base", lines["base"])
        if base.shape != (m, m):
            raise LoadError(f"[cr_data] base must be {m}x{m}", lines["base"])
        basis = []
        for i, (text, lineno) in enumerate(basis_raw):
            E = _parse_matrix(text, "cr_data", f"basis_{i + 1}", lineno)
            if E.shape != (m, m):
                raise LoadError(f"[cr_data] basis_{i + 1} must be {m}x{m}", lineno)
            basis.append(E)
        positions = []
        for chunk in table["embed"].split(";"):
            toks = chunk.split()
            if len(toks) != 2:
                raise LoadError("[cr_data] embed entries are 'row col' pairs",
                                lines["embed"])
            positions.append((int(toks[0]) - 1, int(toks[1]) - 1))
        if len(positions) != chart.N:
            raise LoadError(
                f"[cr_data] embed needs {chart.N} positions", lines["embed"])
        try:
            spec = MatrixGroupSpec(chart, base, tuple(positions), tuple(basis))
        except ValueError as err:
            raise LoadError(f"[cr_data]: {err}") from None
        if "param_domain" in table:
            param_domain = _expr_list(table["param_domain"], "cr_data",
                                      "param_domain", lines["param_domain"])
        if "base_params" in table:
            base_params = np.array([
                float(tok.strip()) for tok in table["base_params"].split(";")])
        return CRInitialData.from_group(spec, param_domain=param_domain,
                                        base_params=base_params, name=name)

    if "params" not in table or "sigma" not in table or not fields_raw:
        raise LoadError("[cr_data] needs params, sigma and field_i "
                        "(or matrix-group keys)")
    params = tuple(table["params"].replace(";", " ").split())
    sigma = _expr_list(table["sigma"], "cr_data", "sigma", lines["sigma"])
    if len(sigma) != chart.dim:
        raise LoadError(
            f"[cr_data] sigma has {len(sigma)} components, chart needs "
            f"{chart.dim}", lines["sigma"])
    vfields = []
    for i, (text, lineno) in enumerate(fields_raw):
        comps = _expr_list(text, "cr_data", f"field_{i + 1}", lineno)
        if len(comps) != chart.dim:
            raise LoadError(
                f"[cr_data] field_{i + 1} has {len(comps)} components, "
                f"chart needs {chart.dim}", lineno)
        vfields.append(VectorField(chart, comps))
    if "param_domain" in table:
        param_domain = _expr_list(table["param_domain"], "cr_data",
                                  "param_domain", lines["param_domain"])
    if "base_params" in table:
        base_params = np.array([
            float(tok.strip()) for tok in table["base_params"].split(";")])
    try:
        return CRInitialData(
            chart=chart, k=len(vfields), param_names=params, sigma=sigma,
            ambient_fields=tuple(vfields), param_domain=param_domain,
            base_params=base_params, name=name)
    except ValueError as err:
        raise LoadError(f"[cr_data]: {err}") from None


def _load_oracle(sections, chart):
    if "oracle" not in sections:
        return None
    table, lines = _as_table(sections["oracle"], "oracle")
    fields_raw = _indexed_values(table, lines, "field", "oracle")
    grads_raw = _indexed_values(table, lines, "grad", "oracle")
    known = ({f"field_{i + 1}" for i in range(len(fields_raw))}
             | {f"grad_{i + 1}" for i in range(len(grads_raw))})
    for key in table:
        if key not in known:
            raise LoadError(f"unknown key '{key}' in [oracle]", lines[key])
    vfields = []
    for i, (text, lineno) in enumerate(fields_raw):
        comps = _expr_list(text, "oracle", f"field_{i + 1}", lineno)
        if len(comps) != chart.dim:
            raise LoadError(f"[oracle] field_{i + 1} has wrong component count",
                            lineno)
        vfields.append(VectorField(chart, comps))
    grads = tuple(_parse_expr_here(t, "oracle", f"grad_{i + 1}", ln)
                  for i, (t, ln) in enumerate(grads_raw))
    return grads, tuple(vfields)


def _load_config(sections) -> dict:
    if "config" not in sections:
        return {}
    table, lines = _as_table(sections["config"], "config")
    out = {}
    for key, value in table.items():
        if key not in _CONFIG_KEYS:
            raise LoadError(f"unknown key '{key}' in [config]", lines[key])
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise LoadError(f"[config] {key}: bad value {value!r}",
                            lines[key]) from None
    return out


def loads(text: str, name: str = "<string>") -> SystemFile:
    """Parse a system definition from a string."""
    sections = _split_sections(text)
    for section in sections:
        if section not in ("chart", "system", "cr_data", "oracle", "config"):
            raise LoadError(f"unknown section [{section}]")
    chart = _load_chart(sections)
    return SystemFile(
        name=name,
        chart=chart,
        system=_load_system(sections, chart, name),
        cr=_load_cr(sections, chart, name),
        oracle=_load_oracle(sections, chart),
        config=_load_config(sections),
        text=text,
    )


def load(path) -> SystemFile:
    """Parse a system definition file."""
    p = Path(path)
    return loads(p.read_text(encoding="utf-8"), name=p.stem)


def builtin_names() -> tuple[str, ...]:
    """The shipped gallery, in stable listing order."""
    return BUILTINS


def builtin_text(name: str) -> str:
    if name not in BUILTINS:
        raise LoadError(f"unknown builtin system '{name}'")
    res = importlib.resources.files("cgsys").joinpath(f"gallery/{name}.cgs")
    return res.read_text(encoding="utf-8")


def load_builtin(name: str) -> SystemFile:
    sf = loads(builtin_text(name), name=name)
    return sf


def _fmt_exprs(exprs) -> str:
    return "; ".join(to_string(e) for e in exprs)


def _fmt_matrix(M) -> str:
    return " / ".join(" ".join(repr(float(v)) for v in row) for row in np.asarray(M))


def dumps(sf: SystemFile) -> str:
    """Serialize back to the file format; reloading reproduces the model."""
    out = [f"# {sf.name}", "", "[chart]", f"complex_dim = {sf.chart.N}",
           f"names = {' '.join(sf.chart.names)}", ""]
    if sf.system is not None:
        out.append("[system]")
        out.append(f"k = {sf.system.k}")
        for i, f in enumerate(sf.system.fields):
            out.append(f"field_{i + 1} = {_fmt_exprs(f.components)}")
        for i, g in enumerate(sf.system.grads):
            out.append(f"grad_{i + 1} = {to_string(g)}")
        if sf.system.domain:
            out.append(f"domain = {_fmt_exprs(sf.system.domain)}")
        out.append("")
    if sf.cr is not None:
        out.append("[cr_data]")
        if sf.cr.group is not None:
            spec = sf.cr.group
            out.append(f"matrix_dim = {spec.matrix_dim}")
            out.append(f"base = {_fmt_matrix(spec.base.real)}")
            for i, E in enumerate(spec.basis):
                out.append(f"basis_{i + 1} = {_fmt_matrix(E)}")
            out.append("embed = " + "; ".join(
                f"{r + 1} {c + 1}" for r, c in spec.positions))
        else:
            out.append("params = " + "; ".join(sf.cr.param_names))
            out.append(f"sigma = {_fmt_exprs(sf.cr.sigma)}")
            for i, f in enumerate(sf.cr.ambient_fields):
                out.append(f"field_{i + 1} = {_fmt_exprs(f.components)}")
        if sf.cr.param_domain:
            out.append(f"param_domain = {_fmt_exprs(sf.cr.param_domain)}")
        if sf.cr.base_params is not None:
            out.append("base_params = " + "; ".join(
                repr(float(v)) for v in sf.cr.base_params))
        out.append("")
    if sf.oracle is not None:
        grads, fields = sf.oracle
        out.append("[oracle]")
        for i, f in enumerate(fields):
            out.append(f"field_{i + 1} = {_fmt_exprs(f.components)}")
        for i, g in enumerate(grads):
            out.append(f"grad_{i + 1} = {to_string(g)}")
        out.append("")
    if sf.config:
        out.append("[config]")
        for key in sorted(sf.config):
            out.append(f"{key} = {sf.config[key]}")
        out.append("")
    return "\n".join(out)


def save(sf: SystemFile, path) -> None:
    Path(path).write_text(dumps(sf), encoding="utf-8")
