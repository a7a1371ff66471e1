"""CSV and manifest emission for command-line runs.

Every number is written as its shortest round-trip decimal (Python repr),
and nothing time- or host-dependent goes into a file, so a fixed config
and seed produce byte-identical artifacts. Wall-clock timings belong to
stdout, never to the report files.

Tables are streamed to the open file; the whole file is never held as
one string. All-float tables (the forward field, the decompose profile,
the reconstruction) are written in blocks of at most shortest.CELLS cells
by the numpy kernel of parastab.shortest, whose bytes equal repr's cell
for cell (the cells it does not spell, such as those below 2**-37 in
magnitude, go through repr itself). Rows
that mix floats with integers, booleans or labels (sweep, probe and rate
tables) are written a row at a time through fmt.
The manifest is written from the run's parts as they are: the config
mapping, artifact names, summary numbers and warning texts.
"""
from __future__ import annotations

import numpy as np

from .config import canonical_echo, config_hash

MANIFEST_NAME = "manifest.txt"


def fmt(value) -> str:
    """CSV cell text: shortest round-trip decimals, lowercase booleans."""
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # repr spells the specials nan, inf and -inf already
        return repr(float(value))
    return str(value)


def _write_table(path: str, header, rows) -> None:
    """Header line, then one line per row, each cell spelled by fmt."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(fmt, row)) + "\n")


def _write_floats(path: str, header, table: np.ndarray) -> None:
    """Header line, then the rows of a 2-D float64 table, each cell as
    repr spells it. Blocks of at most shortest.CELLS cells are whole rows,
    or parts of one row when a row is longer; one set of working arrays
    serves every block."""
    # imported here: runs that write no all-float table (rate, the probes,
    # the audit) neither compile the kernel nor build its tables
    from . import shortest
    nrows, ncols = table.shape
    rows = max(1, shortest.CELLS // ncols)
    cols = min(ncols, shortest.CELLS)
    blocks = shortest.Blocks(max(1, min(rows * cols, table.size)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for r0 in range(0, nrows, rows):
            for c0 in range(0, ncols, cols):
                fh.write(blocks.spell(table[r0:r0 + rows, c0:c0 + cols],
                                      c0 + cols >= ncols))


def _float_columns(*columns) -> np.ndarray:
    """Columns side by side, cut to the shortest one as zip would."""
    n = min(len(c) for c in columns)
    return np.column_stack([np.asarray(c, dtype=float)[:n] for c in columns])


def write_field_csv(path: str, u) -> None:
    """Solution matrix: rows are time indices, columns space indices.

    The first row is a metadata header carrying the grid parameters.
    """
    domain, window = u.domain, u.window
    header = [f"h={fmt(domain.h)}", f"k={fmt(window.k)}",
              f"T={fmt(window.T)}", f"delta0={fmt(window.delta0)}",
              f"delta1={fmt(window.delta1)}"]
    _write_floats(path, header, u.values.T)


def write_sweep_csv(path: str, rows) -> None:
    header = ["s", "p", "lhs", "rhs", "ratio", "boundary_mode", "lambda",
              "delta1", "flag"]
    _write_table(path, header,
                [(r.s, r.p, r.lhs, r.rhs, r.ratio, r.boundary_mode, r.lam,
                  r.delta1, r.flag) for r in rows])


def write_probe_csv(path: str, rows) -> None:
    header = ["member_id", "param", "f_norm_or_g_norm", "combined_norm",
              "ratio_or_product", "mesh_level", "flag"]
    _write_table(path, header,
                [(r.member_id, r.param, r.data_norm, r.combined_norm,
                  r.value, r.mesh_level, r.flag) for r in rows])


def write_rate_csv(path: str, rows) -> None:
    header = ["eps", "alpha", "err_f", "err_g", "combined_norm_clean",
              "combined_norm_noisy", "converged", "grad_norm"]
    _write_table(path, header,
                [(r.eps, r.alpha, r.err_f, r.err_g, r.combined_norm_clean,
                  r.combined_norm_noisy, r.converged, r.grad_norm)
                 for r in rows])


def write_reconstruction_csv(path: str, x, phi_true, g_true, phi_est,
                             g_est) -> None:
    header = ["x", "phi_true", "g_true", "phi_est", "g_est"]
    _write_floats(path, header,
                  _float_columns(x, phi_true, g_true, phi_est, g_est))


def write_profile_csv(path: str, times, z_norms, chord) -> None:
    """Per-time table behind the interpolation check; a drift operator
    leaves the norms and chord empty, so its table is the header alone."""
    header = ["t", "z_norm", "chord"]
    _write_floats(path, header, _float_columns(times, z_norms, chord))


def write_manifest(path: str, config: dict, artifacts, summary: dict,
                   warnings) -> None:
    """Record what a run leaves behind: its identity (the config hash and
    echo), its artifact names, the summary numbers and one warning.<k>
    line per warning text, in the order the warnings were first raised.

    Nothing wall-clock enters it, so two identical runs emit identical
    bytes. The echoed config between the begin/end markers parses back to
    the mapping that produced the run.
    """
    lines = [f"config_sha256={config_hash(config)}", "config_begin"]
    lines.extend(canonical_echo(config).splitlines())
    lines.append("config_end")
    for name in artifacts:
        lines.append(f"artifact={name}")
    for key in sorted(summary):
        lines.append(f"summary.{key}={fmt(summary[key])}")
    for k, text in enumerate(warnings):
        lines.append(f"warning.{k}={text}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
