"""Command-line front end.

Subcommands: roots | directions | from-gamma | alcove | steinberg | golden |
verify.  Everywhere the flag ``--n`` takes the MATRIX SIZE n+1 (so
``--n 4`` works with 4x4 matrices); the module and table indexing follow
that convention throughout.

Output is a pretty table by default or a deterministic JSON envelope with
``--format json``: keys sorted, floats rendered with 12 significant digits,
complex numbers as [re, im] pairs, so output is byte-stable for fixed flags
and seed.  Exit codes: 0 success, 1 verification failure or a
numerical, calibration or consistency error (``error: ...`` on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import __version__
from .linalg import (
    ConsistencyError,
    NumericalError,
    Tolerance,
    char_poly,
    cyclic_for,
    max_abs,
    poly_from_roots,
)
from . import reference
from .roots import (
    shifted_table_roots,
    singular_direction,
    singular_directions,
    supported_roots,
    table_supported_roots,
)
from .solutions import (
    GammaVector,
    alcove_coords,
    alcove_to_gamma,
    AlcovePoint,
    eigenvalues_from_gamma,
    gamma_to_m0,
    polytope_contains,
    s_formulas,
)
from .steinberg import (
    CalibrationError,
    calibrate,
    chi,
    cross_section_check,
    generator_product,
    steinberg_section,
)
from .stokes import StokesParams, build_m0, build_q
from .verify import SUITES, run_suites


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fnum(x: float) -> str:
    s = "%.12g" % float(x)
    return "0" if s == "-0" else s


def _jsonable(obj):
    """Convert to plain dict/list/str/float/int/bool/None, complex -> [re, im]."""
    if isinstance(obj, (str, type(None))):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return [z.real, z.imag]
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _dumps(obj) -> str:
    """JSON with sorted keys and %.12g floats (hence byte-stable)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        v = _fnum(obj)
        if v in ("inf", "-inf", "nan"):  # JSON has no literals for these
            return f'"{v}"'
        return v
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        items = ",".join(f'{_dumps(str(k))}:{_dumps(v)}'
                         for k, v in sorted(obj.items()))
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _envelope(command: str, n_plus_1, payload, residuals) -> dict:
    return {
        "command": command,
        "n_plus_1": n_plus_1,
        "payload": _jsonable(payload),
        "residuals": {k: float(v) for k, v in sorted(residuals.items())},
        "version": __version__,
    }


def _fmt_c(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < 1e-13:
        return _fnum(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fnum(z.real)}{sign}{_fnum(abs(z.imag))}i"


def _matrix_lines(M, indent: str = "  ") -> list[str]:
    M = np.asarray(M)
    cells = [[_fmt_c(v) for v in row] for row in M]
    widths = [max(len(cells[r][c]) for r in range(len(cells)))
              for c in range(len(cells[0]))]
    return [indent + "  ".join(cells[r][c].rjust(widths[c])
                               for c in range(len(widths)))
            for r in range(len(cells))]


def _vec_str(v) -> str:
    return " ".join(_fnum(x) for x in np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _size(text: str) -> int:
    val = int(text)
    if val < 3:
        raise argparse.ArgumentTypeError("matrix size n+1 must be at least 3")
    return val


def _samples(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return val


def _parse_sizes(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        sizes = list(range(int(lo), int(hi) + 1))
    else:
        sizes = [int(text)]
    if not sizes or min(sizes) < 3:
        raise argparse.ArgumentTypeError("sizes must be a value or a..b range, all >= 3")
    return sizes


def _resolve_seed(ns) -> int:
    if ns.seed is not None:
        return ns.seed
    return int(os.environ.get("TTSTOKES_SEED", "0"))


def _floats(text: str, flag: str) -> list[float]:
    vals = [float(x) for x in text.split(",")]
    if not all(np.isfinite(vals)):
        raise ValueError(f"{flag} values must be finite")
    return vals


def _parse_gamma(ns, n_plus_1: int) -> GammaVector:
    """Read --gamma (full vector) or --gamma-free (independent half)."""
    if ns.gamma is not None:
        vals = _floats(ns.gamma, "--gamma")
        if len(vals) != n_plus_1:
            raise ValueError(f"--gamma needs {n_plus_1} comma-separated values")
        return GammaVector(n_plus_1, np.array(vals))
    m = n_plus_1 // 2
    vals = _floats(ns.gamma_free, "--gamma-free")
    if len(vals) != m:
        raise ValueError(f"--gamma-free needs the {m} independent values")
    full = list(vals)
    if n_plus_1 % 2 == 1:
        full.append(0.0)
    full.extend(-x for x in reversed(vals))
    return GammaVector(n_plus_1, np.array(full))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_directions(ns):
    n1 = ns.n
    rows = []
    for d in singular_directions(n1):
        rows.append({
            "ell": d.ell,
            "theta": d.theta,
            "label": str(d.label),
            "root_count": len(supported_roots(n1, d.ell)),
        })
    lines = [f"singular directions for n+1 = {n1}",
             f"{'ell':>4} {'theta':>18} {'label':>8} {'roots':>6}"]
    for r in rows:
        lines.append(f"{r['ell']:>4} {_fnum(r['theta']):>18} "
                     f"{r['label']:>8} {r['root_count']:>6}")
    return {"directions": rows}, {}, lines, 0


def _cmd_roots(ns):
    n1 = ns.n
    rows = []
    mismatches = 0
    for d in singular_directions(n1):
        from_arg = sorted(supported_roots(n1, d.ell))
        agrees = set(from_arg) == shifted_table_roots(n1, d.ell)
        mismatches += 0 if agrees else 1
        rows.append({
            "ell": d.ell,
            "theta": d.theta,
            "label": str(d.label),
            "roots": [list(r) for r in from_arg],
            "table_agrees": agrees,
        })
    lines = [f"supported roots per singular direction, n+1 = {n1}"]
    for r in rows:
        roots = " ".join(f"({i},{j})" for i, j in r["roots"])
        flag = "ok" if r["table_agrees"] else "MISMATCH"
        lines.append(f"ell={r['ell']:<3} label={r['label']:<6} "
                     f"table={flag:<8} {roots}")
    return ({"rows": rows},
            {"table_mismatch_rows": float(mismatches)},
            lines,
            0 if mismatches == 0 else 1)


def _cmd_from_gamma(ns):
    n1 = ns.n
    g = _parse_gamma(ns, n1)
    inside = polytope_contains(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lams = eigenvalues_from_gamma(g)
        m0 = gamma_to_m0(calibrate(n1), g)
    coeffs = poly_from_roots(lams)
    rho = alcove_coords(g)
    char_imag = float(np.max(np.abs(coeffs.imag)))
    mono_imag = float(np.max(np.abs(m0.matrix.imag)))
    residuals = {
        "char_imag": char_imag,
        "monodromy_imag": mono_imag,
        "char_vs_section": max_abs(char_poly(m0.matrix) - coeffs),
        "alcove_roundtrip": float(np.max(np.abs(
            alcove_to_gamma(rho).gamma - g.gamma))),
    }
    payload = {
        "gamma": list(g.gamma),
        "polytope_member": inside,
        "warning": None if inside else "gamma lies outside the polytope",
        "eigenvalues": list(lams),
        "char_poly_increasing": list(coeffs.real),
        "alcove_rho": list(rho.rho),
        "in_alcove": rho.in_alcove(),
        "monodromy": m0.matrix.real,
    }
    if n1 in (4, 5):
        s1, s2 = s_formulas(n1, g)
        payload["s_values"] = [float(s1), float(s2)]
    lines = [f"gamma: {_vec_str(g.gamma)}",
             f"polytope: {'inside' if inside else 'OUTSIDE'}",
             f"alcove rho: {_vec_str(rho.rho)} (in alcove: "
             f"{'yes' if rho.in_alcove() else 'no'})",
             "eigenvalues: " + " ".join(_fmt_c(z) for z in lams),
             "char poly (increasing): " + " ".join(
                 _fnum(c) for c in coeffs.real)]
    if "s_values" in payload:
        lines.append("s values: " + _vec_str(payload["s_values"]))
    lines.append("monodromy:")
    lines.extend(_matrix_lines(m0.matrix))
    lines.append("residuals: " + " ".join(
        f"{k}={_fnum(v)}" for k, v in sorted(residuals.items())))
    return payload, residuals, lines, 0


def _cmd_alcove(ns):
    n1 = ns.n
    if ns.rho is not None:
        vals = _floats(ns.rho, "--rho")
        if len(vals) != n1:
            raise ValueError(f"--rho needs {n1} comma-separated values")
        p = AlcovePoint(n1, np.array(vals))
        g = alcove_to_gamma(p)
    else:
        g = _parse_gamma(ns, n1)
        p = alcove_coords(g)
    roundtrip = float(np.max(np.abs(alcove_to_gamma(alcove_coords(g)).gamma
                                    - g.gamma)))
    payload = {
        "gamma": list(g.gamma),
        "rho": list(p.rho),
        "in_alcove": p.in_alcove(),
        "polytope_member": polytope_contains(g),
    }
    residuals = {"roundtrip": roundtrip}
    lines = [f"gamma: {_vec_str(g.gamma)}",
             f"rho:   {_vec_str(p.rho)}",
             f"in alcove: {'yes' if p.in_alcove() else 'no'}; "
             f"polytope: {'inside' if payload['polytope_member'] else 'OUTSIDE'}",
             f"roundtrip residual: {_fnum(roundtrip)}"]
    return payload, residuals, lines, 0


def _cmd_steinberg(ns):
    n1 = ns.n
    seed = _resolve_seed(ns)
    cal = calibrate(n1)
    rep = cross_section_check(cal, samples=ns.samples, seed=seed,
                              tol=Tolerance(ns.tol, ns.tol))
    prod_ok = bool(np.array_equal(generator_product(cal.sigmas, n1),
                                  cyclic_for(n1)))
    payload = {
        "root_order": [list(r) for r in cal.root_order],
        "flipped_generators": list(cal.flips),
        "chi_sources": list(cal.chi_sources),
        "chi_signs": list(cal.chi_signs),
        "sigma_product_is_cyclic": prod_ok,
        "samples": rep.samples,
        "passed": rep.passed and prod_ok,
    }
    residuals = {
        "section_residual": rep.section_residual,
        "monodromy_residual": rep.monodromy_residual,
    }
    lines = [f"cross-section calibration, n+1 = {n1}",
             "root order: " + " ".join(f"({i},{j})" for i, j in cal.root_order),
             f"flipped generators: {list(cal.flips)}",
             "chi relabeling: " + " ".join(
                 f"e{k + 1}={'-' if sg < 0 else ''}t{src + 1}"
                 for k, (src, sg) in enumerate(zip(cal.chi_sources,
                                                   cal.chi_signs))),
             f"sigma product equals cyclic element: {prod_ok}",
             f"section residual:   {_fnum(rep.section_residual)}",
             f"monodromy residual: {_fnum(rep.monodromy_residual)}",
             f"result: {'pass' if payload['passed'] else 'FAIL'}"]
    return payload, residuals, lines, 0 if payload["passed"] else 1


_GOLDEN_GAMMA = {4: (2.0, 0.0, 0.0, -2.0), 5: (1.0, 0.5, 0.0, -0.5, -1.0)}


def _cmd_golden(ns):
    n1 = ns.n
    seed = _resolve_seed(ns)
    rng = np.random.default_rng(seed)
    g = GammaVector(n1, np.array(_GOLDEN_GAMMA[n1]))
    s1, s2 = s_formulas(n1, g)
    if n1 == 4:
        q1_ref = reference.stokes_q1_4(s1)
        q2_ref = reference.stokes_q2_4(s2)
        xs = reference.monodromy_x_of_s_4(s1, s2)
        m_ref = reference.monodromy_display_4(*xs)
        char_ref = reference.char_display_4(*xs)
        section_map = reference.SECTION_X_OF_T_4
        display = reference.monodromy_display_4
    else:
        q1_ref = reference.stokes_q1_5(s1, s2)
        q2_ref = reference.stokes_q2_5(s1, s2)
        xs = reference.monodromy_x_of_s_5(s1, s2)
        m_ref = reference.monodromy_display_5(*xs)
        char_ref = reference.char_display_5(*xs)
        section_map = reference.SECTION_X_OF_T_5
        display = reference.monodromy_display_5

    head = {r: q1_ref[r] for r in table_supported_roots(n1, "head")}
    second = {r: q2_ref[r] for r in table_supported_roots(n1, "second")}
    params = StokesParams(n1, head, second)
    m0 = build_m0(params)
    cal = calibrate(n1)

    t = rng.normal(size=n1 - 1)
    kwargs = {name: sign * t[idx] for name, (idx, sign) in section_map.items()}
    section_expected = display(**kwargs)
    section = steinberg_section(cal, t)

    prod = generator_product(cal.sigmas, n1)

    identities = {
        "stokes_factors_display": max(
            max_abs(build_q(n1, "head", head) - q1_ref),
            max_abs(build_q(n1, "second", second) - q2_ref)),
        "monodromy_display": max_abs(m0.matrix - m_ref),
        "char_poly_display": max_abs(char_poly(m0.matrix) - char_ref),
        "sigma_product_cyclic": max_abs(prod - cyclic_for(n1)),
        "section_display": max_abs(section - section_expected),
        "chi_relabeling": max_abs(chi(section) - cal.chi_of_t(t)),
        "gamma_char_consistency": max_abs(
            char_poly(gamma_to_m0(cal, g).matrix) - char_ref),
    }
    if n1 == 4:
        gens = reference.weyl_generators_4()
        identities["generators_printed"] = max(
            max_abs(cal.sigmas[k] - gens[k]) for k in range(3))

    passed = {k: bool(v < ns.tol) for k, v in identities.items()}
    payload = {
        "sample_gamma": list(g.gamma),
        "s_values": [float(s1), float(s2)],
        "stokes_factor_1": q1_ref,
        "stokes_factor_2": q2_ref,
        "monodromy": m0.matrix.real,
        "char_poly_increasing": list(char_ref.real),
        "generators": [s.astype(float) for s in cal.sigmas],
        "section_sample_t": list(t),
        "identities": {k: {"residual": float(v), "passed": passed[k]}
                       for k, v in identities.items()},
    }
    lines = [f"worked example, n+1 = {n1}",
             f"sample gamma: {_vec_str(g.gamma)}",
             f"s values: {_vec_str(payload['s_values'])}",
             "monodromy:"]
    lines.extend(_matrix_lines(m0.matrix))
    lines.append("char poly (increasing): "
                 + " ".join(_fnum(c) for c in char_ref.real))
    for name in sorted(identities):
        lines.append(f"{'pass' if passed[name] else 'FAIL'}  {name}  "
                     f"residual={_fnum(identities[name])}")
    all_ok = all(passed.values())
    return payload, identities, lines, 0 if all_ok else 1


def _cmd_verify(ns):
    seed = _resolve_seed(ns)
    suites = [ns.suite] if ns.suite else None
    results = run_suites(ns.sizes, samples=ns.samples, seed=seed,
                         tol=ns.tol, suites=suites)
    rows = [{
        "suite": r.suite,
        "n_plus_1": r.n_plus_1,
        "checks": r.checks,
        "max_residual": r.max_residual,
        "passed": r.passed,
        "note": r.note,
    } for r in results]
    residuals = {f"{r.suite}/n{r.n_plus_1}": r.max_residual for r in results}
    lines = [f"{'suite':<14} {'n+1':>4} {'checks':>7} {'max residual':>14}  result"]
    for r in results:
        note = f"  ({r.note})" if r.note else ""
        lines.append(f"{r.suite:<14} {r.n_plus_1:>4} {r.checks:>7} "
                     f"{_fnum(r.max_residual):>14}  "
                     f"{'pass' if r.passed else 'FAIL'}{note}")
    ok = all(r.passed for r in results)
    lines.append(f"overall: {'pass' if ok else 'FAIL'} "
                 f"({len(results)} suite runs)")
    return ({"results": rows}, residuals, lines, 0 if ok else 1)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttstokes",
        description="Stokes data, cross-sections, and monodromy of the "
                    "periodic Toda equations. NOTE: --n always takes the "
                    "matrix size n+1.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="pass/fail threshold for residuals")
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (fallback: env TTSTOKES_SEED, then 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common],
                       help="supported roots per singular direction, "
                            "argument condition vs closed-form tables")
    p.add_argument("--n", type=_size, required=True,
                   help="matrix size n+1 (>= 3)")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("directions", parents=[common],
                       help="the 2(n+1) singular directions")
    p.add_argument("--n", type=_size, required=True,
                   help="matrix size n+1 (>= 3)")
    p.set_defaults(func=_cmd_directions)

    for name, fn in (("from-gamma", _cmd_from_gamma), ("alcove", _cmd_alcove)):
        p = sub.add_parser(
            name, parents=[common],
            help="monodromy data from a gamma vector" if name == "from-gamma"
            else "alcove coordinates of a gamma vector (or back from --rho)")
        p.add_argument("--n", type=_size, required=True,
                       help="matrix size n+1 (>= 3)")
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--gamma",
                         help="comma-separated, all n+1 entries; values "
                              "starting with a minus need --gamma=-1,...")
        grp.add_argument("--gamma-free",
                         help="comma-separated independent half "
                              "(gamma_0..gamma_{m-1})")
        if name == "alcove":
            grp.add_argument("--rho", help="comma-separated alcove point, "
                                           "converted back to gamma")
        p.set_defaults(func=fn)

    p = sub.add_parser("steinberg", parents=[common],
                       help="cross-section calibration and the two-sided "
                            "section/monodromy check")
    p.add_argument("--n", type=_size, required=True,
                   help="matrix size n+1 (>= 3)")
    p.add_argument("--samples", type=_samples, default=25)
    p.set_defaults(func=_cmd_steinberg)

    p = sub.add_parser("golden", parents=[common],
                       help="worked-example data for sizes 4 and 5 with "
                            "pass/fail per identity")
    p.add_argument("--n", type=int, choices=(4, 5), required=True,
                   help="worked examples exist for sizes 4 and 5 only")
    p.set_defaults(func=_cmd_golden)

    p = sub.add_parser("verify", parents=[common],
                       help="run the randomized invariant suites")
    p.add_argument("--n", dest="sizes", type=_parse_sizes, required=True,
                   help="size or range of sizes, e.g. 4 or 3..10")
    p.add_argument("--samples", type=_samples, default=25)
    p.add_argument("--suite", choices=sorted(SUITES),
                   help="run a single named suite instead of all")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        payload, residuals, lines, code = ns.func(ns)
    except (CalibrationError, NumericalError, ConsistencyError) as exc:
        # ConsistencyError is a ValueError, so it must be caught first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_for_env = getattr(ns, "n", None)
    if n_for_env is None:
        sizes = getattr(ns, "sizes", None)
        n_for_env = sizes[0] if sizes and len(sizes) == 1 else 0
    env = _envelope(ns.command, n_for_env, payload, residuals)
    if ns.format == "json":
        print(_dumps(env))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
