"""Command-line front end.

Subcommands: roots | directions | from-gamma | alcove | steinberg | golden |
verify.  Everywhere the flag ``--n`` takes the MATRIX SIZE n+1 (so
``--n 4`` works with 4x4 matrices); the module and table indexing follow
that convention throughout.

Output is a pretty table by default or a deterministic JSON envelope with
``--format json``: keys sorted, floats rendered with 12 significant digits,
complex numbers as [re, im] pairs, so output is byte-stable for fixed flags
and seed.  Exit codes: 0 success, 1 verification failure or a
numerical, calibration or consistency error (``error: ...`` on stderr)
or a reader that closed standard output early, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

import numpy as np

from . import __version__
from .linalg import (
    ConsistencyError,
    NumericalError,
    char_poly,
    cyclic_for,
    max_abs,
)
from . import reference
from .roots import (
    _roots_on,
    direction_map,
    singular_directions,
    table_agreement,
    table_supported_roots,
)
from .solutions import (
    GammaVector,
    _section_from_gamma,
    alcove_coords,
    alcove_to_gamma,
    AlcovePoint,
    gamma_to_m0,
    polytope_contains,
    s_formulas,
)
from .steinberg import (
    CalibrationError,
    calibrate,
    chi,
    cross_section_check,
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


_PLAIN = frozenset((float, str, int, dict, list))


def _dumps(obj) -> str:
    """JSON with sorted keys and %.12g floats (hence byte-stable).

    numpy scalars are written as plain values, complex numbers as [re, im],
    arrays through ``tolist()``, dict keys through ``str()``, and any other
    object as its ``str()``.
    """
    if type(obj) not in _PLAIN:
        # the exact built-in types, nearly every value written, skip this;
        # anything else becomes one of them (bool first: it subclasses int)
        if obj is None:
            return "null"
        if isinstance(obj, (bool, np.bool_)):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            obj = int(obj)
        elif isinstance(obj, (float, np.floating)):
            obj = float(obj)
        elif isinstance(obj, (complex, np.complexfloating)):
            obj = [obj.real, obj.imag]
        elif isinstance(obj, np.ndarray):
            obj = obj.tolist()
        elif isinstance(obj, dict):
            obj = dict(obj)
        elif isinstance(obj, (list, tuple)):
            obj = list(obj)
        else:
            obj = str(obj)
    kind = type(obj)
    if kind is float:
        v = _fnum(obj)
        if v in ("inf", "-inf", "nan"):  # JSON has no literals for these
            return f'"{v}"'
        return v
    if kind is str:
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if kind is int:
        return str(obj)
    if kind is dict:
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return "{" + ",".join(f"{_dumps(k)}:{_dumps(v)}" for k, v in items) + "}"
    return "[" + ",".join(_dumps(v) for v in obj) + "]"


def _envelope(command: str, n_plus_1, payload, residuals) -> dict:
    return {
        "command": command,
        "n_plus_1": n_plus_1,
        "payload": payload,
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

def _number(kind, text: str):
    try:
        return kind(text)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"not a valid {kind.__name__}: {text!r}") from None


def _size(text: str) -> int:
    val = _number(int, text)
    if val < 3:
        raise argparse.ArgumentTypeError("matrix size n+1 must be at least 3")
    return val


def _samples(text: str) -> int:
    val = _number(int, text)
    if val < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return val


def _seed(text: str) -> int:
    val = _number(int, text)
    if val < 0:  # numpy's generators take no negative seed
        raise argparse.ArgumentTypeError("must be at least 0")
    return val


def _tol(text: str) -> float:
    val = _number(float, text)
    if not 0 < val < float("inf"):  # also false for NaN
        raise argparse.ArgumentTypeError("must be positive and finite")
    if val > 1:  # a failed discrete fact scores 1, which it would pass
        raise argparse.ArgumentTypeError("must be at most 1")
    return val


def _parse_sizes(text: str) -> list[int]:
    bounds = text.split("..", 1)
    try:
        sizes = list(range(int(bounds[0]), int(bounds[-1]) + 1))
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 3:
        raise argparse.ArgumentTypeError("sizes must be a value or a..b range, all >= 3")
    return sizes


def _floats(text: str, flag: str) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:  # float's message names the entry, not the flag
        raise ValueError(f"{flag}: {exc}") from None
    # beyond 2**1000 the polytope and alcove arithmetic overflows; both lie
    # within a few times n+1 of 0, so such a value is as unusable as inf
    if not all(abs(v) <= 2.0 ** 1000 for v in vals):  # also false for NaN
        raise ValueError(f"{flag} values must be finite and at most 2**1000 in size")
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

def _census(n1: int) -> tuple[np.ndarray, list[tuple[dict, list]]]:
    """The size's direction map, and each singular direction's ell, theta
    and label with the roots that the map puts on it."""
    slot_dir = direction_map(n1)
    return slot_dir, [({"ell": d.ell, "theta": d.theta, "label": str(d.label)},
                       _roots_on(slot_dir, d.ell)) for d in singular_directions(n1)]


def _cmd_directions(ns):
    n1 = ns.n
    rows = [{**d, "root_count": len(on)} for d, on in _census(n1)[1]]
    lines = [f"singular directions for n+1 = {n1}",
             f"{'ell':>4} {'theta':>18} {'label':>8} {'roots':>6}"]
    for r in rows:
        lines.append(f"{r['ell']:>4} {_fnum(r['theta']):>18} "
                     f"{r['label']:>8} {r['root_count']:>6}")
    return {"directions": rows}, {}, lines, 0


def _cmd_roots(ns):
    n1 = ns.n
    slot_dir, census = _census(n1)
    agreement = table_agreement(slot_dir).tolist()
    rows = [{**d, "roots": [list(r) for r in on], "table_agrees": agreement[d["ell"]]}
            for d, on in census]
    mismatches = agreement.count(False)
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


def _alcove_roundtrip(g: GammaVector) -> tuple[AlcovePoint, float]:
    """g's alcove point, and how far mapping that point back lands from g."""
    p = alcove_coords(g)
    return p, float(np.max(np.abs(alcove_to_gamma(p).gamma - g.gamma)))


def _cmd_from_gamma(ns):
    n1 = ns.n
    g = _parse_gamma(ns, n1)
    inside = polytope_contains(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lams, coeffs, m0 = _section_from_gamma(calibrate(n1), g)
    rho, roundtrip = _alcove_roundtrip(g)
    residuals = {
        "char_vs_section": max_abs(char_poly(m0) - coeffs),
        "alcove_roundtrip": roundtrip,
    }
    payload = {
        "gamma": list(g.gamma),
        "polytope_member": inside,
        "warning": None if inside else "gamma lies outside the polytope",
        "eigenvalues": list(lams),
        "char_poly_increasing": list(coeffs),
        "alcove_rho": list(rho.rho),
        "in_alcove": rho.in_alcove(),
        "monodromy": m0,
    }
    if n1 in (4, 5):
        s1, s2 = s_formulas(n1, g)
        payload["s_values"] = [float(s1), float(s2)]
    lines = [f"gamma: {_vec_str(g.gamma)}",
             f"polytope: {'inside' if inside else 'OUTSIDE'}",
             f"alcove rho: {_vec_str(rho.rho)} (in alcove: "
             f"{'yes' if payload['in_alcove'] else 'no'})",
             "eigenvalues: " + " ".join(_fmt_c(z) for z in lams),
             "char poly (increasing): " + " ".join(
                 _fnum(c) for c in coeffs)]
    if "s_values" in payload:
        lines.append("s values: " + _vec_str(payload["s_values"]))
    lines.append("monodromy:")
    lines.extend(_matrix_lines(m0))
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
        roundtrip = _alcove_roundtrip(g)[1]
    else:
        g = _parse_gamma(ns, n1)
        p, roundtrip = _alcove_roundtrip(g)
    payload = {
        "gamma": list(g.gamma),
        "rho": list(p.rho),
        "in_alcove": p.in_alcove(),
        "polytope_member": polytope_contains(g),
    }
    residuals = {"roundtrip": roundtrip}
    lines = [f"gamma: {_vec_str(g.gamma)}",
             f"rho:   {_vec_str(p.rho)}",
             f"in alcove: {'yes' if payload['in_alcove'] else 'no'}; "
             f"polytope: {'inside' if payload['polytope_member'] else 'OUTSIDE'}",
             f"roundtrip residual: {_fnum(roundtrip)}"]
    return payload, residuals, lines, 0


def _cmd_steinberg(ns):
    n1 = ns.n
    cal = calibrate(n1)
    rep = cross_section_check(cal, samples=ns.samples, seed=ns.seed)
    prod_ok = bool(np.array_equal(np.linalg.multi_dot(cal.sigmas), cyclic_for(n1)))
    # each residual on its own, so that a NaN fails: max would drop it
    passed = (rep.section_residual < ns.tol and rep.monodromy_residual < ns.tol
              and prod_ok)
    payload = {
        "root_order": [list(r) for r in cal.root_order],
        "flipped_generators": list(cal.flips),
        "chi_sources": list(cal.chi_sources),
        "chi_signs": list(cal.chi_signs),
        "sigma_product_is_cyclic": prod_ok,
        "samples": rep.samples,
        "passed": passed,
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
             f"result: {'pass' if passed else 'FAIL'}"]
    return payload, residuals, lines, 0 if passed else 1


_GOLDEN_GAMMA = {4: (2.0, 0.0, 0.0, -2.0), 5: (1.0, 0.5, 0.0, -0.5, -1.0)}


def _cmd_golden(ns):
    n1 = ns.n
    rng = np.random.default_rng(ns.seed)
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

    sigmas = cal.sigmas
    prod = np.linalg.multi_dot(sigmas)

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
            max_abs(sigmas[k] - gens[k]) for k in range(3))

    passed = {k: bool(v < ns.tol) for k, v in identities.items()}
    payload = {
        "sample_gamma": list(g.gamma),
        "s_values": [float(s1), float(s2)],
        "stokes_factor_1": q1_ref,
        "stokes_factor_2": q2_ref,
        "monodromy": m0.matrix.real,
        "char_poly_increasing": list(char_ref.real),
        "generators": sigmas,
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
    suites = [ns.suite] if ns.suite else None
    results = run_suites(ns.sizes, samples=ns.samples, seed=ns.seed,
                         tol=ns.tol, suites=suites)
    rows = [vars(r) for r in results]
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

@functools.cache  # parsing leaves the tree as it was, so one per process serves
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttstokes",
        description="Stokes data, cross-sections, and monodromy of the "
                    "periodic Toda equations. NOTE: --n always takes the "
                    "matrix size n+1.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")
    # the commands that sample and judge residuals
    checked = argparse.ArgumentParser(add_help=False, parents=[common])
    checked.add_argument("--tol", type=_tol, default=1e-9,
                         help="pass/fail threshold for residuals")
    checked.add_argument("--seed", type=_seed, default=0, help="RNG seed (>= 0)")
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--n", type=_size, required=True, help="matrix size n+1 (>= 3)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common, sized],
                       help="supported roots per singular direction, "
                            "argument condition vs closed-form tables")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("directions", parents=[common, sized],
                       help="the 2(n+1) singular directions")
    p.set_defaults(func=_cmd_directions)

    for name, fn in (("from-gamma", _cmd_from_gamma), ("alcove", _cmd_alcove)):
        p = sub.add_parser(
            name, parents=[common, sized],
            help="monodromy data from a gamma vector" if name == "from-gamma"
            else "alcove coordinates of a gamma vector (or back from --rho)")
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--gamma",
                         help="comma-separated, all n+1 entries; values "
                              "starting with a minus need --gamma=-1,...")
        grp.add_argument("--gamma-free",
                         help="comma-separated independent half "
                              "(gamma_0..gamma_{m-1}); values starting "
                              "with a minus need --gamma-free=-0.5,...")
        if name == "alcove":
            grp.add_argument("--rho", help="comma-separated alcove point, "
                                           "converted back to gamma")
        p.set_defaults(func=fn)

    p = sub.add_parser("steinberg", parents=[checked, sized],
                       help="cross-section calibration and the two-sided "
                            "section/monodromy check")
    p.add_argument("--samples", type=_samples, default=25)
    p.set_defaults(func=_cmd_steinberg)

    p = sub.add_parser("golden", parents=[checked],
                       help="worked-example data for sizes 4 and 5 with "
                            "pass/fail per identity")
    p.add_argument("--n", type=int, choices=(4, 5), required=True,
                   help="worked examples exist for sizes 4 and 5 only")
    p.set_defaults(func=_cmd_golden)

    p = sub.add_parser("verify", parents=[checked],
                       help="run the randomized invariant suites")
    p.add_argument("--n", dest="sizes", type=_parse_sizes, required=True,
                   help="size or range of sizes, e.g. 4 or 3..10")
    p.add_argument("--samples", type=_samples, default=25)
    p.add_argument("--suite", choices=sorted(SUITES),
                   help="run a single named suite instead of all")
    p.set_defaults(func=_cmd_verify)
    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


def main(argv=None) -> int:
    ns, extra = _build_parser().parse_known_args(argv)
    if extra:
        # with the usage of the subcommand that does not take them
        ns.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
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
    try:
        if ns.format == "json":
            print(_dumps(env))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so the interpreter's
        # final flush of the unwritten rest does not fail again on stderr
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
