"""Configuration-driven command line for the whole pipeline.

Subcommands: check (coefficient hypotheses), synth (Lyapunov synthesis and
the constants ledger), solve (kernel columns to disk), verify (numerical
checks against the kernel store), all (the four in order, stopping at the
first failure).

Exit codes are a stable contract: 0 everything holds, 1 a mathematical
statement failed, 2 the configuration is unusable, 3 a resource limit
tripped.  All file outputs are reproducible byte-for-byte from the
(config, seed) pair; progress and timing go to stdout only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Optional

import numpy as np

from . import bounds, hypotheses, lyapunov, solver, verify
from .coefficients import PolynomialFamily
from .config import RunConfig, family_from_config, parse_config
from .errors import BudgetError, ConfigError, KernelBoundError
from .svg import polyline_plot

__all__ = ["main", "cmd_check", "cmd_synth", "cmd_solve", "cmd_verify",
           "EXIT_PASS", "EXIT_MATH", "EXIT_CONFIG", "EXIT_RESOURCE"]

EXIT_PASS, EXIT_MATH, EXIT_CONFIG, EXIT_RESOURCE = 0, 1, 2, 3

OUT_ENV = "KERNELBOUND_OUT"

RANDOMIZED_CHECKS = frozenset(("domination", "chapman"))


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _write(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# called before every check run, so that each check starts from a trimmed heap
_release_freed_memory = solver.release_freed_memory


def _g(x) -> str:
    return "%.12g" % float(x)


def _resolve_out(cfg: RunConfig, cli_out) -> str:
    if cli_out:
        return cli_out
    env = os.environ.get(OUT_ENV)
    if env:
        return env
    return cfg.get("output", "directory")


def _grid_params(cfg: RunConfig):
    radii = cfg.get("grid", "radii")
    if any(r <= 0 for r in radii) or sorted(radii) != radii \
            or len(set(radii)) != len(radii):
        raise ConfigError("%s: grid.radii must be positive and strictly "
                          "increasing" % cfg._where("grid", "radii"))
    return (cfg.get("grid", "d"), radii, cfg.get("grid", "spacing"),
            cfg.get("grid", "dt"), cfg.get("grid", "theta"))


def _point(row, d: int):
    return float(row[0]) if d == 1 else tuple(float(v) for v in row)


def _points_key(cfg: RunConfig, section: str, key: str, d: int,
                default=None) -> Optional[list]:
    mat = cfg.get(section, key)
    if mat is None:
        return default
    if mat.shape[1] != d:
        raise ConfigError("%s: %s.%s rows must have d = %d coordinates"
                          % (cfg._where(section, key), section, key, d))
    return [_point(row, d) for row in mat]


def _components(cfg: RunConfig, section: str, m: int) -> list:
    components = cfg.get(section, "components")
    if components is None:
        return list(range(m))
    for k in components:
        if not 0 <= k < m:
            raise ConfigError("%s: %s.components entry %d outside 0..%d"
                              % (cfg._where(section, "components"), section,
                                 k, m - 1))
    return components


def _flag_or_key(cfg: RunConfig, key: str, flag, least: int):
    """--key if it was given, else verify.key; an int below least exits 2."""
    value = flag if flag is not None else cfg.get("verify", key)
    if value is not None and value < least:
        where = ("--%s" % key if flag is not None
                 else "%s: verify.%s" % (cfg._where("verify", key), key))
        raise ConfigError("%s must be at least %d, got %d" % (where, least, value))
    return value


def _synthesize(cfg: RunConfig, fam, target: str, radius: float, store=None):
    """Deterministic synthesis plus grid calibration of the timed constant,
    whose certificate is a record in the store when one is given."""
    fn = lyapunov.synth_poly if isinstance(fam, PolynomialFamily) \
        else lyapunov.synth_exp
    result = fn(fam, cfg.get("lyapunov", "T"), target=target)
    if target == "P":
        result = _apply_overrides(cfg, result)
    report = verify.stored_certificate(fam, result.timed, radius, store)
    return replace(result, timed=report.certified), report


def _apply_overrides(cfg: RunConfig, result):
    # forward-target overrides from [lyapunov]; adjoint synthesis is left alone
    given = {key: cfg.get("lyapunov", key)
             for key in ("rho", "eps_hat", "sigma", "delta")}
    given = {key: value for key, value in given.items() if value is not None}
    if not given:
        return result
    static = replace(result.static, **{key: given[key] for key in
                                       ("rho", "eps_hat") if key in given})
    timed = replace(result.timed, base=static, c0=None,
                    **{key: given[key] for key in ("sigma", "delta")
                       if key in given})
    return replace(result, static=static, timed=timed)


def _bounds_params(cfg: RunConfig, d: int):
    """s, the fixed window or None, t_ref and eps_scales from [bounds]."""
    s = cfg.get("bounds", "s")
    if s is None:
        s = float(d + 3)
    if s <= d + 2:
        raise ConfigError("%s: bounds.s must exceed d + 2 = %d, got %s"
                          % (cfg._where("bounds", "s"), d + 2, _g(s)))
    window = None
    if cfg.get("bounds", "window_mode") == "fixed":
        window = tuple(cfg.get("bounds", "window"))
    return (s, window, cfg.get("bounds", "t_ref"),
            tuple(cfg.get("bounds", "eps_scales")))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, out: str) -> int:
    fam = family_from_config(cfg)
    if isinstance(fam, PolynomialFamily):
        reports = hypotheses.check_polynomial(fam)
    else:
        reports = hypotheses.check_exponential(fam)
    radius = cfg.get("verify", "radius")
    base_reports, row = hypotheses.check_base(fam, radius=radius)
    reports = list(reports) + list(base_reports)
    text = hypotheses.report_text(reports, row)
    _write(os.path.join(out, "hypotheses.txt"), text)
    _write(os.path.join(out, "hypotheses.csv"), hypotheses.margins_csv(reports))
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_PASS if all(r.ok for r in reports) else EXIT_MATH


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _spec_lines(label: str, result, static_rep, timed_rep) -> list:
    st, ti = result.static, result.timed
    lines = [
        "%s.form: %s" % (label, st.form),
        "%s.target: %s" % (label, st.target),
        "%s.rho: %s" % (label, _g(st.rho)),
        "%s.eps_hat: %s" % (label, _g(st.eps_hat)),
        "%s.lam: %s" % (label, _g(st.lam) if st.lam is not None else "-"),
        "%s.T: %s" % (label, _g(ti.T)),
        "%s.sigma: %s" % (label, _g(ti.sigma)),
        "%s.delta: %s" % (label, _g(ti.delta)),
        "%s.eps_T: %s" % (label, _g(ti.eps_T)),
        "%s.c0: %s" % (label, _g(ti.c0) if ti.c0 is not None else "-"),
    ]
    for tag, rep in (("static", static_rep), ("timed", timed_rep)):
        if rep is None:
            continue
        lines.append("%s.%s_sup: %s -> %s (radius %s, %s)"
                     % (label, tag, _g(rep.sup_coarse), _g(rep.sup_fine),
                        _g(rep.radius), "stable" if rep.passed else "drifting"))
    return lines


def _ledger_text(ledger, H: float, H_star: float) -> str:
    a0, a, b, b0 = ledger.window
    lines = ["constants ledger",
             "d: %d" % ledger.d,
             "s: %s" % _g(ledger.s),
             "window: %s %s %s %s" % (_g(a0), _g(a), _g(b), _g(b0)),
             "M: %s" % _g(ledger.M),
             "M_star: %s" % (_g(ledger.M_star)
                             if ledger.M_star is not None else "-"),
             "item forward adjoint boundary"]
    flags = ledger.boundary_flags or (False,) * 8
    star = ledger.c_star or (None,) * 8
    for name, c, cs, fb in zip(bounds.LEDGER_ITEMS, ledger.c, star, flags):
        lines.append("%s %s %s %s"
                     % (name, _g(c), _g(cs) if cs is not None else "-",
                        "edge" if fb else "interior"))
    lines.append("majorant: %s" % _g(H))
    lines.append("majorant_star: %s" % _g(H_star))
    return "\n".join(lines) + "\n"


def _certificate_text(cert, H: float, H_star: float) -> str:
    lines = ["bound certificate",
             "kind: %s" % cert.kind,
             "d: %d" % cert.d,
             "s: %s" % _g(cert.s),
             "eps: %s" % _g(cert.eps),
             "sigma: %s" % _g(cert.sigma),
             "rho: %s" % _g(cert.rho)]
    if cert.lam is not None:
        lines.append("lam: %s" % _g(cert.lam))
    if cert.c_hat is not None:
        lines.append("c_hat: %s" % _g(cert.c_hat))
    for name, val in (("eps_star", cert.eps_star),
                      ("sigma_star", cert.sigma_star),
                      ("rho_star", cert.rho_star),
                      ("lam_star", cert.lam_star)):
        if val is not None:
            lines.append("%s: %s" % (name, _g(val)))
    lines.append("majorant: %s" % _g(H))
    lines.append("majorant_star: %s" % _g(H_star))
    lines.append("C_cal: %s"
                 % (_g(cert.C_cal) if cert.C_cal is not None else "-"))
    return "\n".join(lines) + "\n"


def cmd_synth(cfg: RunConfig, out: str) -> int:
    fam = family_from_config(cfg)
    d = fam.dims.d
    s, window, t_ref, eps_scales = _bounds_params(cfg, d)
    radius = cfg.get("lyapunov", "radius")

    forward, rep_ft = _synthesize(cfg, fam, "P", radius)
    rep_fs = lyapunov.verify_certificate(fam, forward.static, radius=radius)
    forward = replace(forward, static=rep_fs.certified)
    adjoint, rep_at = _synthesize(cfg, fam, "P_adjoint", radius)
    rep_as = lyapunov.verify_certificate(fam, adjoint.static, radius=radius)
    adjoint = replace(adjoint, static=rep_as.certified)

    led_f, H = verify.weighted_majorant(fam, forward, s, t=t_ref,
                                        eps_scales=eps_scales,
                                        cert_radius=radius, window=window)
    led_a, H_star = verify.weighted_majorant(fam, adjoint, s, t=t_ref,
                                             eps_scales=eps_scales,
                                             adjoint=True, cert_radius=radius,
                                             window=window)
    ledger = led_f.with_adjoint(led_a)

    if isinstance(fam, PolynomialFamily):
        kind = "polynomial"
        lam = bounds.eval_lambda_poly(fam, forward.timed.sigma,
                                      forward.static.rho)
        lam_star = bounds.eval_lambda_poly(fam, adjoint.timed.sigma,
                                           adjoint.static.rho)
        c_hat = None
    else:
        kind = "exponential"
        lam = lam_star = None
        c_hat = cfg.get("bounds", "c_hat")
        if c_hat is None:
            c_hat = bounds.default_c_hat(d)
    cert = bounds.BoundCertificate(
        kind=kind, d=d, s=s, ledger=ledger,
        eps=forward.timed.eps_T, sigma=forward.timed.sigma,
        rho=forward.static.rho, lam=lam, c_hat=c_hat,
        eps_star=adjoint.timed.eps_T, sigma_star=adjoint.timed.sigma,
        rho_star=adjoint.static.rho, lam_star=lam_star)

    lyap_lines = ["lyapunov certificate"]
    lyap_lines += _spec_lines("forward", forward, rep_fs, rep_ft)
    lyap_lines += _spec_lines("adjoint", adjoint, rep_as, rep_at)
    _write(os.path.join(out, "lyapunov_certificate.txt"),
           "\n".join(lyap_lines) + "\n")

    time_lines = ["time-dependent weight"]
    for label, res in (("forward", forward), ("adjoint", adjoint)):
        ti = res.timed
        time_lines += ["%s.T: %s" % (label, _g(ti.T)),
                       "%s.sigma: %s" % (label, _g(ti.sigma)),
                       "%s.delta: %s" % (label, _g(ti.delta)),
                       "%s.eps_T: %s" % (label, _g(ti.eps_T)),
                       "%s.c0: %s" % (label, _g(ti.c0)),
                       "%s.G_at_T: %s" % (label, _g(ti.G(ti.T)))]
    _write(os.path.join(out, "time_spec.txt"), "\n".join(time_lines) + "\n")

    _write(os.path.join(out, "ledger.txt"), _ledger_text(ledger, H, H_star))
    _write(os.path.join(out, "certificate.txt"),
           _certificate_text(cert, H, H_star))

    print("synth: rho=%s sigma=%s delta=%s c0=%s"
          % (_g(forward.static.rho), _g(forward.timed.sigma),
             _g(forward.timed.delta), _g(forward.timed.c0)))
    print("synth: adjoint rho=%s sigma=%s c0=%s"
          % (_g(adjoint.static.rho), _g(adjoint.timed.sigma),
             _g(adjoint.timed.c0)))
    print("synth: majorant %s (adjoint %s), wrote 4 artifact files"
          % (_g(H), _g(H_star)))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _column_name(variant: str, t: float, row, k: int) -> str:
    coords = "_".join("%g" % float(v) for v in np.atleast_1d(row))
    return "column_%s_t%g_y%s_k%d.csv" % (variant, t, coords, k)


def cmd_solve(cfg: RunConfig, out: str) -> int:
    fam = family_from_config(cfg)
    d, radii, spacing, dt, theta = _grid_params(cfg)
    grid = solver.GridSpec(d, radii[-1], spacing)

    sources = _points_key(cfg, "solve", "sources", d)
    if sources is None:
        print("solve: no sources requested; store left empty")
        return EXIT_PASS
    components = _components(cfg, "solve", fam.dims.m)
    times, width, budget = (cfg.get("solve", key)
                            for key in ("times", "width", "budget"))

    store = verify.KernelStore(os.path.join(out, "store"))
    wall = time.perf_counter()
    runs = [(variant, t, center) for variant in cfg.get("solve", "variants")
            for t in times for center in sources]
    columns = verify.evolve_all(
        fam, [verify.Evolution.of_sources(variant, grid, t,
                                          [(center, k) for k in components],
                                          width, dt, theta)
              for variant, t, center in runs], store, budget=budget)
    written = 0
    for (variant, t, center), fields in zip(runs, columns):
        for k, field in zip(components, fields):
            name = _column_name(variant, t, center, k)
            solver.save_field_csv(os.path.join(out, name), field)
            written += 1
            print("solve: %s t=%g y=%s k=%d -> %s"
                  % (variant, t,
                     ",".join("%g" % v for v in np.atleast_1d(center)),
                     k, name))
    print("solve: wrote %d columns in %.3fs (store size %d)"
          % (written, time.perf_counter() - wall, len(store)))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig, out: str, jobs: Optional[int] = None,
               cli_seed: Optional[int] = None) -> int:
    fam = family_from_config(cfg)
    d, radii, spacing, dt, theta = _grid_params(cfg)
    grid = solver.GridSpec(d, radii[-1], spacing)

    checks = cfg.get("verify", "checks")
    seed = _flag_or_key(cfg, "seed", cli_seed, 0)
    randomized = sorted(RANDOMIZED_CHECKS.intersection(checks))
    if randomized and seed is None:
        raise ConfigError("%s: checks %s draw random data; set verify.seed "
                          "or pass --seed" % (cfg.path, " ".join(randomized)))
    jobs = _flag_or_key(cfg, "jobs", jobs, 1)

    tset = cfg.get("verify", "t")
    t_single = cfg.get("verify", "t_single")
    if t_single is None:
        t_single = sorted(tset)[len(tset) // 2]
    origin = [_point(np.zeros(d), d)]
    xs = _points_key(cfg, "verify", "x", d, origin)
    srcs = _points_key(cfg, "verify", "sources", d,
                       _points_key(cfg, "solve", "sources", d, origin))
    components = _components(cfg, "verify", fam.dims.m)
    width = cfg.get("verify", "width")
    if width is None:
        width = cfg.get("solve", "width")
    cert_radius = cfg.get("lyapunov", "radius")
    two_sided = cfg.get("verify", "two_sided")
    tol = {name: cfg.get("verify", "tol_" + name) for name in checks}
    store = verify.KernelStore(os.path.join(out, "store"))
    src_pairs = [(y, k) for y in srcs for k in components]

    # synthesis is shared state, so resolve it before any thread starts
    needs_synth = {"integrability", "weighted", "decay"}.intersection(checks)
    fwd = adj = None
    if needs_synth:
        fwd = _synthesize(cfg, fam, "P", cert_radius, store)[0]
        if "weighted" in checks and two_sided:
            adj = _synthesize(cfg, fam, "P_adjoint", cert_radius, store)[0]

    checks_run, cal_fp = [], None
    for name in checks:
        if name == "domination":
            checks_run.append(verify.Domination(fam, grid, t_single, src_pairs, dt,
                                                width, tol["domination"], seed=seed))
        elif name == "monotone":
            checks_run.append(verify.MonotoneInR(fam, radii, spacing, t_single,
                                                 (srcs[0], components[0]), dt,
                                                 width, tol["monotone"]))
        elif name == "mass":
            checks_run.append(verify.MassAndPositivity(
                fam, grid, tset, dt, tol=tol["mass"], sources=src_pairs,
                width=width))
        elif name == "support":
            checks_run += [verify.Support(fam, k, grid, t_single, srcs[0], dt,
                                          width, tol["support"])
                           for k in components]
        elif name == "duality":
            pairs = [(xs[0], h, srcs[0], k)
                     for h in components for k in components]
            checks_run.append(verify.Duality(fam, grid, t_single, pairs, dt,
                                             width, tol["duality"], theta))
        elif name == "chapman":
            s_split = cfg.get("verify", "chapman_s")
            if s_split is None:
                s_split = t_single / 2.0
            checks_run.append(verify.ChapmanKolmogorov(
                fam, grid, t_single, s_split, dt=dt, tol=tol["chapman"],
                seed=seed))
        elif name == "integrability":
            t_int = cfg.get("verify", "t_integrability")
            if t_int is None:
                t_int = tset
            checks_run.append(verify.LyapunovIntegrability(
                fam, fwd.timed, grid, t_int, xs, tol=tol["integrability"],
                dt=dt, cert_radius=cert_radius))
        elif name == "weighted":
            s, _, t_ref, eps_scales = _bounds_params(cfg, d)
            t_w, coarse, fine = (cfg.get("verify", key) for key in
                                 ("t_weighted", "coarse", "fine"))
            if t_w is None:
                t_w = [t_ref]
            if coarse is None:
                coarse = [2.0 * spacing, radii[-1] / 2.0]
            if fine is None:
                fine = [spacing, radii[-1]]
            # calibration.txt names the inputs its C_cal comes from
            cal_fp = verify._fingerprint(
                "calibration", verify.system_fingerprint(fam), s, eps_scales,
                tuple(t_w), tuple(srcs), tuple(coarse), theta, dt, width,
                cert_radius, fwd.timed)
            weighted = verify.WeightedBound(
                fam, fwd, s, t_w, srcs, tuple(coarse), tuple(fine), eps_scales,
                tol["weighted"], dt, width, theta, two_sided, adj,
                cert_radius=cert_radius)
            scale = cfg.get("verify", "majorant_scale")
            if scale != 1.0:
                # every bracket monomial has degree >= s/2 in the ledger
                # constants, so scaling them by f moves the majorant by at
                # least f^(s/2); apply that envelope uniformly in time
                href = {t: H * scale ** (s / 2.0)
                        for t, H in weighted.majorants(store).items()}

                def override(t, pts, href=href):
                    return np.full(len(np.atleast_2d(pts)), href[t])
                weighted = replace(weighted, majorant_override=override)
            checks_run.append(weighted)
        elif name == "decay":
            e_scale = cfg.get("verify", "decay_eps_scale")
            checks_run.append(verify.DecayShape(
                fam, grid, cfg.get("verify", "t_decay"), xs[0], components[0],
                fwd.timed.weight(e_scale * fwd.timed.eps_T), dt, width,
                slack=tol["decay"]))
    # the plan and the checks share each declaration's requests, so the
    # data of each request is built and hashed once
    requests = [req for check in checks_run for req in check.requests]
    plot = None
    if "svg" in cfg.get("output", "formats"):
        plot = verify.Evolution.of_sources("P", grid, t_single,
                                           [(srcs[0], components[0])], width,
                                           dt, theta)
        requests.append(plot)

    def run(check):
        _release_freed_memory()
        return getattr(verify, check.name)(check, store=store)

    wall = time.perf_counter()
    try:
        plan = verify.run_plan(fam, requests, store, jobs=jobs)
    except KernelBoundError:
        # the check, or the plot, that needs the failed evolution meets the
        # error again and reports it, after the checks before it ran, as
        # without a plan; so the closing line below is never reached
        plan = None
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, checks_run))
    else:
        results = [run(check) for check in checks_run]

    summary = verify.summary_text(results)
    _write(os.path.join(out, "verify_summary.txt"), summary)
    _write(os.path.join(out, "verify_results.csv"),
           verify.results_csv(results))
    for r in results:
        if r.check == "check_weighted_bound":
            # written for the reader; no run reads it back
            _write(os.path.join(out, "calibration.txt"),
                   "C_cal = %.17g\nfingerprint = %s\n"
                   % (r.details["C_cal"], cal_fp))
    if plot is not None:
        _write_plots(out, fam, plot, store, results)
    sys.stdout.write(summary if summary.endswith("\n") else summary + "\n")
    print("verify: %d check runs in %.3fs; plan: %s"
          % (len(results), time.perf_counter() - wall,
             ", ".join("%d %s" % (plan[name], name)
                       for name in verify.PLAN_COUNTS)))
    return EXIT_PASS if all(r.status == "pass" for r in results) else EXIT_MATH


def _write_plots(out, fam, column, store, results):
    """SVG plots: the planned kernel column, mass decay, weighted ratios."""
    (field,), = verify.evolve_all(fam, [column], store)
    grid, t_plot = column.grid, column.t
    pts = grid.points()
    if grid.d == 1:
        mask = np.ones(len(pts), dtype=bool)
    else:
        mask = np.abs(pts[:, 1]) < 1e-12
    axis = pts[mask, 0]
    series = [("component %d" % k, axis, field.values[mask, k])
              for k in range(fam.dims.m)]
    _write(os.path.join(out, "kernel_section.svg"),
           polyline_plot(series, title="kernel section at t=%g" % t_plot,
                         xlabel="x", ylabel="value"))
    mass = next((r for r in results
                 if r.check == "check_mass_and_positivity"), None)
    if mass is not None:
        rows = mass.details["samples"]
        ts = [r["t"] for r in rows]
        _write(os.path.join(out, "mass_decay.svg"),
               polyline_plot([("sup of evolved ones", ts,
                               [r["value"] for r in rows]),
                              ("certified envelope", ts,
                               [r["bound"] for r in rows])],
                             title="mass decay", xlabel="t", ylabel="mass"))
    weighted = next((r for r in results
                     if r.check == "check_weighted_bound"), None)
    if weighted is not None:
        by_t = {}
        for row in weighted.details["samples"]:
            by_t[row["t"]] = max(by_t.get(row["t"], 0.0), row["value"])
        ts = sorted(by_t)
        _write(os.path.join(out, "weighted_ratio.svg"),
               polyline_plot([("sup ratio", ts, [by_t[t] for t in ts])],
                             title="weighted ratio vs t", xlabel="t",
                             ylabel="ratio"))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def cmd_all(cfg: RunConfig, out: str, jobs, seed) -> int:
    for step in (cmd_check, cmd_synth, cmd_solve):
        rc = step(cfg, out)
        if rc != EXIT_PASS:
            return rc
    return cmd_verify(cfg, out, jobs=jobs, cli_seed=seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kernelbound",
        description="hypothesis checks, Lyapunov synthesis, kernel solves, "
                    "and numerical verification for weakly coupled systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("check", "validate coefficient hypotheses"),
                       ("synth", "synthesize Lyapunov data and the ledger"),
                       ("solve", "compute kernel columns to disk"),
                       ("verify", "run numerical checks against the store"),
                       ("all", "check, synth, solve, then verify")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        out = _resolve_out(cfg, args.out)
        os.makedirs(out, exist_ok=True)
        if args.command == "check":
            return cmd_check(cfg, out)
        if args.command == "synth":
            return cmd_synth(cfg, out)
        if args.command == "solve":
            return cmd_solve(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out, jobs=args.jobs, cli_seed=args.seed)
        return cmd_all(cfg, out, args.jobs, args.seed)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except KernelBoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
