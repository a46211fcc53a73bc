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
from collections import Counter
from dataclasses import replace
from typing import Optional

import numpy as np

from . import bounds, hypotheses, lyapunov, solver, verify
from .coefficients import PolynomialFamily
from .config import RunConfig, family_from_config, parse_config
from .errors import BudgetError, ConfigError, DomainError, KernelBoundError
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


def _key_rule(cfg: RunConfig, section: str, key: str, rule, *args, **kwargs):
    """rule(*args, **kwargs), the library's own check of a value that
    section.key set: its DomainError exits 2 and names the key and its line."""
    try:
        return rule(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError("%s: %s.%s is rejected: %s"
                          % (cfg._where(section, key), section, key, exc))


def _grid_params(cfg: RunConfig):
    d, radii, spacing = (cfg.get("grid", key) for key in ("d", "radii", "spacing"))
    for radius in radii:
        _key_rule(cfg, "grid", "spacing", solver.GridSpec, d, radius, spacing)
    return d, radii, spacing, cfg.get("grid", "dt"), cfg.get("grid", "theta")


def _key_or(cfg: RunConfig, section: str, key: str, default):
    """section.key, or default where it is unset and worked out from others."""
    value = cfg.get(section, key)
    return default if value is None else value


def _points_key(cfg: RunConfig, section: str, key: str, d: int,
                default=None) -> Optional[list]:
    mat = cfg.get(section, key)
    if mat is None:
        return default
    if mat.shape[1] != d:
        raise ConfigError("%s: %s.%s rows must have d = %d coordinates"
                          % (cfg._where(section, key), section, key, d))
    return [verify._loc_pt(row, d) for row in mat]


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


def _synthesize(cfg: RunConfig, fam, target: str):
    """Deterministic synthesis, with the [lyapunov] overrides for the forward
    target; its timed constant c0 is left for a certificate to calibrate."""
    fn = lyapunov.synth_poly if isinstance(fam, PolynomialFamily) \
        else lyapunov.synth_exp
    result = fn(fam, cfg.get("lyapunov", "T"), target=target)
    return _apply_overrides(cfg, result) if target == "P" else result


def _apply_overrides(cfg: RunConfig, result):
    # forward-target overrides from [lyapunov]; adjoint synthesis is left alone
    given = {key: cfg.get("lyapunov", key)
             for key in ("rho", "eps_hat", "sigma", "delta")}
    given = {key: value for key, value in given.items() if value is not None}
    if not given:
        return result
    static = replace(result.static, **{key: given[key] for key in
                                       ("rho", "eps_hat") if key in given})
    # the domains of rho and eps_hat are the spec's; delta's interval is
    # sigma's, so a rejected delta is named, or else the sigma that moved it
    timed = _key_rule(cfg, "lyapunov", "delta" if "delta" in given else "sigma",
                      replace, result.timed, base=static, c0=None,
                      **{key: given[key] for key in ("sigma", "delta") if key in given})
    return replace(result, static=static, timed=timed)


def _bounds_params(cfg: RunConfig, d: int):
    """s, the fixed window or None, t_ref and eps_scales from [bounds]; the
    eps scales obey the majorant's own rule."""
    s = _key_or(cfg, "bounds", "s", float(d + 3))
    if s <= d + 2:
        raise ConfigError("%s: bounds.s must exceed d + 2 = %d, got %s"
                          % (cfg._where("bounds", "s"), d + 2, _g(s)))
    return (s, cfg.get("bounds", "window"), cfg.get("bounds", "t_ref"),
            _key_rule(cfg, "bounds", "eps_scales", verify.checked_eps_scales,
                      tuple(cfg.get("bounds", "eps_scales"))))


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, out: str) -> int:
    fam = family_from_config(cfg)
    reports, _ = hypotheses.check_base(fam, radius=cfg.get("verify", "radius"))
    text = hypotheses.report_text(reports)
    _write(os.path.join(out, "hypotheses.txt"), text)
    _write(os.path.join(out, "hypotheses.csv"), hypotheses.margins_csv(reports))
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_PASS if all(r.ok for r in reports) else EXIT_MATH


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _timed_lines(label: str, timed) -> list:
    """The certified time-dependent weight's parameters, one line each."""
    return ["%s.%s: %s" % (label, key, _g(getattr(timed, key)))
            for key in ("T", "sigma", "delta", "eps_T", "c0")]


def _spec_lines(label: str, result, static_rep, timed_rep) -> list:
    st = result.static
    lines = [
        "%s.form: %s" % (label, st.form),
        "%s.target: %s" % (label, st.target),
        "%s.rho: %s" % (label, _g(st.rho)),
        "%s.eps_hat: %s" % (label, _g(st.eps_hat)),
        "%s.lam: %s" % (label, _g(st.lam)),
    ] + _timed_lines(label, result.timed)
    for tag, rep in (("static", static_rep), ("timed", timed_rep)):
        lines.append("%s.%s_sup: %s -> %s (radius %s, %s)"
                     % (label, tag, _g(rep.sup_coarse), _g(rep.sup_fine),
                        _g(rep.radius), "stable" if rep.passed else "drifting"))
    return lines


def _ledger_text(forward, adjoint, H: float, H_star: float) -> str:
    a0, a, b, b0 = forward.window
    lines = ["constants ledger",
             "d: %d" % forward.d,
             "s: %s" % _g(forward.s),
             "window: %s %s %s %s" % (_g(a0), _g(a), _g(b), _g(b0)),
             "M: %s" % _g(forward.M),
             "M_star: %s" % _g(adjoint.M),
             "item forward adjoint boundary boundary_star"]
    for name, c, cs, fb, ab in zip(bounds.LEDGER_ITEMS, forward.c, adjoint.c,
                                   forward.boundary_flags, adjoint.boundary_flags):
        lines.append("%s %s %s %s %s" % (name, _g(c), _g(cs), "edge" if fb else "interior",
                                         "edge" if ab else "interior"))
    lines.append("majorant: %s" % _g(H))
    lines.append("majorant_star: %s" % _g(H_star))
    return "\n".join(lines) + "\n"


def _certificate_text(d: int, s: float, weight, weight_star, lam, c_hat, lam_star,
                      H: float, H_star: float) -> str:
    kind = "polynomial" if weight.form == "power" else "exponential"
    lines = ["bound certificate", "kind: %s" % kind, "d: %d" % d]

    def shape(w, tag: str) -> list:
        return [(name + tag, getattr(w, name)) for name in ("eps", "sigma", "rho")]

    # the parameters the family's kind leaves unset are left out
    for name, value in [("s", s), *shape(weight, ""), ("lam", lam), ("c_hat", c_hat),
                        *shape(weight_star, "_star"), ("lam_star", lam_star)]:
        if value is not None:
            lines.append("%s: %s" % (name, _g(value)))
    lines.append("majorant: %s" % _g(H))
    lines.append("majorant_star: %s" % _g(H_star))
    return "\n".join(lines) + "\n"


def cmd_synth(cfg: RunConfig, out: str) -> int:
    fam = family_from_config(cfg)
    d = fam.dims.d
    s, window, t_ref, eps_scales = _bounds_params(cfg, d)
    radius = cfg.get("lyapunov", "radius")
    # only the exponential bound has a singular prefactor
    c_hat = None if isinstance(fam, PolynomialFamily) else _key_rule(
        cfg, "bounds", "c_hat", bounds.checked_c_hat, d, cfg.get("bounds", "c_hat"))
    # in memory, so synth writes no store files; the static, timed and nu1
    # certificates of a target share the family's two grids of that target
    store = verify.KernelStore()

    def certified(target: str) -> tuple:
        result = _synthesize(cfg, fam, target)
        timed, static = (verify.stored_certificate(fam, spec, radius, store)
                         for spec in (result.timed, result.static))
        return (replace(result, static=static.certified, timed=timed.certified),
                static, timed)

    forward, rep_fs, rep_ft = certified("P")
    adjoint, rep_as, rep_at = certified("P_adjoint")

    led_f, H = verify.weighted_majorant(fam, forward, s, t=t_ref,
                                        eps_scales=eps_scales,
                                        cert_radius=radius, window=window,
                                        store=store)
    led_a, H_star = verify.weighted_majorant(fam, adjoint, s, t=t_ref,
                                             eps_scales=eps_scales,
                                             adjoint=True, cert_radius=radius,
                                             window=window, store=store)

    if isinstance(fam, PolynomialFamily):
        lam = bounds.eval_lambda_poly(fam, forward.timed.sigma,
                                      forward.static.rho)
        lam_star = bounds.eval_lambda_poly(fam, adjoint.timed.sigma,
                                           adjoint.static.rho)
    else:
        lam = lam_star = None

    lyap_lines = ["lyapunov certificate"]
    lyap_lines += _spec_lines("forward", forward, rep_fs, rep_ft)
    lyap_lines += _spec_lines("adjoint", adjoint, rep_as, rep_at)
    _write(os.path.join(out, "lyapunov_certificate.txt"),
           "\n".join(lyap_lines) + "\n")

    time_lines = ["time-dependent weight"]
    for label, res in (("forward", forward), ("adjoint", adjoint)):
        ti = res.timed
        time_lines += _timed_lines(label, ti) + ["%s.G_at_T: %s" % (label, _g(ti.G(ti.T)))]
    _write(os.path.join(out, "time_spec.txt"), "\n".join(time_lines) + "\n")

    _write(os.path.join(out, "ledger.txt"), _ledger_text(led_f, led_a, H, H_star))
    _write(os.path.join(out, "certificate.txt"),
           _certificate_text(d, s, forward.timed.weight(), adjoint.timed.weight(),
                             lam, c_hat, lam_star, H, H_star))

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

def _name_number(x) -> str:
    """%g of x when it reads back as x, else repr, so two numbers that agree
    to six digits still name two files."""
    text = "%g" % float(x)
    return text if float(text) == float(x) else repr(float(x))


def _column_name(variant: str, t: float, row, k: int) -> str:
    coords = "_".join(_name_number(v) for v in np.atleast_1d(row))
    return "column_%s_t%s_y%s_k%d.csv" % (variant, _name_number(t), coords, k)


def _plan_line(counts: Counter) -> str:
    """The PLAN_COUNTS of run_plan calls, as the closing lines print them."""
    return ", ".join("%d %s" % (counts[name], name) for name in verify.PLAN_COUNTS)


def cmd_solve(cfg: RunConfig, out: str) -> int:
    fam = family_from_config(cfg)
    d, radii, spacing, dt, theta = _grid_params(cfg)
    grid = solver.GridSpec(d, radii[-1], spacing)

    sources = _points_key(cfg, "solve", "sources", d)
    if sources is None:
        print("solve: no sources requested; store left empty")
        return EXIT_PASS
    for y in sources:
        _key_rule(cfg, "solve", "sources", grid.source_point, y)
    components = _components(cfg, "solve", fam.dims.m)
    times, width, budget = (cfg.get("solve", key)
                            for key in ("times", "width", "budget"))

    store = verify.KernelStore(os.path.join(out, "store"))
    wall = time.perf_counter()
    runs = [(variant, t, center) for variant in cfg.get("solve", "variants")
            for t in times for center in sources]
    columns, plan = verify.run_plan(
        fam, [verify.Evolution.of_sources(variant, grid, t,
                                          [(center, k) for k in components],
                                          width, dt, theta)
              for variant, t, center in runs], store, budget=budget)
    written = 0
    for (variant, t, center), fields in zip(runs, columns):
        for k, field in zip(components, fields):
            name = _column_name(variant, t, center, k)
            solver.save_field_csv(os.path.join(out, name), grid, field)
            written += 1
            print("solve: %s t=%g y=%s k=%d -> %s"
                  % (variant, t,
                     ",".join("%g" % v for v in np.atleast_1d(center)),
                     k, name))
    print("solve: wrote %d columns in %.3fs (store size %d); plan: %s"
          % (written, time.perf_counter() - wall, len(store), _plan_line(plan)))
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
    t_single = _key_or(cfg, "verify", "t_single", sorted(tset)[len(tset) // 2])
    origin = [verify._loc_pt(np.zeros(d), d)]
    xs = _points_key(cfg, "verify", "x", d, origin)
    srcs = _points_key(cfg, "verify", "sources", d,
                       _points_key(cfg, "solve", "sources", d, origin))
    # the key that set the sources; the origin is a node of every grid
    src_key = "verify" if cfg.get("verify", "sources") is not None else "solve"

    def held(section: str, key: str, rule, points):
        # rule must hold at each point, else the key that set it exits 2
        for p in points:
            _key_rule(cfg, section, key, rule, p)

    held(src_key, "sources", grid.source_point, srcs)
    components = _components(cfg, "verify", fam.dims.m)
    width = _key_or(cfg, "verify", "width", cfg.get("solve", "width"))
    cert_radius = cfg.get("lyapunov", "radius")
    tol = {name: cfg.get("verify", "tol_" + name) for name in checks}
    store = verify.KernelStore(os.path.join(out, "store"))
    src_pairs = [(y, k) for y in srcs for k in components]

    # the checks share the syntheses, so each is made once, and calibrate
    # the growth constants they read when they measure, after the plan; the
    # weighted check is two-sided exactly when it is given the adjoint one
    needs_synth = {"integrability", "weighted", "decay"}.intersection(checks)
    fwd = adj = None
    if needs_synth:
        fwd = _synthesize(cfg, fam, "P")
        if "weighted" in checks and cfg.get("verify", "two_sided"):
            adj = _synthesize(cfg, fam, "P_adjoint")

    checks_run = []
    for name in checks:
        if name == "domination":
            checks_run.append(verify.Domination(fam, grid, t_single, src_pairs, dt,
                                                width, tol["domination"], seed=seed))
        elif name == "monotone":
            held(src_key, "sources", solver.GridSpec(d, min(radii), spacing).source_point,
                 srcs[:1])
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
            held("verify", "x", grid.node_of, xs[:1])
            held(src_key, "sources", grid.node_of, srcs[:1])
            pairs = [(xs[0], h, srcs[0], k)
                     for h in components for k in components]
            checks_run.append(verify.Duality(fam, grid, t_single, pairs, dt,
                                             width, tol["duality"], theta))
        elif name == "chapman":
            s_split = _key_or(cfg, "verify", "chapman_s", t_single / 2.0)
            checks_run.append(verify.ChapmanKolmogorov(
                fam, grid, t_single, s_split, dt=dt, tol=tol["chapman"],
                seed=seed))
        elif name == "integrability":
            held("verify", "x", grid.node_of, xs)
            t_int = _key_or(cfg, "verify", "t_integrability", tset)
            checks_run.append(verify.LyapunovIntegrability(
                fam, fwd.timed, grid, t_int, xs, tol=tol["integrability"],
                dt=dt, cert_radius=cert_radius))
        elif name == "weighted":
            s, _, t_ref, eps_scales = _bounds_params(cfg, d)
            t_w = _key_or(cfg, "verify", "t_weighted", [t_ref])
            coarse = _key_or(cfg, "verify", "coarse", [2.0 * spacing, radii[-1] / 2.0])
            fine = _key_or(cfg, "verify", "fine", [spacing, radii[-1]])
            for key, (sp, radius) in (("coarse", coarse), ("fine", fine)):
                pair = _key_rule(cfg, "verify", key, solver.GridSpec, d, radius, sp)
                held(src_key, "sources", pair.source_point, srcs)
            checks_run.append(verify.WeightedBound(
                fam, fwd, s, t_w, srcs, tuple(coarse), tuple(fine), eps_scales,
                tol["weighted"], dt, width, theta, adj,
                cfg.get("verify", "majorant_scale"), cert_radius))
        elif name == "decay":
            held("verify", "x", grid.source_point, xs[:1])
            e_scale = cfg.get("verify", "decay_eps_scale")
            checks_run.append(verify.DecayShape(
                fam, grid, cfg.get("verify", "t_decay"), xs[0], components[0],
                fwd.timed.scaled(e_scale).weight(), dt, width,
                slack=tol["decay"]))
    plots = [verify.Evolution.of_sources("P", grid, t_single,
                                         [(srcs[0], components[0])], width,
                                         dt, theta)] \
        if "svg" in cfg.get("output", "formats") else []

    # the study's plan and the checks' share only the store
    wall = time.perf_counter()
    plan, radius = Counter(), None
    moved = [c for c in checks_run if isinstance(c, verify.WORKING_RADIUS_CHECKS)]
    if moved:
        reach = max(float(np.max(np.abs(p))) for p in srcs + xs)
        study = verify.WorkingRadius(fam, radii, spacing,
                                     max(c.horizon for c in moved), srcs[0],
                                     width, dt, theta, reach)
        outputs, counts = verify.run_plan(fam, study.requests, store, jobs) \
            if study.requests else ([], Counter())
        radius = study.measure(outputs)
        plan.update(counts)
        working = solver.GridSpec(d, radius.radius, spacing)
        checks_run = [replace(check, grid=working) if check in moved else check
                      for check in checks_run]
    # the plan and the checks share each declaration's requests, so the
    # data of each request is built and hashed once, and each check
    # measures its own slice of the outputs, which are in request order
    requests = [req for check in checks_run for req in check.requests] + plots
    outputs, counts = verify.run_plan(fam, requests, store, jobs)
    plan.update(counts)
    results, start = [], 0
    for check in checks_run:
        _release_freed_memory()
        stop = start + len(check.requests)
        results.append(getattr(verify, check.name)(check, outputs[start:stop], store))
        start = stop

    summary = verify.summary_text(results, radius)
    _write(os.path.join(out, "verify_summary.txt"), summary)
    _write(os.path.join(out, "verify_results.csv"),
           verify.results_csv(results))
    for r in results:
        if r.check == "check_weighted_bound":
            # written for the reader; no run reads it back
            _write(os.path.join(out, "calibration.txt"),
                   "C_cal = %.17g\n" % r.details["C_cal"])
    if plots:
        _write_plots(out, fam, plots[0], outputs[-1], results)
    sys.stdout.write(summary if summary.endswith("\n") else summary + "\n")
    print("verify: %d check runs in %.3fs; plan: %s"
          % (len(results), time.perf_counter() - wall, _plan_line(plan)))
    return EXIT_PASS if all(r.passed for r in results) else EXIT_MATH


def _write_plots(out, fam, column, fields, results):
    """SVG plots: the planned kernel column, given its output, mass decay,
    weighted ratios."""
    field, = fields
    grid, t_plot = column.grid, column.t
    pts = grid.points()
    if grid.d == 1:
        mask = np.ones(len(pts), dtype=bool)
    else:
        mask = np.abs(pts[:, 1]) < 1e-12
    axis = pts[mask, 0]
    series = [("component %d" % k, axis, field[mask, k])
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
