"""Command-line front end.

Subcommands:
  sample       draw a batch of discretized field realizations -> batch.csv
  estimate     sample and estimate the covariance -> covariance.txt + report
  reconstruct  full pipeline at a single (n, M, L) -> report.json + spectra
  study        replicated (L, h, M) grid -> study_*.csv (+ cells/ for resume)
  plan         a-priori parameter coupling for a target accuracy -> plan.json

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 infeasible plan.
Single-combination commands (sample, estimate, reconstruct) use the first
element of each study list (ns, Ms, Ls) and draw with the configured seed.
"""

import argparse
import os
import sys

from . import artifacts, estimators, mercer, planner, spectral
from . import config as config_mod
from ._version import __version__
from .errors import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERIC, EXIT_OK,
                     ConfigError, InfeasiblePlanError, NumericError)

_CASE_NUMBERS = {tag: i for i, tag in enumerate(planner.CASES, 1)}
# how a study's replications share samples (see mercer.run_mesh)
_PAIRING = ("replication r on mesh i draws once, seeded rep_seed(seed, i, r); "
            "every (L, M) cell on mesh i reads its first M samples, so cells "
            "on one mesh are paired (common random numbers) and cells on "
            "different meshes are independent")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="covrecon",
        description="Covariance operator reconstruction from sampled "
                    "Gaussian field data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("sample", cmd_sample), ("estimate", cmd_estimate),
                     ("reconstruct", cmd_reconstruct), ("study", cmd_study),
                     ("plan", cmd_plan)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the config output directory")
        if name == "study":
            p.add_argument("--workers", type=int, default=1,
                           help="process pool size; each mesh's "
                                "replications are split among the workers")
            p.add_argument("--resume", action="store_true",
                           help="reuse completed cells from out/cells")
        if name == "plan":
            p.add_argument("--epsilon", type=float, required=True,
                           help="target accuracy in (0, 1)")
            p.add_argument("--regime", type=int, choices=(1, 2, 3),
                           default=None, help="force a planner case")
        p.set_defaults(handler=fn)
    return parser


def _load(args):
    cfg = config_mod.load_config(args.config, seed=args.seed,
                                 out_dir=args.out)
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _single(cfg):
    """The (n, M, L) combination used by single-shot commands."""
    return cfg.ns[0], cfg.Ms[0], cfg.Ls[0]


def cmd_sample(cfg, args):
    n, M, L = _single(cfg)
    exact = mercer.ExactSide(cfg.d, n, L)
    batch = mercer.draw(cfg, exact, M, cfg.seed)
    path = os.path.join(cfg.out_dir, "batch.csv")
    artifacts.write_batch_csv(path, batch, cfg)
    artifacts.write_sidecar(path[:-4] + ".meta.json", cfg,
                            n=n, M=M, Q_h=exact.space.dof_count,
                            mode=batch.mode, kl_trunc=batch.kl_trunc,
                            seed=batch.seed, field_kind=batch.field_kind)
    print("wrote %s (%d samples x %d dofs)" % (path, M, exact.space.dof_count))
    return EXIT_OK


def cmd_estimate(cfg, args):
    n, M, L = _single(cfg)
    exact = mercer.ExactSide(cfg.d, n, L)
    batch, cov = mercer.estimate(cfg, exact, M, cfg.seed)
    path = os.path.join(cfg.out_dir, "covariance.txt")
    artifacts.write_covariance(path, cov, cfg)
    check = estimators.decay_class_check(cov.matrix, cfg.alpha,
                                         cfg.calibration["C1"],
                                         cfg.calibration["C2"], cfg.d)
    report = dict(
        estimator=cov.estimator_kind, tau=cov.tau, M=cov.M,
        Q_h=exact.space.dof_count,
        decay_check=check._asdict(),
        rho_tilde=estimators.rho_tilde(exact.space.mesh.h, max(M, 1),
                                       cfg.alpha, cfg.d))
    if batch is not None:
        report["subgaussian"] = \
            estimators.subgaussian_diagnostic(batch)._asdict()
    artifacts.write_json(os.path.join(cfg.out_dir, "estimate_report.json"),
                         report, cfg)
    artifacts.write_sidecar(path[:-4] + ".meta.json", cfg, n=n, M=M)
    print("wrote %s (%s, tau=%d)" % (path, cov.estimator_kind, cov.tau))
    return EXIT_OK


def cmd_reconstruct(cfg, args):
    n, M, L = _single(cfg)
    exact = mercer.ExactSide(cfg.d, n, L)
    rep = mercer.replicate(cfg, exact, M, L, cfg.seed)
    spec, diag, report = rep.spectrum, rep.diagnostics, rep.errors
    payload = dict(
        n=n, M=rep.M, L=L, estimator=rep.estimator, tau=rep.tau,
        errors=vars(report),
        diagnostics=dict(
            diag._asdict(), eigenvalue_dev=diag.eigenvalue_dev[:L],
            p0=mercer.success_bound(cfg, exact, rep.tau, rep.M, L)))
    artifacts.write_json(os.path.join(cfg.out_dir, "report.json"), payload,
                         cfg)
    artifacts.write_spectrum_csv(os.path.join(cfg.out_dir, "spectrum.csv"),
                                 spectral.align_signs(exact.spectrum, spec),
                                 L, cfg)
    artifacts.write_spectrum_csv(
        os.path.join(cfg.out_dir, "spectrum_exact.csv"), exact.spectrum, L,
        cfg)
    artifacts.write_sidecar(os.path.join(cfg.out_dir, "report.meta.json"),
                            cfg, n=n, M=M, L=L)
    print("wrote %s (total=%.6g, e1=%.6g, e2=%.6g, e3=%.6g)"
          % (os.path.join(cfg.out_dir, "report.json"), report.total,
             report.e1, report.e2, report.e3))
    return EXIT_OK


def cmd_study(cfg, args):
    cell_dir = os.path.join(cfg.out_dir, "cells")
    resumed, rejected = [], []

    def load(idx):
        # only cells of this version and config are reused; a failed cell is
        # recomputed like a missing one
        cell = artifacts.load_cell(cell_dir, idx, cfg, rejected)
        if cell is not None and cell.ok:
            resumed.append(idx)
        return cell

    saver = lambda res: artifacts.save_cell(cell_dir, res, cfg)
    results = mercer.expected_error_study(
        cfg, workers=args.workers, cell_loader=load if args.resume else None,
        cell_saver=saver)
    rates = mercer.study_rates(results)
    summary, diag, rates_path = artifacts.write_study_csvs(
        cfg.out_dir, results, rates, cfg)
    failed = [r for r in results if not r.ok]
    artifacts.write_sidecar(os.path.join(cfg.out_dir, "study.meta.json"),
                            cfg, cells=len(results), failed=len(failed),
                            cells_resumed=len(resumed),
                            cells_rejected=len(rejected),
                            paired_cells=_PAIRING)
    for note in rejected:
        print(note, file=sys.stderr)
    print("study complete: %d cells (%d failed, %d resumed); wrote %s, %s, %s"
          % (len(results), len(failed), len(resumed), summary, diag,
             rates_path))
    for r in failed:
        print("  cell %d (L=%d, n=%d, M=%d) failed: %s"
              % (r.index, r.L, r.n, r.M, r.error), file=sys.stderr)
    return EXIT_OK


def _plan_payload(plan):
    return dict(
        epsilon=plan.epsilon, case=plan.case_tag,
        case_number=_CASE_NUMBERS[plan.case_tag], L=plan.L_eps, M=plan.M_eps,
        h=plan.h_eps, h_interval=list(plan.h_interval),
        thresholds=plan.thresholds, feasible=plan.feasible,
        reason=plan.reason, binding=plan.binding, p0_planned=plan.p0_planned,
        notes=plan.notes,
        candidates=[dict(case=tag, M=M, feasible=feas)
                    for tag, M, feas in plan.candidates])


def cmd_plan(cfg, args):
    if not 0.0 < args.epsilon < 1.0:
        raise ConfigError("--epsilon must lie in (0, 1), got %r"
                          % (args.epsilon,))
    profile = planner.brownian_profile(d=cfg.d, s=cfg.s, alpha=cfg.alpha,
                                       calibration=cfg.calibration)
    plan = planner.plan(profile, args.epsilon, regime=args.regime)
    artifacts.write_json(os.path.join(cfg.out_dir, "plan.json"),
                         _plan_payload(plan), cfg)
    print("regime: %s (case %d)" % (plan.case_tag,
                                    _CASE_NUMBERS[plan.case_tag]))
    print("epsilon: %s  L: %d  M: %d  (binding: %s)"
          % (artifacts.fmt(float(plan.epsilon)), plan.L_eps, plan.M_eps,
             plan.binding.get("M", "-")))
    if plan.feasible:
        print("h: %s  interval: [%s, %s]"
              % (artifacts.fmt(plan.h_eps), artifacts.fmt(plan.h_interval[0]),
                 artifacts.fmt(plan.h_interval[1])))
        print("p0(planned): %s" % (artifacts.fmt(plan.p0_planned),))
    thr = " ".join("%s=%d" % kv for kv in sorted(plan.thresholds.items()))
    if thr:
        print("thresholds: %s" % (thr,))
    print("feasible: %s  (%s)" % (plan.feasible, plan.reason))
    if not plan.feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        return args.handler(cfg, args)
    except ValueError as exc:  # ConfigError included
        print("config error: %s" % (exc,), file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print("numeric error: %s" % (exc,), file=sys.stderr)
        return EXIT_NUMERIC
    except InfeasiblePlanError as exc:
        print("infeasible plan: %s" % (exc,), file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
