"""Command-line front end.

Subcommands:
  criteria      analytic prediction for a config
  reduce        per-mode radial operators as CSV
  count         counting table N(lambda) over the configured study
  spectrum      counting table plus located eigenvalues per mode
  essspec       threshold probe vs. the analytic prediction
  weyl          counting-law fit vs. the analytic constants
  zeta          spectral zeta value with certified tail bound
  cut-check     threshold invariance under moving the cut radius Y0
  perturb-check threshold invariance under a compact potential bump
  selftest      run the acceptance battery

Exit codes: 0 success, 1 configuration/usage error, 2 numerical result
inconsistent with the analytic prediction.  Reports are byte-identical for
a fixed config and version.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace

from . import assemble, criteria, reduce as red, selftest, sturm, zeta
from .model import ConfigError, ProblemConfig, parse_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DISCREPANCY = 2

# CLI-level gates for the prediction-vs-numerics comparisons
WEYL_EXPONENT_TOL = 0.1
WEYL_CONSTANT_RTOL = 0.2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    p = _Parser(prog="cusplab", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    commands = ["criteria", "reduce", "count", "spectrum", "essspec", "weyl",
                "zeta", "cut-check", "perturb-check", "selftest"]
    for name in commands:
        sp = sub.add_parser(name)
        if name != "selftest":
            sp.add_argument("--config", required=True)
        sp.add_argument("--format", choices=["text", "csv", "json"], default="text")
        sp.add_argument("--out", default=None)
        sp.add_argument("--lambda-max", type=float, default=None)
        sp.add_argument("--domains", default=None)
        sp.add_argument("--grids", default=None)
    return p


def _load_config(args) -> ProblemConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    config = parse_config(text)
    num = config.numerics
    overrides = {}
    if args.lambda_max is not None:
        overrides["lambda_max"] = args.lambda_max
    if args.domains is not None:
        overrides["domains"] = tuple(float(t) for t in args.domains.split(","))
    if args.grids is not None:
        overrides["grids"] = tuple(int(t) for t in args.grids.split(","))
    if overrides:
        config = replace(config, numerics=replace(num, **overrides))
    return config


def _emit(args, payload: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _prediction_text(pred) -> str:
    lines = [f"classification: {pred.classification}"]
    if pred.essential_bottom is not None:
        lines.append(f"essential spectrum: [{pred.essential_bottom!r}, oo)")
        lines.append("thresholds: " + ", ".join(repr(t) for t in pred.thresholds))
    else:
        lines.append("thresholds: (none)")
    lines.append(f"weyl regime: {pred.weyl_regime}")
    for name, val in (("C1", pred.c1), ("C2", pred.c2), ("C3", pred.c3)):
        if val is not None:
            lines.append(f"{name} = {val!r}")
    if pred.c3_tail is not None:
        lines.append(f"C3 zeta tail bound = {pred.c3_tail!r}")
    for note in pred.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def cmd_criteria(args):
    config = _load_config(args)
    pred = criteria.classify(config)
    if args.format == "json":
        _emit(args, _json(criteria.prediction_to_dict(pred)))
    elif args.format == "csv":
        head = "classification,essential_bottom,weyl_regime,C1,C2,C3"
        row = ",".join([
            pred.classification,
            "" if pred.essential_bottom is None else repr(pred.essential_bottom),
            pred.weyl_regime,
            "" if pred.c1 is None else repr(pred.c1),
            "" if pred.c2 is None else repr(pred.c2),
            "" if pred.c3 is None else repr(pred.c3)])
        _emit(args, head + "\n" + row + "\n")
    else:
        _emit(args, _prediction_text(pred))
    return EXIT_OK


REDUCE_COLUMNS = ("mode", "nu", "multiplicity", "density_exp", "stiffness_exp",
                  "potential_terms", "threshold")


def cmd_reduce(args):
    config = _load_config(args)
    p = config.geometry.p
    records = []
    for m in red.enumerate_modes(config, config.numerics.lambda_max):
        op = red.mode_operator(config, m)
        terms = "+".join(f"{a!r}*y^{b!r}" for a, b in op.potential_terms) or "0"
        if op.bump is not None:
            terms += f"+bump{op.bump!r}".replace(" ", "")
        records.append(dict(zip(REDUCE_COLUMNS, (
            m.name, m.nu, m.multiplicity, op.density_exponent,
            op.stiffness_exponent, terms, red.mode_threshold(op, p)))))
    if args.format == "json":
        _emit(args, _json(records))
        return EXIT_OK
    # csv writes floats by repr, None as an empty field, and quotes fields
    # that contain commas (bump terms, torus mode labels)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REDUCE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    _emit(args, buf.getvalue())
    return EXIT_OK


def _counting_report(args, with_eigenvalues: bool):
    config = _load_config(args)
    return config, assemble.global_counting(config, with_eigenvalues=with_eigenvalues)


def cmd_count(args):
    _, report = _counting_report(args, with_eigenvalues=False)
    if args.format == "json":
        _emit(args, _json(assemble.report_to_dict(report)))
    elif args.format == "csv":
        _emit(args, assemble.report_to_csv(report))
    else:
        head = _prediction_text(report.prediction)
        body = assemble.report_two_column(report)
        stab = f"stable across domains: {report.stable}\n"
        _emit(args, head + stab + "# lambda  N\n" + body)
    return EXIT_OK


def cmd_spectrum(args):
    _, report = _counting_report(args, with_eigenvalues=True)
    if args.format == "json":
        _emit(args, _json(assemble.report_to_dict(report)))
    elif args.format == "csv":
        rows = ["mode,multiplicity,eigenvalue"]
        for r in report.modes:
            for ev in (r.eigenvalues or []):
                rows.append(f"{r.mode.name},{r.mode.multiplicity},{ev!r}")
        _emit(args, "\n".join(rows) + "\n")
    else:
        lines = [_prediction_text(report.prediction)]
        for r in report.modes:
            evs = ", ".join(f"{ev:.8g}" for ev in (r.eigenvalues or []))
            lines.append(f"mode {r.mode.name} (nu={r.mode.nu:.6g}, "
                         f"mult={r.mode.multiplicity}): {evs or '(none below window)'}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_essspec(args):
    config = _load_config(args)
    est = assemble.threshold_probe(config)
    payload = {
        "estimate": est.value, "error": est.error, "predicted": est.predicted,
        "inconclusive": est.inconclusive, "no_growth": est.no_growth,
        "consistent": est.consistent, "notes": list(est.notes),
    }
    if args.format == "json":
        _emit(args, _json(payload))
    elif args.format == "csv":
        _emit(args, "estimate,error,predicted,consistent\n"
              + ",".join(["" if est.value is None else repr(est.value),
                          repr(est.error),
                          "" if est.predicted is None else repr(est.predicted),
                          str(est.consistent)]) + "\n")
    else:
        if est.no_growth:
            txt = "no essential spectrum detected in the window (counts stable)\n"
        else:
            txt = f"threshold estimate: {est.value!r} +- {est.error!r}\n"
        txt += f"predicted: {est.predicted!r}\nconsistent: {est.consistent}\n"
        for n in est.notes:
            txt += f"note: {n}\n"
        _emit(args, txt)
    return EXIT_OK if est.consistent else EXIT_DISCREPANCY


def cmd_weyl(args):
    config = _load_config(args)
    report = assemble.global_counting(config)
    pred = report.prediction
    fit = assemble.weyl_fit(report, pred.weyl_regime, config.geometry.n,
                            config.geometry.pf)
    expected_exp = {criteria.POWER_N2: config.geometry.n / 2.0,
                    criteria.LOG_LAW: config.geometry.n / 2.0,
                    criteria.POWER_HALF_P: 1.0 / (2.0 * config.geometry.pf)}[pred.weyl_regime]
    const_pred = {criteria.POWER_N2: pred.c1, criteria.LOG_LAW: pred.c2,
                  criteria.POWER_HALF_P: pred.c3}[pred.weyl_regime]
    ok = abs(fit.exponent - expected_exp) <= WEYL_EXPONENT_TOL
    if const_pred is not None:
        ok = ok and abs(fit.constant / const_pred - 1.0) <= WEYL_CONSTANT_RTOL
    if not pred.is_pure_point:
        ok = True  # counts are truncation-dependent; fit is informational
    payload = {
        "regime": pred.weyl_regime, "model": fit.model,
        "exponent": fit.exponent, "expected_exponent": expected_exp,
        "constant": fit.constant, "predicted_constant": const_pred,
        "quality": fit.quality, "lambda_range": list(fit.lambda_range),
        "n_range": list(fit.n_range), "stable": report.stable,
        "truncation_dependent": report.truncation_dependent,
        "consistent": ok,
    }
    if args.format == "json":
        _emit(args, _json(payload))
    elif args.format == "csv":
        keys = ["regime", "exponent", "expected_exponent", "constant",
                "predicted_constant", "quality", "consistent"]
        _emit(args, ",".join(keys) + "\n"
              + ",".join(str(payload[k]) for k in keys) + "\n")
    else:
        lines = [f"{k}: {v}" for k, v in payload.items()]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_DISCREPANCY


def cmd_zeta(args):
    config = _load_config(args)
    if config.zeta_s is None:
        raise ConfigError("zeta subcommand needs zeta.s in the config")
    res = zeta.form_zeta(config.cross_section, config.degree, config.zeta_s,
                         config.zeta_shift)
    payload = {"s": config.zeta_s, "shift": config.zeta_shift,
               "degree": config.degree, "value": res.value,
               "tail_bound": res.tail, "terms": res.terms}
    if args.format == "json":
        _emit(args, _json(payload))
    elif args.format == "csv":
        _emit(args, "s,shift,degree,value,tail_bound,terms\n"
              + f"{config.zeta_s!r},{config.zeta_shift!r},{config.degree},"
              + f"{res.value!r},{res.tail!r},{res.terms}\n")
    else:
        _emit(args, f"zeta value: {res.value!r}\ncertified tail bound: "
              f"{res.tail!r}\nterms summed: {res.terms}\n")
    return EXIT_OK


def _check_payload(args, check, variants_to_dict):
    payload = {"passed": check.passed, "notes": list(check.notes),
               "variants": variants_to_dict(check.variants)}
    if args.format == "json":
        _emit(args, _json(payload))
    else:
        lines = [f"passed: {check.passed}"]
        for key, val in payload["variants"].items():
            lines.append(f"{key}: {val}")
        lines += [f"note: {n}" for n in check.notes]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if check.passed else EXIT_DISCREPANCY


def cmd_cut_check(args):
    config = _load_config(args)
    y0s = config.check_y0 or (config.geometry.y0, 2.0 * config.geometry.y0)
    check = assemble.cut_invariance_check(config, y0s)
    return _check_payload(args, check, lambda vs: {
        f"Y0={y0!r}": {"estimate": e.value, "error": e.error,
                       "no_growth": e.no_growth} for y0, e in vs.items()})


def cmd_perturb_check(args):
    config = _load_config(args)
    bump = config.check_bump or (config.geometry.y0 + 1.5, 1.0, 5.0)
    check = assemble.perturbation_stability_check(config, bump)
    return _check_payload(args, check, lambda vs: {
        key: {"estimate": e.value, "error": e.error, "no_growth": e.no_growth}
        for key, e in vs.items()})


def cmd_selftest(args):
    ok = selftest.run_all()
    return EXIT_OK if ok else EXIT_DISCREPANCY


_COMMANDS = {
    "criteria": cmd_criteria,
    "reduce": cmd_reduce,
    "count": cmd_count,
    "spectrum": cmd_spectrum,
    "essspec": cmd_essspec,
    "weyl": cmd_weyl,
    "zeta": cmd_zeta,
    "cut-check": cmd_cut_check,
    "perturb-check": cmd_perturb_check,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (criteria.CriteriaError, red.ReduceError, sturm.SturmError,
            assemble.AssembleError, zeta.ZetaError) as exc:
        print(f"error[invalid]: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
