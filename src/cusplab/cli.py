"""Command-line front end.

Subcommands and the formats each writes (the first is the default):

  criteria      analytic prediction for a config                text|csv|json
  reduce        per-mode radial operators                       csv|json
  count         counting table N(lambda) over the study         text|csv|json
  spectrum      counting table plus located eigenvalues         text|csv|json
  essspec       threshold probe vs. the analytic prediction     text|csv|json
  weyl          counting-law fit vs. the analytic constants     text|csv|json
  zeta          spectral zeta value with certified tail bound   text|csv|json
  cut-check     threshold invariance under moving the cut Y0    text|json
  perturb-check threshold invariance under a compact bump       text|json
  selftest      run the acceptance battery

Every command but selftest takes --config PATH (required), --format and
--out PATH; selftest takes no flags.  This module writes every report: the
layers below it return data only.  The numerics come from the config
alone, so a report can be rebuilt from its config.  Every numeric command,
reduce included, works up to the top of numerics.lambda_grid.

Exit codes: 0 success, 1 configuration/usage error or an inconclusive
comparison (the report is written, then one error[inconclusive] line; for
weyl, a pure-point counting table that is not domain-stable), 2 a
numerical result that conclusively disagrees with the analytic prediction.
Reports are byte-identical for a fixed config and version.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import assemble, criteria, reduce as red, selftest, sturm, zeta
from .model import ConfigError, ProblemConfig, parse_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DISCREPANCY = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser():
    """The parser of every subcommand, built once per process; `_Parser.error`
    raises, so parsing leaves nothing behind for the next call."""
    p = _Parser(prog="cusplab", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, formats) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        if formats:
            sp.add_argument("--config", required=True)
            sp.add_argument("--format", choices=formats, default=formats[0])
            sp.add_argument("--out", default=None)
    return p


def _load_config(args) -> ProblemConfig:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    return parse_config(text)


def _emit(args, record, text, columns=(), rows=()):
    """Write the report in the chosen format to --out or stdout.

    json dumps `record`; csv writes `rows` (dicts, read by `columns`) with
    the csv module: floats by repr, None as an empty field, fields with
    commas quoted; text writes `text`.  An --out that cannot be written is
    a usage error.
    """
    if args.format == "json":
        payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        payload = buf.getvalue()
    else:
        payload = text
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(payload)


def _verdict(agrees, notes) -> int:
    """Exit code of a comparison: 2 only for a conclusive mismatch.

    An inconclusive one (None) gets one error[inconclusive] line naming the
    reason and exits 1; its report has been written already.
    """
    if agrees is None:
        print("error[inconclusive]: " + "; ".join(notes), file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK if agrees else EXIT_DISCREPANCY


def _prediction_text(pred) -> str:
    lines = [f"classification: {pred.classification}"]
    if pred.essential_bottom is not None:
        lines.append(f"essential spectrum: [{pred.essential_bottom!r}, oo)")
        lines.append("thresholds: " + ", ".join(repr(t) for t in pred.thresholds))
    else:
        lines.append("thresholds: (none)")
    lines.append(f"weyl regime: {pred.weyl_regime}")
    for name, val in pred.constants.items():
        if val is not None:
            lines.append(f"{name} = {val!r}")
    if pred.c3_tail is not None:
        lines.append(f"C3 zeta tail bound = {pred.c3_tail!r}")
    for note in pred.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _prediction_dict(pred) -> dict:
    return {
        "classification": pred.classification,
        "essential_bottom": pred.essential_bottom,
        "thresholds": list(pred.thresholds),
        "weyl_regime": pred.weyl_regime,
        "constants": {**pred.constants, "C3_tail": pred.c3_tail},
        "notes": list(pred.notes),
    }


def _report_dict(report) -> dict:
    return {
        "lambda": [float(x) for x in report.lambda_grid],
        "N_total": [int(x) for x in report.n_total],
        "modes": [{
            "label": r.mode.name,
            "nu": r.mode.nu,
            "multiplicity": r.mode.multiplicity,
            "sector": r.mode.sector,
            "counts": [int(c) for c in r.counts],
            "eigenvalues": r.eigenvalues,
        } for r in report.modes],
        "totals_by_combo": {
            f"grid={g},domain={t!r}": [int(x) for x in v]
            for (g, t), v in sorted(report.totals_by_combo.items())},
        "stable": report.stable,
        "truncation_dependent": report.truncation_dependent,
        "prediction": _prediction_dict(report.prediction),
        "meta": report.meta,
        "notes": list(report.notes),
    }


def cmd_criteria(args):
    pred = criteria.classify(_load_config(args))
    row = {"classification": pred.classification,
           "essential_bottom": pred.essential_bottom,
           "weyl_regime": pred.weyl_regime, **pred.constants}
    _emit(args, _prediction_dict(pred), _prediction_text(pred), list(row), [row])
    return EXIT_OK


REDUCE_COLUMNS = ("mode", "nu", "multiplicity", "density_exp", "stiffness_exp",
                  "potential_terms", "threshold")


def cmd_reduce(args):
    config = _load_config(args)
    p = config.geometry.p
    records = []
    for m in red.enumerate_modes(config, float(config.numerics.lambdas()[-1])):
        op = red.mode_operator(config, m)
        terms = "+".join(f"{a!r}*y^{b!r}" for a, b in op.potential_terms) or "0"
        if op.bump is not None:
            terms += f"+bump{op.bump!r}".replace(" ", "")
        records.append(dict(zip(REDUCE_COLUMNS, (
            m.name, m.nu, m.multiplicity, op.density_exponent,
            op.stiffness_exponent, terms, red.mode_threshold(op, p)))))
    _emit(args, records, None, REDUCE_COLUMNS, records)
    return EXIT_OK


def cmd_count(args):
    report = assemble.global_counting(_load_config(args))
    columns = ["lambda", "N_total"] + [f"N_mode_{r.mode.name}" for r in report.modes]
    rows = [dict(zip(columns, [float(lam), int(report.n_total[i])]
                     + [int(r.counts[i]) for r in report.modes]))
            for i, lam in enumerate(report.lambda_grid)]
    text = (_prediction_text(report.prediction)
            + f"stable across domains: {report.stable}\n"
            + "# lambda  N\n" + "".join(f"{r['lambda']!r} {r['N_total']}\n" for r in rows))
    _emit(args, _report_dict(report), text, columns, rows)
    return EXIT_OK


def cmd_spectrum(args):
    report = assemble.global_counting(_load_config(args), with_eigenvalues=True)
    rows = [{"mode": r.mode.name, "multiplicity": r.mode.multiplicity, "eigenvalue": ev}
            for r in report.modes for ev in (r.eigenvalues or [])]
    lines = [_prediction_text(report.prediction)]
    for r in report.modes:
        evs = ", ".join(f"{ev:.8g}" for ev in (r.eigenvalues or []))
        lines.append(f"mode {r.mode.name} (nu={r.mode.nu:.6g}, "
                     f"mult={r.mode.multiplicity}): {evs or '(none below window)'}")
    _emit(args, _report_dict(report), "\n".join(lines) + "\n",
          ("mode", "multiplicity", "eigenvalue"), rows)
    return EXIT_OK


def cmd_essspec(args):
    est = assemble.threshold_probe(_load_config(args))
    payload = {
        "estimate": est.value, "error": est.error, "predicted": est.predicted,
        "inconclusive": est.inconclusive, "no_growth": est.no_growth,
        "consistent": est.consistent, "notes": list(est.notes),
    }
    if est.no_growth:
        txt = "no essential spectrum detected in the window\n"
    else:
        txt = f"threshold estimate: {est.value!r} +- {est.error!r}\n"
    txt += f"predicted: {est.predicted!r}\nconsistent: {est.consistent}\n"
    txt += "".join(f"note: {n}\n" for n in est.notes)
    _emit(args, payload, txt, ("estimate", "error", "predicted", "consistent"), [payload])
    return _verdict(est.consistent, est.notes)


def cmd_weyl(args):
    config = _load_config(args)
    assemble.require_two_domains(config, "weyl")
    report = assemble.global_counting(config)
    fit = assemble.weyl_fit(report)
    pred = report.prediction
    payload = {
        "regime": pred.weyl_regime, "model": fit.model,
        "exponent": fit.exponent, "expected_exponent": pred.weyl_exponent,
        "constant": fit.constant, "predicted_constant": pred.weyl_constant,
        "quality": fit.quality, "lambda_range": list(fit.lambda_range),
        "n_range": list(fit.n_range), "stable": report.stable,
        "truncation_dependent": report.truncation_dependent,
        "consistent": fit.consistent,
    }
    text = "".join(f"{k}: {v}\n" for k, v in payload.items())
    _emit(args, payload, text, ("regime", "exponent", "expected_exponent", "constant",
                                "predicted_constant", "quality", "consistent"), [payload])
    return _verdict(fit.consistent, fit.notes)


def cmd_zeta(args):
    config = _load_config(args)
    if config.zeta_s is None:
        raise ConfigError("zeta subcommand needs zeta.s in the config")
    res = zeta.form_zeta(config.cross_section, config.degree, config.zeta_s,
                         config.zeta_shift)
    payload = {"s": config.zeta_s, "shift": config.zeta_shift,
               "degree": config.degree, "value": res.value,
               "tail_bound": res.tail, "terms": res.terms}
    text = (f"zeta value: {res.value!r}\ncertified tail bound: "
            f"{res.tail!r}\nterms summed: {res.terms}\n")
    _emit(args, payload, text, ("s", "shift", "degree", "value", "tail_bound", "terms"),
          [payload])
    return EXIT_OK


def _check_report(args, check):
    variants = {name: {"estimate": e.value, "error": e.error, "no_growth": e.no_growth}
                for name, e in check.variants.items()}
    payload = {"passed": check.passed, "notes": list(check.notes), "variants": variants}
    lines = [f"passed: {check.passed}"]
    lines += [f"{key}: {val}" for key, val in variants.items()]
    lines += [f"note: {n}" for n in check.notes]
    _emit(args, payload, "\n".join(lines) + "\n")
    return _verdict(check.passed, check.notes)


def cmd_cut_check(args):
    return _check_report(args, assemble.cut_invariance_check(_load_config(args)))


def cmd_perturb_check(args):
    return _check_report(args, assemble.perturbation_stability_check(_load_config(args)))


def cmd_selftest(args):
    return EXIT_OK if selftest.run_all() else EXIT_DISCREPANCY


_TEXT_CSV_JSON = ("text", "csv", "json")

#: subcommand -> (handler, formats it writes with the default first); --help
#: of each subcommand lists exactly these
_SUBCOMMANDS = {
    "criteria": (cmd_criteria, _TEXT_CSV_JSON),
    "reduce": (cmd_reduce, ("csv", "json")),
    "count": (cmd_count, _TEXT_CSV_JSON),
    "spectrum": (cmd_spectrum, _TEXT_CSV_JSON),
    "essspec": (cmd_essspec, _TEXT_CSV_JSON),
    "weyl": (cmd_weyl, _TEXT_CSV_JSON),
    "zeta": (cmd_zeta, _TEXT_CSV_JSON),
    "cut-check": (cmd_cut_check, ("text", "json")),
    "perturb-check": (cmd_perturb_check, ("text", "json")),
    "selftest": (cmd_selftest, ()),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _SUBCOMMANDS[args.command][0](args)
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
