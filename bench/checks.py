"""Output checks. Each returns a list of problems; an empty list passes.

The sweep checks rebuild what the output must satisfy from the output
itself: per-cell row counts against fits.csv, value ranges, and every
fits.csv row against fit_gamma_mle/fit_rayleigh_mle refit from that cell's
deviations.csv column. The fit check is independent of pwesim: the Gamma
score equation is evaluated with scipy's digamma and the Rayleigh scale in
closed form.
"""

import csv
import hashlib
import json
import math

import numpy as np

SWEEP_FILES = ("deviations.csv", "fits.csv", "histograms.csv")
SCORE_TOL = 1e-10
LOG_CLAMP = 1e-9      # pwesim.statfit clamps zero samples to this before logs


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out_dir):
    return {name: sha256(out_dir / name) for name in SWEEP_FILES}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out_dir, d_r_values, m_sides, n_trials, n_bins):
    """Structure of one sweep output directory; returns (problems, failures)."""
    from pwesim.statfit import (DegenerateDataError, DeviationDataset, fit_gamma_mle,
                                fit_rayleigh_mle)

    problems = []
    try:
        dev = _rows(out_dir / "deviations.csv")
        fits = _rows(out_dir / "fits.csv")
        hist = _rows(out_dir / "histograms.csv")
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        return [f"unreadable output: {exc}"], 0
    cells = [(m, d) for m in m_sides for d in d_r_values]
    if [(int(r["m_side"]), float(r["d_r"])) for r in fits] != cells:
        return ["fits.csv cells differ from the config"], 0
    failures = 0
    try:
        for (m, d), fit in zip(cells, fits):
            name = f"cell d_r={d} M={m}"
            rows = [r for r in dev if float(r["d_r"]) == d and int(r["m_side"]) == m]
            n_fail = int(fit["n_failures"])
            failures += n_fail
            if len(rows) != n_trials * m * m - n_fail or int(fit["n_samples"]) != len(rows):
                problems.append(f"{name}: {len(rows)} rows, expected "
                                f"{n_trials} x {m * m} - {n_fail}")
            phi = np.array([float(r["phi_deg"]) for r in rows])
            if not ((phi >= 0.0) & (phi <= 180.0)).all():
                problems.append(f"{name}: phi_deg outside [0, 180]")
            if any(int(r["path_len"]) < 2 for r in rows):
                problems.append(f"{name}: path_len below 2")
            if any(not (0 <= int(r["trial"]) < n_trials and 0 <= int(r["antenna_index"]) < m * m)
                   for r in rows):
                problems.append(f"{name}: trial or antenna index out of range")
            data = DeviationDataset(samples=phi, d_r=d, m=m * m)
            gamma = fit_gamma_mle(data)
            rayleigh = fit_rayleigh_mle(data)
            refit = {"k_hat": gamma.k_hat, "theta_hat": gamma.theta_hat,
                     "loglik_gamma": gamma.log_likelihood,
                     "sigma_hat": rayleigh.sigma_hat,
                     "loglik_rayleigh": rayleigh.log_likelihood}
            for key, value in refit.items():
                if float(fit[key]) != value:
                    problems.append(f"{name}: {key} {fit[key]} != refit {value!r}")
            counts = [int(r["count"]) for r in hist
                      if float(r["d_r"]) == d and int(r["m_side"]) == m]
            if len(counts) != n_bins or sum(counts) != len(rows):
                problems.append(f"{name}: histogram has {len(counts)} bins "
                                f"holding {sum(counts)} samples")
    except (KeyError, ValueError, TypeError, DegenerateDataError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems, failures


def check_fit(out_path, samples):
    """fit JSON against the Gamma score equation and the Rayleigh closed form."""
    from scipy.special import digamma

    try:
        out = json.loads(out_path.read_text(encoding="utf-8"))
        n = out["n"]
        k = float(out["gamma"]["k_hat"])
        theta = float(out["gamma"]["theta_hat"])
        sigma = float(out["rayleigh"]["sigma_hat"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable fit output: {exc!r}"]
    problems = []
    if n != len(samples):
        problems.append(f"n = {n}, input has {len(samples)} rows")
    x = np.maximum(samples, LOG_CLAMP)
    mean = math.fsum(x) / len(x)
    s = math.log(mean) - math.fsum(np.log(x)) / len(x)
    if not k > 0.0:
        return problems + [f"k_hat = {k} is not positive"]
    residual = abs(math.log(k) - float(digamma(k)) - s)
    if not residual < SCORE_TOL:
        problems.append(f"gamma score residual {residual:.3e} >= {SCORE_TOL}")
    if not math.isclose(theta, mean / k, rel_tol=1e-12):
        problems.append(f"theta_hat {theta!r} != mean / k_hat")
    expected = math.sqrt(math.fsum(samples * samples) / (2 * len(samples)))
    if not math.isclose(sigma, expected, rel_tol=1e-12):
        problems.append(f"sigma_hat {sigma!r} != sqrt(sum x^2 / 2N) = {expected!r}")
    return problems
