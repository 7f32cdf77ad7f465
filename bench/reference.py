"""Reference computations made apart from the program, and the checks.

Nothing here imports ``sharptail``.  The environment is drawn again from
the seed with the documented splitmix64/PCG64DXSM derivation, written out
below.  The summand CGFs use other closed forms than the program
(``log1p(p expm1(x))`` against its ``logaddexp``).  Saddle points come from
``scipy.optimize.brentq`` on pairwise ``np.sum`` means, curve values from
``scipy.integrate.quad``, and the CF modulus from the closed-form tilted
Bernoulli modulus.  Exact sums are not used.  The tolerances below are set
from that difference in arithmetic, far above its rounding error and far
below the perturbations of ``PERTURBATIONS``.

For each operation kind, ``reference`` computes what the record must hold
(expensive, once per operation) and ``compare`` returns one
``(check, ok, detail)`` triple per check.  ``self_test`` applies each
perturbation in ``PERTURBATIONS`` to a copy of a good record and requires
the named check to fail.
"""

from __future__ import annotations

import copy
import math
import warnings

import numpy as np
from scipy import integrate, optimize

import workloads as wl

LOG_TINY = math.log(1e-300)
MIN_HITS = 10  # the record's own floor for an "insufficient_hits" warning
CF_CHUNK = 4096
COV_SE_LIMIT = 5.0
MC_SE_LIMIT = 4.0
RESIDUAL_GAP_SHARE = 0.02
METHODS = {"approx": "sldp_analytic", "tcell": "sldp_analytic",
           "portfolio": "sldp_analytic", "sample": "tilted_mc"}

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stream(master: int, *indices: int) -> np.random.Generator:
    """Generator for (master, *indices): s <- splitmix64(s ^ index), per index."""
    s = master & _MASK64
    for idx in indices:
        s = _splitmix64(s ^ (idx & _MASK64))
    return np.random.Generator(np.random.PCG64DXSM(s))


def draw_weights(spec: dict, n: int, gen: np.random.Generator) -> np.ndarray:
    kind = spec["kind"]
    if kind == "uniform":
        return gen.uniform(spec["c"], spec["d"], n)
    if kind == "two_point":
        return gen.choice(np.asarray(spec["values"], dtype=float), size=n,
                          p=np.asarray(spec["probs"], dtype=float))
    if kind in ("tcell_exponential", "exponential"):
        tau = gen.exponential(scale=1.0 / spec["rate"], size=n)
        return np.exp(-1.0 / tau) / tau
    raise ValueError(f"no reference sampler for weight kind {kind!r}")


class Summand:
    """CGF f and its first two derivatives, vectorized, from a z spec."""

    def __init__(self, spec: dict):
        self.gaussian = spec["kind"] == "gaussian"
        if self.gaussian:
            self.s2 = float(spec["sigma2"])
        else:
            self.m, self.p = int(spec["m"]), float(spec["p"])

    def f(self, x):
        if self.gaussian:
            return 0.5 * self.s2 * x * x
        return self.m * np.log1p(self.p * np.expm1(x))

    def _q(self, x):
        """Tilted success probability and its complement, each without cancellation."""
        den = 1.0 + self.p * np.expm1(x)
        return self.p * np.exp(x) / den, (1.0 - self.p) / den

    def f1(self, x):
        if self.gaussian:
            return self.s2 * x
        return self.m * self._q(x)[0]

    def f2(self, x):
        if self.gaussian:
            return np.full_like(x, self.s2)
        q, r = self._q(x)
        return self.m * q * r

    def pmf(self):
        k = np.arange(self.m + 1)
        probs = np.array([math.comb(self.m, j) * self.p**j * (1 - self.p) ** (self.m - j)
                          for j in k])
        return k.astype(float), probs


def sharp_estimate(parts, a: float, n: int, theta_star: float) -> dict:
    """Saddle point, rate, curvature and sharp log tail over (weights, Summand) parts."""
    def psi1(t):
        return sum(float(np.sum(w * s.f1(w * t))) for w, s in parts) / n - a

    hi = theta_star
    while psi1(hi) < 0.0:
        hi *= 2.0
        if hi > 64 * theta_star:
            raise ValueError(f"threshold {a} beyond the reference bracket")
    theta = optimize.brentq(psi1, 0.0, hi, xtol=1e-15, rtol=1e-15, maxiter=500)
    psi0 = sum(float(np.sum(s.f(w * theta))) for w, s in parts) / n
    sigma2 = sum(float(np.sum(w * w * s.f2(w * theta))) for w, s in parts) / n
    rate = a * theta - psi0
    log_p = min(-n * rate - math.log(theta) - 0.5 * math.log(sigma2)
                - 0.5 * math.log(2.0 * math.pi * n), 0.0)
    return {"theta": theta, "rate": rate, "sigma2": sigma2, "log_p": log_p}


def cf_log_sup(w, summand: Summand, theta: float, t_grid: np.ndarray) -> float:
    """max_t sum_j log|tilted CF of W_j Z_j at t|, binomial closed form.

    |E_q exp(i y Z)| for Binomial(m, q) is (1 - 2 q(1-q)(1 - cos y))^(m/2),
    and 1 - cos y = 2 sin^2(y/2) keeps small y exact.
    """
    total = np.zeros(t_grid.size)
    for start in range(0, w.size, CF_CHUNK):
        wc = w[start:start + CF_CHUNK]
        q, r = summand._q(wc * theta)
        s = np.sin(0.5 * wc[:, None] * t_grid[None, :])
        total += 0.5 * summand.m * np.sum(np.log1p(-4.0 * (q * r)[:, None] * s * s), axis=0)
    return float(total.max())


def tilted_c1(w, summand: Summand, theta: float, n: int) -> float:
    """Bahadur-Rao n^-1 term from central moments of the tilted pmf."""
    v, probs = summand.pmf()
    log_pt = np.log(probs)[None, :] + (w * theta)[:, None] * v[None, :]
    pt = np.exp(log_pt - log_pt.max(axis=1, keepdims=True))
    pt /= pt.sum(axis=1, keepdims=True)
    d = v[None, :] - (pt * v[None, :]).sum(axis=1, keepdims=True)
    m2, m3, m4 = ((pt * d**r).sum(axis=1) for r in (2, 3, 4))
    k2 = float(np.mean(w**2 * m2))
    k3 = float(np.mean(w**3 * m3))
    k4 = float(np.mean(w**4 * (m4 - 3.0 * m2**2)))
    lam3, lam4 = k3 / k2**1.5, k4 / k2**2
    u = theta * math.sqrt(k2)
    return (lam4 / 8.0 - 5.0 * lam3**2 / 24.0 - lam3 / (2.0 * u) - 1.0 / u**2) / n


def _quad01(h) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(h, 0.0, 1.0, epsabs=1e-16, epsrel=1e-13, limit=200)[0]


def fclt_reference(config: dict, record: dict) -> dict:
    """Curves by quad on U(0,1) weights, and the replicas' X drawn again."""
    s = Summand(config["z"])
    n, seed, theta_star = config["n"], config["seed"], config["theta_star"]

    def g(t):
        return _quad01(lambda w: float(s.f(w * t)))

    def g1(t):
        return _quad01(lambda w: w * float(s.f1(w * t)))

    j_lo = 0.5 * float(s.f1(0.0))
    j_hi = g1(theta_star)
    k = np.arange(1, wl.FCLT_GRID + 1)
    a_grid = j_lo + (j_hi - j_lo) * k / (wl.FCLT_GRID + 1)
    theta_grid = np.array([optimize.brentq(lambda t, a=a: g1(t) - a, 0.0, theta_star,
                                           xtol=1e-15, rtol=1e-15) for a in a_grid])
    size = a_grid.size
    means = np.array([g(t) for t in theta_grid])
    cov = np.empty((size, size))
    fourth = np.empty((size, size))
    for i in range(size):
        for j in range(i, size):
            ti, tj, mi, mj = theta_grid[i], theta_grid[j], means[i], means[j]
            cov[i, j] = cov[j, i] = _quad01(
                lambda w: float(s.f(w * ti) * s.f(w * tj))) - mi * mj
            fourth[i, j] = fourth[j, i] = _quad01(
                lambda w: float((s.f(w * ti) - mi) ** 2 * (s.f(w * tj) - mj) ** 2))
    d = np.diag(cov)
    var_xx = np.outer(d, d) + cov**2 + (fourth - np.outer(d, d) - 2.0 * cov**2) / n
    se = np.sqrt(var_xx / (wl.FCLT_REPLICAS - 1))

    # the replicas again, at the record's own thresholds and saddle points
    rec_theta = np.asarray(record["theta_grid"], dtype=float)
    rec_means = np.array([g(t) for t in rec_theta])
    X = np.empty((wl.FCLT_REPLICAS, size))
    for r in range(wl.FCLT_REPLICAS):
        w = draw_weights(config["w"], n, stream(seed, r))
        X[r] = [math.sqrt(n) * (float(np.mean(s.f(w * t))) - m)
                for t, m in zip(rec_theta, rec_means)]
    empirical = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
    return {"a_grid": a_grid, "theta_grid": theta_grid, "analytic_cov": cov,
            "cov_se": se, "empirical_cov": empirical}


def reference(kind: str, config: dict, record: dict) -> dict:
    """What a correct record for this operation holds."""
    if kind == "fclt":
        return fclt_reference(config, record)
    if kind == "portfolio":
        gen = stream(config["seed"], 0)
        parts = [(draw_weights(b["w"], b["q"], gen), Summand(b["z"])) for b in config["blocks"]]
        n = sum(b["q"] for b in config["blocks"])
        return sharp_estimate(parts, config["a"], n, config["theta_star"])
    if kind == "tcell":
        n = config["n"]
        w = draw_weights(config["tau"], n, stream(config["seed"], 0))
        shifted = config["a"] - config["z_f"] * config["w_f"] / n
        return sharp_estimate([(w, Summand(config["z"]))], shifted, n, config["theta_star"])
    n = config["n"]
    w = draw_weights(config["w"], n, stream(config["seed"], 0))
    s = Summand(config["z"])
    ref = sharp_estimate([(w, s)], config["a"], n, config["theta_star"])
    if kind == "approx":
        # the program's default grid, at the record's own saddle point
        theta = record["theta"]
        t_grid = np.linspace(0.05, 1.0 * theta, 512)
        log_sup = min(cf_log_sup(w, s, theta, t_grid), 0.0)
        ref["cf_sup"] = math.sqrt(n) * math.exp(log_sup)
    elif kind == "sample":
        ref["c1"] = tilted_c1(w, s, ref["theta"], n)
    return ref


def _rel(got, want, tol: float) -> tuple[bool, str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False, f"shape {got.shape} != {want.shape}"
    err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
    return err <= tol, f"max relative error {err:.3g} (tol {tol:g})"


def _check_p(record: dict, log_p: float) -> tuple[bool, str]:
    if log_p <= LOG_TINY:
        return record["p"] == 0.0, f"p = {record['p']!r}, expected 0.0 below 1e-300"
    return _rel(record["p"], math.exp(log_p), 1e-9)


def _compare_sharp(record: dict, ref: dict) -> list:
    log_p = float(record["log_p"])
    tol = 1e-10 * max(1.0, abs(ref["log_p"]))
    err = abs(log_p - ref["log_p"])
    return [
        ("log_p", err <= tol, f"|log_p - ref| = {err:.3g} (tol {tol:.3g})"),
        ("p", *_check_p(record, ref["log_p"])),
    ]


def _theta_check(record: dict, ref: dict) -> tuple:
    err = abs(record["theta"] - ref["theta"])
    tol = 1e-10 * max(1.0, ref["theta"])
    return ("theta", err <= tol, f"|theta - ref| = {err:.3g} (tol {tol:.3g})")


def compare(kind: str, config: dict, record: dict, ref: dict) -> list:
    """One (check, ok, detail) triple per check of this operation kind."""
    if kind == "fclt":
        return _compare_fclt(config, record, ref)
    n = sum(b["q"] for b in config["blocks"]) if kind == "portfolio" else config["n"]
    same = (record["n"] == n and record["a"] == config["a"]
            and record["seed"] == config["seed"] and record["method"] == METHODS[kind]
            and record.get("draws") == (wl.TILTED_DRAWS if kind == "sample" else None))
    checks = [("identity", same, "n, a, seed, method and draws echo the run")]
    if kind in ("tcell", "portfolio"):
        return checks + _compare_sharp(record, ref)
    if kind == "approx":
        cond = record["conditions"]
        grid = cond["t_grid"]
        cf_ok = 0.0 < cond["cf_sup"] <= math.sqrt(n)
        return checks + [
            _theta_check(record, ref),
            ("rate", *_rel(record["rate"], ref["rate"], 1e-10)),
            ("sigma2", *_rel([record["sigma2"], cond["sigma2"]],
                             [ref["sigma2"]] * 2, 1e-10)),
            *_compare_sharp(record, ref),
            ("theta_sqrt_n", *_rel(cond["theta_sqrt_n"],
                                   record["theta"] * math.sqrt(n), 1e-12)),
            ("t_grid", (grid["delta1"], grid["delta2"], grid["count"]) == (0.05, 1.0, 512),
             f"t_grid {grid}"),
            ("cf_sup", *_rel(cond["cf_sup"], ref["cf_sup"], 1e-9)),
            ("cf_sup_range", cf_ok, f"cf_sup = {cond['cf_sup']:.6g}, sqrt(n) = {math.sqrt(n):.6g}"),
        ]
    # sample --mode tilted
    stderr = record.get("stderr", 0.0)
    quality = (not record.get("warnings") and stderr > 0.0
               and record.get("hits", 0) >= MIN_HITS)
    target = math.exp(ref["log_p"]) * (1.0 + ref["c1"])
    gap = abs(record["p"] - target)
    return checks + [
        ("quality", quality, f"warnings {record.get('warnings')}, stderr {stderr}, "
                             f"hits {record.get('hits')}"),
        _theta_check(record, ref),
        ("p_log_p", *_rel(record["p"], math.exp(float(record["log_p"])), 1e-12)),
        ("mc_vs_sharp", stderr > 0.0 and gap <= MC_SE_LIMIT * stderr,
         f"|p_mc - p_ref (1 + c1)| = {gap / stderr if stderr else math.inf:.2f} stderr"),
    ]


def _compare_fclt(config: dict, record: dict, ref: dict) -> list:
    emp = np.asarray(record["empirical_cov"], dtype=float)
    ana = np.asarray(record["analytic_cov"], dtype=float)
    z = np.abs(emp - ref["analytic_cov"]) / ref["cov_se"]
    stats = record["residual_stats"]
    shares = [s["median_abs_residual_gap"] / s["median_abs_residual"] for s in stats]
    same = (record["n"] == config["n"] and record["seed"] == config["seed"]
            and record["replicas"] == wl.FCLT_REPLICAS
            and all(s["replicas"] == wl.FCLT_REPLICAS for s in stats)
            and [s["a"] for s in stats] == record["a_grid"])
    return [
        ("identity", same, "n, seed and replica counts echo the run"),
        ("a_grid", *_rel(record["a_grid"], ref["a_grid"], 1e-9)),
        ("theta_grid", *_rel(record["theta_grid"], ref["theta_grid"], 1e-8)),
        ("analytic_cov", *_rel(ana, ref["analytic_cov"], 1e-7)),
        ("empirical_cov", *_rel(emp, ref["empirical_cov"], 1e-8)),
        ("cov_within_se", bool(np.all(z <= COV_SE_LIMIT)),
         f"max |empirical - analytic| = {float(z.max()):.2f} standard errors"),
        ("max_abs_cov_error", *_rel(record["max_abs_cov_error"],
                                    float(np.max(np.abs(emp - ana))), 1e-12)),
        ("residual_gap", max(shares) <= RESIDUAL_GAP_SHARE,
         f"residual gap / residual up to {max(shares):.3g}"),
    ]


def _scaled(path, factor=None, shift=None):
    """Perturbation that scales or shifts the record value at ``path``."""
    def apply(record, ref):
        node = record
        for key in path[:-1]:
            node = node[key]
        value = node[path[-1]]
        node[path[-1]] = value * factor if factor is not None else value + shift
        return record
    return apply


def _p_wrong(record, ref):
    record["p"] = record["p"] * (1.0 + 1e-6) if record["p"] > 0.0 else 5e-324
    return record


def _mc_moved(record, ref):
    target = math.exp(ref["log_p"]) * (1.0 + ref["c1"])
    away = 1.0 if record["p"] >= target else -1.0
    record["p"] += away * 5.0 * record["stderr"]
    record["log_p"] = math.log(record["p"])
    return record


def _cf_too_big(record, ref):
    record["conditions"]["cf_sup"] = 1.5 * math.sqrt(record["n"])
    return record


def _symmetric(i, j, factor):
    def apply(record, ref):
        for r, c in {(i, j), (j, i)}:
            record["analytic_cov"][r][c] *= factor
        return record
    return apply


_SHARP = {"log_p": _scaled(("log_p",), factor=1.0 + 1e-8), "p": _p_wrong,
          "identity": _scaled(("a",), shift=0.01)}

PERTURBATIONS = {
    "approx": {
        **_SHARP,
        "theta": _scaled(("theta",), shift=1e-8),
        "rate": _scaled(("rate",), factor=1.0 + 1e-8),
        "sigma2": _scaled(("sigma2",), factor=1.0 + 1e-8),
        "theta_sqrt_n": _scaled(("conditions", "theta_sqrt_n"), factor=1.0 + 1e-9),
        "t_grid": _scaled(("conditions", "t_grid", "count"), shift=-1),
        "cf_sup": _scaled(("conditions", "cf_sup"), factor=1.0 + 1e-6),
        "cf_sup_range": _cf_too_big,
    },
    "tcell": _SHARP,
    "portfolio": _SHARP,
    "sample": {
        "identity": _scaled(("draws",), shift=-1),
        "quality": _scaled(("stderr",), factor=0.0),
        "theta": _scaled(("theta",), shift=1e-8),
        "p_log_p": _scaled(("log_p",), shift=1e-6),
        "mc_vs_sharp": _mc_moved,
    },
    "fclt": {
        "identity": _scaled(("replicas",), shift=-1),
        "a_grid": _scaled(("a_grid", 0), factor=1.0 + 1e-7),
        "theta_grid": _scaled(("theta_grid", 1), factor=1.0 + 1e-6),
        "analytic_cov": _symmetric(0, 1, 1.5),
        "empirical_cov": _scaled(("empirical_cov", 2, 2), factor=1.0 + 1e-6),
        "cov_within_se": _scaled(("empirical_cov", 1, 1), factor=3.0),
        "max_abs_cov_error": _scaled(("max_abs_cov_error",), factor=1.01),
        "residual_gap": _scaled(("residual_stats", 0, "median_abs_residual_gap"), factor=1e3),
    },
}


def self_test(kind: str, config: dict, record: dict, ref: dict) -> list[str]:
    """Problems found: a check that a perturbation did not trip, or one left untested."""
    problems = []
    names = [name for name, _, _ in compare(kind, config, record, ref)]
    perturb = PERTURBATIONS[kind]
    problems += [f"{kind}: check {name!r} has no perturbation" for name in names
                 if name not in perturb]
    for name, apply in perturb.items():
        bad = apply(copy.deepcopy(record), ref)
        failing = {c for c, ok, _ in compare(kind, config, bad, ref) if not ok}
        if name not in failing:
            problems.append(f"{kind}: perturbing for {name!r} did not fail that check")
    return problems
