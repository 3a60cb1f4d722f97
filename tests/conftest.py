import time

import pytest

from spaltenstein import tableaux
from spaltenstein.presentation import build_quotient, certify_basis, rel_equivalence
from spaltenstein.reports import components
from spaltenstein.tableaux import (
    _cell_leq,
    _chain,
    _check_member,
    dims,
    dominance_leq,
    enumerate_semistandard,
    iter_pairs,
    zero_free_key,
)


@pytest.fixture
def key_builds(monkeypatch):
    """The zero-free keys whose fillings, chains and images
    tableaux._key_tableaux builds during the test, one entry per build."""
    builds = []
    real = tableaux.shared

    def counting(kind, lam, mu, compute):
        def counted():
            builds.append(zero_free_key(lam, mu))
            return compute()

        return real(kind, lam, mu, counted if kind == "enumerate" else compute)

    monkeypatch.setattr(tableaux, "shared", counting)
    return builds


@pytest.fixture(scope="session")
def sweep_d6():
    """One pass over every (lam, mu) with d <= 6, n <= d.

    Collects the exact facts the acceptance criteria quantify over; any
    certification failure aborts the sweep immediately.
    """
    records = []
    timings = {"certify": 0.0, "e_family": 0.0, "rel": 0.0, "fibers": 0.0}
    for lam, mu in iter_pairs(6):
        t0 = time.perf_counter()
        qh = build_quotient(lam, mu, "H")
        cert = certify_basis(lam, mu, quotient=qh)
        t1 = time.perf_counter()
        qe = build_quotient(lam, mu, "E")
        t2 = time.perf_counter()
        equivalent = rel_equivalence(lam, mu, qh=qh, qe=qe)
        t3 = time.perf_counter()
        d_lam, d_mu = dims(lam, mu)
        record = {
            "lam": lam,
            "mu": mu,
            "d": mu.size(),
            "dominated": dominance_leq(mu.sorted(), lam),
            "hilbert": qh.hilbert,
            "hilbert_e": qe.hilbert,
            "cols": cert.size(),
            "degrees": tuple(cert.degrees),
            "top": d_lam - d_mu,
            "vanish_above_top": qh.hilbert.coefficient(2 * (d_lam - d_mu) + 2) == 0
            and qe.hilbert.coefficient(2 * (d_lam - d_mu) + 2) == 0,
            "equivalent": equivalent,
            "std": len(enumerate_semistandard(lam, mu)),
        }
        fibers_ok = True
        if record["dominated"]:
            comps = components(lam, mu)
            total = 0
            for S, dim, fiber in comps:
                total += len(fiber)
                if dim != d_lam - d_mu:
                    fibers_ok = False
                # cell_order(T, S, mu) == "less" for T != S, with S and each
                # T validated and chained once instead of once per pair
                chain_s = _chain(_check_member(S, mu), mu.parts)
                for T in fiber:
                    chain_t = _chain(_check_member(T, mu), mu.parts)
                    if T != S and not (T.shape == S.shape and _cell_leq(chain_t, chain_s)):
                        fibers_ok = False
            if total != record["cols"]:
                fibers_ok = False
        record["fibers_ok"] = fibers_ok
        t4 = time.perf_counter()
        timings["certify"] += t1 - t0
        timings["e_family"] += t2 - t1
        timings["rel"] += t3 - t2
        timings["fibers"] += t4 - t3
        records.append(record)
    print(
        "\n[sweep_d6] stage times: "
        + ", ".join(f"{stage} {secs:.1f}s" for stage, secs in timings.items())
    )
    return records, timings
