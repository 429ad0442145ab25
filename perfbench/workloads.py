"""Seeded inputs for the certify and verify workloads, and the checks on their
outputs.

Every draw comes from a ``random.Random`` the runner seeds from ``--seed``,
so one seed always gives the same operations.  The program under test only
ever sees the generated command lines and files.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# One dimension is drawn from each band: the first is the prior-results path
# (d <= 6, no weight ladder); the others grow N = ell_star(d) and mix parities.
BANDS = (
    (3, 4, 5, 6),
    (7, 8, 9, 10, 11, 12),
    (13, 14, 15, 16),
    (17, 18, 19, 20),
    (21, 22, 23, 24),
)

# Seconds per operation measured at the seed commit (fraction backend,
# CPython 3.11.7, 2-core x86-64 Linux, one process per operation; median of
# 2 to 16 operations per entry).  They are used only to balance the draws below, never as a
# result: within a band, costs differ by up to 2x (d = 15 and d = 24 are
# slow), so independent draws would move a round's total by about 15% from
# seed to seed and hide a real change of that size.
CERTIFY_REF_S = {3: 0.107, 4: 0.234, 5: 0.300, 6: 0.421, 7: 0.676, 8: 0.916, 9: 0.969, 10: 0.918, 11: 1.274, 12: 1.515, 13: 1.788, 14: 2.202, 15: 3.313, 16: 3.084, 17: 3.772, 18: 3.707, 19: 4.293, 20: 4.959, 21: 5.256, 22: 5.480, 23: 6.999, 24: 8.049}
VERIFY_REF_S = {3: 0.079, 4: 0.106, 5: 0.156, 6: 0.211, 7: 0.245, 8: 0.274, 9: 0.608, 10: 0.521, 11: 0.619, 12: 0.730, 13: 0.901, 14: 1.183, 15: 1.478, 16: 1.231, 17: 1.870, 18: 1.538, 19: 2.359, 20: 2.197, 21: 2.325, 22: 2.386, 23: 3.162, 24: 4.090}
# Verify of a certificate whose stored eigenvalue lists are gone: the
# re-derivation of stored eigenvalues, most of verify's work, is skipped.
VERIFY_LIGHT_REF_S = {3: 0.003, 4: 0.003, 5: 0.003, 6: 0.003, 7: 0.008, 8: 0.011, 9: 0.014, 10: 0.012, 11: 0.025, 12: 0.031, 13: 0.032, 14: 0.040, 15: 0.063, 16: 0.058, 17: 0.121, 18: 0.085, 19: 0.144, 20: 0.157, 21: 0.162, 22: 0.187, 23: 0.282, 24: 0.325}

# The share by which a round's reference total may differ from the mean over
# all draws.
BALANCE_TOL = 0.02

# Tampers the verifier rejects at the seed commit (eig_value, coefficient,
# c0_zero, a_star): accepting one is a failed operation.  Tampers it accepts at
# the seed commit, the open soundness gaps of ROADMAP item 3: accepting one is
# counted as a known gap, not a failure.
GAP_EDITS = ("eig_emptied", "adm_margin", "decimal", "sum_ok_yes", "evidence_deleted")
LIGHT_EDITS = ("eig_emptied", "evidence_deleted")

PINS = json.loads((HERE / "pins.json").read_text())


def cert_digest(path) -> str | None:
    """SHA-256 of a CLI certificate as ``json.dumps(indent=2)`` without its timestamp.

    None when the file is missing or is not a JSON object.
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
        obj.pop("timestamp", None)
    except (OSError, ValueError, AttributeError):
        return None
    return hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest()


def _balanced_draw(rng, choices_per_band, cost):
    """One choice per band, redrawn until the total cost is near its mean."""
    target = sum(sum(map(cost, band)) / len(band) for band in choices_per_band)
    for _ in range(100_000):
        pick = [rng.choice(band) for band in choices_per_band]
        if abs(sum(map(cost, pick)) / target - 1) <= BALANCE_TOL:
            return pick
    raise RuntimeError("no balanced draw found")


# -- certify ------------------------------------------------------------------


def certify_sessions(rng, outdir: Path):
    """One ``certify`` per band, each in its own process, as one CLI call is."""
    dims = _balanced_draw(rng, BANDS, CERTIFY_REF_S.__getitem__)
    rng.shuffle(dims)
    return [
        [{"kind": "certify", "d": d, "out": str(outdir / f"certify_d{d}.json"),
          "argv": ["certify", "-d", str(d), "--out", str(outdir / f"certify_d{d}.json")]}]
        for d in dims
    ]


# -- verify -------------------------------------------------------------------


def _applicable_edits(d: int):
    if d <= 6:
        return ("eig_value", "a_star", "decimal", "sum_ok_yes", "evidence_deleted")
    edits = ("eig_value", "a_star", "eig_emptied", "adm_margin", "decimal", "sum_ok_yes")
    # d = 7 has no coefficients and every c0 is 0
    return edits + (("coefficient", "c0_zero") if d >= 8 else ())


def _verify_cost(choice) -> float:
    d, edit = choice
    tampered = VERIFY_LIGHT_REF_S[d] if edit in LIGHT_EDITS else VERIFY_REF_S[d]
    return VERIFY_REF_S[d] + tampered


def verify_plan(rng):
    """(d, edit) per band: the valid certificate of d plus one tampered copy."""
    bands = [[(d, e) for d in band for e in _applicable_edits(d)] for band in BANDS]
    return _balanced_draw(rng, bands, _verify_cost)


def _bump(scalar: dict) -> None:
    q = Fraction(scalar["rational"])
    scalar["rational"] = str(2 * q if q else Fraction(1))


def tamper(cert: dict, edit: str, rng) -> None:
    """Apply one edit in place."""
    weights = cert["weights"]
    if edit == "eig_value":
        if weights:
            w = rng.choice([w for w in weights if w["eig"]])
            _bump(rng.choice(w["eig"])["value"])
        else:
            _bump(rng.choice(cert["delta_eigen_evidence"])["value"])
    elif edit == "coefficient":
        w = rng.choice([w for w in weights if w["coefficients"]])
        _bump(rng.choice(w["coefficients"])["value"])
    elif edit == "c0_zero":
        rng.choice([w for w in weights if w["c0"] != "0"])["c0"] = "0"
    elif edit == "a_star":
        _bump(cert["a_star"]["rational_times_grade"])
    elif edit == "eig_emptied":
        for w in weights:
            w["eig"] = []
    elif edit == "adm_margin":
        rng.choice(weights)["adm_margin"] = "-5"
    elif edit == "decimal":
        cert["a_star"]["decimal"] = "1.5"
    elif edit == "sum_ok_yes":
        cert["sum_condition_ok"] = "yes"
    elif edit == "evidence_deleted":
        del cert["delta_eigen_evidence"]
    else:
        raise ValueError(f"unknown edit {edit!r}")


def verify_sessions(plan, cert_paths, rng, outdir: Path):
    """A valid and a tampered ``verify`` per planned dimension, one process each."""
    ops = []
    for d, edit in plan:
        with open(cert_paths[d]) as fh:
            cert = json.load(fh)
        tamper(cert, edit, rng)
        bad = outdir / f"tampered_d{d}.json"
        bad.write_text(json.dumps(cert, indent=2))
        ops.append({"kind": "verify", "d": d, "edit": None, "argv": ["verify", str(cert_paths[d])]})
        ops.append({"kind": "verify", "d": d, "edit": edit, "argv": ["verify", str(bad)]})
    rng.shuffle(ops)
    return [[op] for op in ops]


# -- checks -------------------------------------------------------------------


def check(op: dict, res: dict) -> tuple[bool, bool]:
    """(ok, gap) for one operation's result.

    ``gap`` marks a tampered certificate from GAP_EDITS that was accepted.
    """
    rc = res["rc"]
    if op["kind"] == "certify":
        return rc == 0 and cert_digest(op["out"]) == PINS[str(op["d"])], False
    if op["edit"] is None:
        return rc == 0, False
    if op["edit"] in GAP_EDITS and rc == 0:
        return True, True
    return rc in (1, 2), False
