"""Per-layer metrics from the spans of one traced pass.

Kept free of ``thetainv`` imports so that ``run.py`` can use it without
loading the package under test.
"""

from __future__ import annotations

# The public check_* functions of thetainv.verify, in run_verification order.
VERIFY_CHECKS = (
    "catalog", "pair_table", "pair_identities", "pair_integrality",
    "triple_integrality", "oracle_equivalences", "combinatorial_lemmas",
    "projectors", "spherical_integrals", "basis_invariance",
)

# Per-layer metrics of a traced run: (name, unit).  Each "<layer>_s" is the
# summed self time of the spans named "<layer>".
LAYER_METRICS = (
    ("catalog.load_s", "s"),
    ("lattice.enumerate_s", "s"),
    ("lattice.enumerate.vectors", "count"),
    ("lattice.enumerate.vectors_per_s", "1/s"),
    ("lattice.enumerate.peak_rss_mb", "MB"),
    ("lattice.cache_save_s", "s"),
    ("lattice.cache_bytes", "bytes"),
    ("lattice.cache_load_s", "s"),
    ("lattice.cache_hit_ratio", "ratio"),
    ("lattice.pair_hist_s", "s"),
    ("lattice.pair_hist.pairs", "count"),
    ("lattice.pair_hist.pairs_per_s", "1/s"),
    ("lattice.moment_s", "s"),
    ("theta.pair_reduce_s", "s"),
    ("theta.triple_s", "s"),
    ("theta.general_s", "s"),
    ("theta.general.tuples", "count"),
    ("theta.general.tuples_per_s", "1/s"),
    ("theta.metadata_s", "s"),
) + tuple((f"verify.{name}_s", "s") for name in VERIFY_CHECKS) + (
    ("trace.untraced_wall_s", "s"),
    ("trace.layers_s", "s"),
    ("trace.gap_s", "s"),
)


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _rate(n: float, secs: float) -> float:
    return n / secs if secs > 0 else 0.0


def metrics(spans: list[dict], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, set-up spans included.  A layer
    the workload never calls reports 0."""
    own = self_times(spans)
    time_by: dict[str, float] = {}
    counts: dict[str, int] = {}
    rss = 0.0
    for s, t in zip(spans, own):
        time_by[s["name"]] = time_by.get(s["name"], 0.0) + t
        for k, v in s["counts"].items():
            if k == "rss_mb":
                rss = max(rss, v)
            else:
                counts[k] = counts.get(k, 0) + v
    m = {name: time_by.get(name[:-2], 0.0)
         for name, unit in LAYER_METRICS if unit == "s"}
    vectors, pairs, tuples = (counts.get(k, 0) for k in ("vectors", "pairs", "tuples"))
    m["lattice.enumerate.vectors"] = vectors
    m["lattice.enumerate.vectors_per_s"] = _rate(vectors, m["lattice.enumerate_s"])
    m["lattice.enumerate.peak_rss_mb"] = rss
    m["lattice.cache_bytes"] = counts.get("bytes", 0)
    m["lattice.cache_hit_ratio"] = _rate(counts.get("hits", 0),
                                         counts.get("lookups", 0))
    m["lattice.pair_hist.pairs"] = pairs
    m["lattice.pair_hist.pairs_per_s"] = _rate(pairs, m["lattice.pair_hist_s"])
    m["theta.general.tuples"] = tuples
    m["theta.general.tuples_per_s"] = _rate(tuples, m["theta.general_s"])
    # request spans only: the untraced pass has no set-up in its wall time
    layers = sum(t for s, t in zip(spans, own)
                 if s["name"] != "request" and s["rid"] != "setup")
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.layers_s"] = layers
    m["trace.gap_s"] = untraced_wall - layers
    return m


def breakdown(spans: list[dict], labels: dict[str, str]) -> list[str]:
    """One line per request (and set-up): self time of each layer it used."""
    own = self_times(spans)
    rows: dict[str, dict[str, float]] = {}
    for s, t in zip(spans, own):
        if s["name"] != "request":
            row = rows.setdefault(s["rid"], {})
            row[s["name"]] = row.get(s["name"], 0.0) + t
    return [f"{rid} {labels.get(rid, 'set-up')}: "
            + " ".join(f"{k}={v:.4g}" for k, v in row.items())
            for rid, row in rows.items()]
