"""Output checks for every command the benchmark times.

Each check returns a list of problems; an empty list means the output is
correct. Files are judged against the generator's ground truth and, for the
sweep, against a Kendall tau-b by pair enumeration written here from its
definition.
Once a file's bytes have passed a full check, later files are compared to
that digest: outputs must be byte-identical across passes and across the
``count --dump``, ``extract`` -> ``count --citations`` and ``--jobs 2``
paths, so a matching digest is as good as a full check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

SERIES = ("total_citations", "impact_factor", "articles", "combined")
TOLERANCE = 1e-12


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# Kendall tau-b by pair enumeration -----------------------------------------


def _sign(value: float) -> int:
    return (value > 0) - (value < 0)


def _tie_sums(tie_sizes: list[int]) -> tuple[int, int, int, int]:
    """Tie-pair count and the three tie terms of the null variance of S."""
    return (
        sum(t * (t - 1) // 2 for t in tie_sizes),
        sum(t * (t - 1) * (2 * t + 5) for t in tie_sizes),
        sum(t * (t - 1) * (t - 2) for t in tie_sizes),
        sum(t * (t - 1) for t in tie_sizes),
    )


def tau_from_pairs(n: int, s: int, x: Counter, y: Counter) -> tuple[float, float, float]:
    """(tau_b, z, two-sided p) from S = concordant - discordant pairs and the
    value counts of each list, with the tie-corrected null variance of S
    (Kendall 1970) and a continuity correction of one."""
    n1, vt, t3, t2 = _tie_sums([t for t in x.values() if t > 1])
    n2, vu, u3, u2 = _tie_sums([u for u in y.values() if u > 1])
    n0 = n * (n - 1) // 2
    tau = s / math.sqrt((n0 - n1) * (n0 - n2))
    variance = (n * (n - 1) * (2 * n + 5) - vt - vu) / 18.0
    if n > 2:
        variance += t3 * u3 / (9.0 * n * (n - 1) * (n - 2))
    variance += t2 * u2 / (2.0 * n * (n - 1))
    z = _sign(s) * max(abs(s) - 1, 0) / math.sqrt(variance)
    return tau, z, math.erfc(abs(z) / math.sqrt(2.0))


def brute_sweep(x: list[float], y: list[float]) -> dict[int, tuple[float, float, float]]:
    """Kendall tau-b of every prefix of length 2..len(x), by enumerating
    pairs: prefix n adds the pairs that its last element forms with the
    ones before it, so the whole sweep costs O(n^2)."""
    out = {}
    s = 0
    x_counts: Counter = Counter()
    y_counts: Counter = Counter()
    for n in range(1, len(x) + 1):
        xn, yn = x[n - 1], y[n - 1]
        for i in range(n - 1):
            s += _sign(xn - x[i]) * _sign(yn - y[i])
        x_counts[xn] += 1
        y_counts[yn] += 1
        if n >= 2:
            out[n] = tau_from_pairs(n, s, x_counts, y_counts)
    return out


def _series(row: list, name: str) -> float:
    _, _, total, impact, articles = row
    return {
        "total_citations": float(total),
        "impact_factor": impact,
        "articles": float(articles),
        "combined": total * impact,
    }[name]


# The checker -----------------------------------------------------------------


class Checker:
    """Judges command outputs for one workload's inputs."""

    def __init__(self, truth: dict, dump_sha256: str):
        self.truth = truth
        self.dump_sha256 = dump_sha256
        self.verified: dict[str, str] = {}  # output kind -> digest that passed

    def _known(self, kind: str, path: Path) -> tuple[str, list[str] | None]:
        """Digest of ``path`` and, when a file of this kind already passed,
        the verdict from comparing against it."""
        digest = sha256_file(path)
        reference = self.verified.get(kind)
        if reference is None:
            return digest, None
        if digest == reference:
            return digest, []
        return digest, [f"{path.name} differs from the {kind} output that passed its check"]

    def _manifest(self, out_dir: Path, command: str, digests_dump: bool) -> list[str]:
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"manifest.json unreadable: {exc}"]
        problems = []
        if manifest.get("command") != command:
            problems.append(f"manifest command {manifest.get('command')!r}, want {command!r}")
        if digests_dump:
            entry = manifest.get("inputs", {}).get("dump", {})
            if entry.get("sha256") != self.dump_sha256:
                problems.append("manifest dump sha256 does not match the dump")
            if entry.get("bytes") != self.truth["dump_bytes"]:
                problems.append(f"manifest dump bytes {entry.get('bytes')}, want {self.truth['dump_bytes']}")
        return problems

    # extract ---------------------------------------------------------------

    def extract(self, out_dir: Path) -> list[str]:
        truth = self.truth
        problems = self._manifest(out_dir, "extract", digests_dump=True)
        try:
            summary = json.loads((out_dir / "extract_summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return problems + [f"extract_summary.json unreadable: {exc}"]
        expected = {
            "pages_seen": truth["pages_seen"],
            "pages_skipped": truth["pages_skipped"],
            "pages_scanned": truth["pages_scanned"],
            "records": truth["template_total"],
            "malformed_total": truth["malformed_total"],
            "duplicate_params": truth["duplicate_params"],
        }
        for key, want in expected.items():
            if summary.get(key) != want:
                problems.append(f"extract_summary {key}={summary.get(key)}, want {want}")
        path = out_dir / "citations.jsonl"
        if not path.is_file():
            return problems + ["citations.jsonl missing"]
        digest, verdict = self._known("citations.jsonl", path)
        if verdict is None:
            verdict = self._citations(path)
            if not verdict and not problems:
                self.verified["citations.jsonl"] = digest
        return problems + verdict

    def _citations(self, path: Path) -> list[str]:
        """Every line is a record; the unknown strings and the records
        without a journal are exactly the planted ones."""
        records = 0
        no_journal = 0
        unknown: Counter = Counter()
        with open(path, "r", encoding="utf-8") as fp:
            for line_no, line in enumerate(fp, start=1):
                try:
                    record = json.loads(line)
                    raw = record["journal_raw"]
                    record["page_title"], record["params"], record["span"]
                except (ValueError, KeyError, TypeError) as exc:
                    return [f"citations.jsonl line {line_no} is not a record: {exc}"]
                records += 1
                if raw is None:
                    no_journal += 1
                elif raw in self.truth["unknown"]:
                    unknown[raw] += 1
        problems = []
        if records != self.truth["template_total"]:
            problems.append(f"citations.jsonl has {records} records, want {self.truth['template_total']}")
        if no_journal != self.truth["no_journal_count"]:
            problems.append(f"citations.jsonl has {no_journal} records without a journal, want {self.truth['no_journal_count']}")
        if dict(unknown) != self.truth["unknown"]:
            problems.append("citations.jsonl unknown journal strings differ from the planted ones")
        return problems

    # count -----------------------------------------------------------------

    def count(self, out_dir: Path, digests_dump: bool) -> list[str]:
        problems = self._manifest(out_dir, "count", digests_dump=digests_dump)
        for name in ("counts.json", "counts.csv", "unknown.csv"):
            path = out_dir / name
            if not path.is_file():
                problems.append(f"{name} missing")
                continue
            digest, verdict = self._known(name, path)
            if verdict is None:
                verdict = getattr(self, "_" + name.replace(".", "_"))(path)
                if not verdict:
                    self.verified[name] = digest
            problems.extend(verdict)
        return problems

    def _counts_json(self, path: Path) -> list[str]:
        truth = self.truth
        try:
            table = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"counts.json unreadable: {exc}"]
        problems = []
        for key in (
            "template_total",
            "malformed_total",
            "excluded_count",
            "no_journal_count",
            "unknown_overflow",
            "counts",
            "unknown",
        ):
            if table.get(key) != truth[key]:
                problems.append(f"counts.json {key} differs from the ground truth")
        try:
            reconciled = (
                sum(table["counts"].values())
                + table["excluded_count"]
                + sum(table["unknown"].values())
                + table["unknown_overflow"]
                + table["no_journal_count"]
            )
        except (KeyError, TypeError, AttributeError):
            return problems + ["counts.json lacks the tallies to reconcile"]
        if reconciled != table["template_total"]:
            problems.append(
                f"counters do not reconcile: {reconciled} != template_total {table['template_total']}"
            )
        return problems

    @staticmethod
    def _ranked_csv(path: Path, header: list[str], table: dict) -> list[str]:
        want = [header] + [
            [name, str(value)] for name, value in sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        with open(path, "r", encoding="utf-8", newline="") as fp:
            got = list(csv.reader(fp))
        return [] if got == want else [f"{path.name} rows differ from the ground truth"]

    def _counts_csv(self, path: Path) -> list[str]:
        return self._ranked_csv(path, ["journal", "count"], self.truth["counts"])

    def _unknown_csv(self, path: Path) -> list[str]:
        return self._ranked_csv(path, ["journal_raw", "count"], self.truth["unknown"])

    def empty(self, out_dir: Path) -> list[str]:
        """The start-up probe: no records, so every tally is zero."""
        problems = self._manifest(out_dir, "count", digests_dump=False)
        try:
            table = json.loads((out_dir / "counts.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return problems + [f"counts.json unreadable: {exc}"]
        if table.get("template_total") != 0 or table.get("counts") != {} or table.get("unknown") != {}:
            problems.append("start-up probe counted records in an empty file")
        return problems

    # correlate ---------------------------------------------------------------

    def correlate(self, out_dir: Path) -> list[str]:
        problems = []
        joined = self.truth["joined"]
        try:
            audit = json.loads((out_dir / "join_audit.json").read_text(encoding="utf-8"))
            if audit.get("joined") != len(joined):
                problems.append(f"join_audit joined={audit.get('joined')}, want {len(joined)}")
            with open(out_dir / "scatter.csv", "r", encoding="utf-8") as fp:
                scatter_rows = sum(1 for _ in fp) - 1
            if scatter_rows != len(joined):
                problems.append(f"scatter.csv has {scatter_rows} rows, want {len(joined)}")
        except (OSError, ValueError) as exc:
            problems.append(f"correlate side outputs unreadable: {exc}")
        path = out_dir / "correlations.csv"
        if not path.is_file():
            return problems + ["correlations.csv missing"]
        digest, verdict = self._known("correlations.csv", path)
        if verdict is None:
            verdict = self._correlations(path)
            if not verdict:
                self.verified["correlations.csv"] = digest
        return problems + verdict

    def _correlations(self, path: Path) -> list[str]:
        joined = self.truth["joined"]
        n_max = len(joined)
        with open(path, "r", encoding="utf-8", newline="") as fp:
            rows = list(csv.reader(fp))
        if not rows or rows[0] != ["series", "n", "tau", "z", "p_value"]:
            return ["correlations.csv header is wrong"]
        rows = rows[1:]
        if len(rows) != len(SERIES) * (n_max - 1):
            return [f"correlations.csv has {len(rows)} rows, want {len(SERIES) * (n_max - 1)}"]
        points: dict[tuple[str, int], tuple[float, float, float]] = {}
        for row in rows:
            try:
                points[(row[0], int(row[1]))] = (float(row[2]), float(row[3]), float(row[4]))
            except (ValueError, IndexError):
                return [f"correlations.csv row {row!r} is malformed"]
        wanted = {(s, n) for s in SERIES for n in range(2, n_max + 1)}
        if set(points) != wanted:
            return ["correlations.csv does not cover every series at every sweep size"]
        problems = []
        x = [float(row[1]) for row in joined]
        for series in SERIES:
            reference = brute_sweep(x, [_series(row, series) for row in joined])
            for n, want in reference.items():
                got = points[(series, n)]
                if any(abs(g - w) > TOLERANCE for g, w in zip(got, want)):
                    problems.append(f"correlations.csv {series} n={n}: got {got}, want {want}")
        return problems[:10]
