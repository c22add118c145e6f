import argparse
import csv
import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wikicite.aggregate import read_counts_json, write_counts_json, CountTable
from wikicite.bibliometrics import combined_top_overlap, join, topn_sweep
from wikicite.cli import (
    InsufficientDataError,
    UsageError,
    _HashingReader,
    _load_registry_arg,
    _Run,
    build_parser,
    main,
    parse_sweep,
)
from wikicite.dump_reader import WikiPage
from wikicite.extractor import read_jsonl, scan_page
from wikicite.fixtures import build_corpus, dump_xml, write_dump
from wikicite.registry import load_default_registry, load_registry

_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(
        page_count=40, citations=80, nested=6, comment_decoys=5, malformed=4,
        no_journal=5, seed=99,
    )


@pytest.fixture(scope="module")
def small_dump(small_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("dump") / "dump.xml"
    with open(path, "w", encoding="utf-8") as fp:
        write_dump(small_corpus.pages, fp)
    return path


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


class TestExtract:
    def test_fixture_dump(self, small_dump, small_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["extract", "--dump", str(small_dump), "--out", str(out)]) == 0
        with open(out / "citations.jsonl", encoding="utf-8") as fp:
            records = list(read_jsonl(fp))
        assert len(records) == small_corpus.truth.citations_total
        summary = json.loads(read(out / "extract_summary.json"))
        assert summary["records"] == small_corpus.truth.citations_total
        assert summary["malformed_total"] == small_corpus.truth.malformed_total
        assert (out / "manifest.json").exists()

    def test_records_match_library_scan(self, small_dump, small_corpus, tmp_path):
        out = tmp_path / "out"
        main(["extract", "--dump", str(small_dump), "--out", str(out)])
        with open(out / "citations.jsonl", encoding="utf-8") as fp:
            records = list(read_jsonl(fp))
        expected = [
            r for page in small_corpus.pages for r in scan_page(page).records
        ]
        assert records == expected

    def test_empty_dump(self, tmp_path):
        dump = tmp_path / "empty.xml"
        dump.write_text(dump_xml([]), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["extract", "--dump", str(dump), "--out", str(out)]) == 0
        assert read(out / "citations.jsonl") == ""
        summary = json.loads(read(out / "extract_summary.json"))
        assert summary["records"] == 0
        assert summary["malformed_total"] == 0

    def test_single_dangling_template(self, tmp_path):
        pages = [WikiPage("A", 0, "{{cite journal|journal=Nature}} {{cite journal|cut")]
        dump = tmp_path / "dump.xml"
        dump.write_text(dump_xml(pages), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["extract", "--dump", str(dump), "--out", str(out)]) == 0
        summary = json.loads(read(out / "extract_summary.json"))
        assert summary["records"] == 1
        assert summary["malformed_total"] == 1

    def test_namespace_filter_default_zero(self, tmp_path):
        pages = [
            WikiPage("Article", 0, "{{cite journal|journal=Nature}}"),
            WikiPage("Talk:Article", 1, "{{cite journal|journal=Science}}"),
        ]
        dump = tmp_path / "dump.xml"
        dump.write_text(dump_xml(pages), encoding="utf-8")
        out0 = tmp_path / "ns0"
        main(["extract", "--dump", str(dump), "--out", str(out0)])
        with open(out0 / "citations.jsonl", encoding="utf-8") as fp:
            assert [r.journal_raw for r in read_jsonl(fp)] == ["Nature"]
        out_all = tmp_path / "all"
        main(["extract", "--dump", str(dump), "--namespaces", "all", "--out", str(out_all)])
        with open(out_all / "citations.jsonl", encoding="utf-8") as fp:
            assert [r.journal_raw for r in read_jsonl(fp)] == ["Nature", "Science"]

    @pytest.mark.parametrize("command", ["extract", "correlate"])
    def test_jobs_is_a_usage_error_outside_count(self, tmp_path, capsys, command):
        """Only ``count`` runs a pool; elsewhere ``--jobs`` is rejected
        before the (missing) dump is read."""
        out = tmp_path / "out"
        argv = [command, "--dump", str(tmp_path / "missing.xml"), "--jobs", "2", "--out", str(out)]
        assert main(argv + (["--jcr", "jcr.csv"] if command == "correlate" else [])) == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_xml_exit_code(self, tmp_path):
        dump = tmp_path / "bad.xml"
        dump.write_text("<mediawiki><page><title>X</oops>", encoding="utf-8")
        assert main(["extract", "--dump", str(dump), "--out", str(tmp_path / "o")]) == 2

    def test_missing_dump_exit_code(self, tmp_path):
        missing = tmp_path / "nope.xml"
        assert main(["extract", "--dump", str(missing), "--out", str(tmp_path / "o")]) == 2

    def test_bad_namespaces_value_is_usage_error(self, small_dump, tmp_path):
        """Values that name no namespace, which would scan nothing, included."""
        for command in ("extract", "count"):
            for value in ("articles", "", ",", " , "):
                code = main(
                    [command, "--dump", str(small_dump), "--namespaces", value,
                     "--out", str(tmp_path / "o")]
                )
                assert code == 1, (command, value)

    def test_stdin_dump(self, tmp_path):
        pages = [WikiPage("A", 0, "{{cite journal|journal=Nature}}")]
        result = subprocess.run(
            [sys.executable, "-m", "wikicite.cli", "extract", "--dump", "-",
             "--out", str(tmp_path / "out")],
            input=dump_xml(pages).encode("utf-8"),
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        with open(tmp_path / "out" / "citations.jsonl", encoding="utf-8") as fp:
            assert [r.journal_raw for r in read_jsonl(fp)] == ["Nature"]


class TestCount:
    def test_jobs_flag_gives_identical_output(self, small_dump, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["count", "--dump", str(small_dump), "--out", str(serial)]) == 0
        assert main(
            ["count", "--dump", str(small_dump), "--jobs", "3", "--out", str(parallel)]
        ) == 0
        assert read(serial / "counts.json") == read(parallel / "counts.json")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        """Rejected before the (missing) registry or dump is read."""
        out = tmp_path / "out"
        code = main(["count", "--dump", str(tmp_path / "missing.xml"), "--registry",
                     str(tmp_path / "missing.tsv"), "--jobs", jobs, "--out", str(out)])
        assert code == 1
        assert f"wikicite: usage error: --jobs must be at least 1, got {jobs}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_stdin_count_dump(self, small_dump, tmp_path):
        """``count --dump -`` counts exactly what ``count --dump FILE`` counts,
        and its manifest digests the piped bytes."""
        data = small_dump.read_bytes()
        piped = subprocess.run(
            [sys.executable, "-m", "wikicite.cli", "count", "--dump", "-",
             "--out", str(tmp_path / "piped")],
            input=data, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
        )
        assert piped.returncode == 0, piped.stderr
        assert main(["count", "--dump", str(small_dump), "--out", str(tmp_path / "file")]) == 0
        counts = (tmp_path / "piped" / "counts.json").read_bytes()
        assert counts == (tmp_path / "file" / "counts.json").read_bytes()
        manifest = json.loads(read(tmp_path / "piped" / "manifest.json"))
        assert manifest["inputs"]["dump"] == {
            "path": "-", "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
        }

    def test_planted_table(self, small_dump, small_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["count", "--dump", str(small_dump), "--out", str(out)]) == 0
        with open(out / "counts.json", encoding="utf-8") as fp:
            table = read_counts_json(fp)
        truth = small_corpus.truth
        assert table.counts == truth.expected_counts
        assert table.excluded_count == truth.expected_excluded
        assert table.unknown == truth.expected_unknown
        assert table.template_total == truth.citations_total
        assert table.malformed_total == truth.malformed_total

    def test_citations_input_equals_dump_input(self, small_dump, tmp_path):
        extract_out = tmp_path / "extract"
        main(["extract", "--dump", str(small_dump), "--out", str(extract_out)])
        from_dump = tmp_path / "from_dump"
        from_jsonl = tmp_path / "from_jsonl"
        main(["count", "--dump", str(small_dump), "--out", str(from_dump)])
        main(
            ["count", "--citations", str(extract_out / "citations.jsonl"),
             "--out", str(from_jsonl)]
        )
        assert read(from_dump / "counts.json") == read(from_jsonl / "counts.json")
        assert read(from_dump / "counts.csv") == read(from_jsonl / "counts.csv")

    def test_missing_registry_exit_code(self, small_dump, tmp_path):
        code = main(
            ["count", "--dump", str(small_dump), "--registry",
             str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_manifest_digests_the_registry_that_was_parsed(self, small_dump, tmp_path):
        registry_path = tmp_path / "registry.tsv"
        data = "canonical\tNature\r\nalias\tNat.\tNature\n".encode("utf-8")
        registry_path.write_bytes(data)
        out = tmp_path / "o"
        assert main(
            ["count", "--dump", str(small_dump), "--registry", str(registry_path),
             "--out", str(out)]
        ) == 0
        entry = json.loads(read(out / "manifest.json"))["inputs"]["registry"]
        assert entry == {
            "path": str(registry_path),
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }

    def test_registry_bytes_decode_as_an_opened_file(self, tmp_path):
        """CRLF and a bare CR end lines, as universal newlines read them; a
        NEL (U+0085) inside a name does not, though ``str.splitlines`` would
        split there."""
        registry_path = tmp_path / "registry.tsv"
        registry_path.write_bytes(
            "canonical\tNa\x85ture\r\nalias\tNat\tNa\x85ture\rcanonical\tScience\n"
            "exclude\tTime\r".encode("utf-8")
        )
        registry = _load_registry_arg(_Run(str(tmp_path / "out")), str(registry_path))
        assert registry == load_registry(registry_path)
        assert registry.fingerprint == load_registry(registry_path).fingerprint
        assert registry.canonical == {"Na\x85ture", "Science", "Time"}
        assert registry.resolve("nat").name == "Na\x85ture"

    def test_builtin_registry_decodes_as_a_registry_file(self, tmp_path, monkeypatch):
        """The built-in registry's bytes are digested and decoded as a
        ``--registry`` file's are: NEL, U+2028 and form feed end no line,
        though ``str.splitlines`` would split at each."""
        from wikicite import registry as registry_module

        data = (
            "canonical\tNa\x85ture\r\nalias\tNat\u2028Rev\tNa\x85ture\n"
            "canonical\tScience\x0cWeekly\n"
        ).encode("utf-8")
        path = tmp_path / "registry.tsv"
        path.write_bytes(data)
        # Joined to an absolute path, the package's resource path is that path.
        monkeypatch.setattr(registry_module, "DEFAULT_REGISTRY_RESOURCE", str(path))
        expected = load_registry(path)
        assert expected.canonical == {"Na\x85ture", "Science\x0cWeekly"}
        run = _Run(str(tmp_path / "out"))
        builtin = _load_registry_arg(run, None)
        assert builtin == expected
        assert builtin.fingerprint == expected.fingerprint
        assert load_default_registry() == expected
        assert run.inputs["registry"] == {
            "path": "<builtin starter registry>",
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }

    def test_requires_an_input(self, tmp_path):
        assert main(["count", "--out", str(tmp_path / "o")]) == 1

    def test_rejects_both_inputs(self, small_dump, tmp_path):
        code = main(
            ["count", "--dump", str(small_dump), "--citations", "x.jsonl",
             "--out", str(tmp_path / "o")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "summary",
        [
            "[]",
            '"malformed_total"',
            "{}",
            '{"malformed_total": null}',
            '{"malformed_total": true}',
            '{"malformed_total": "3"}',
            '{"malformed_total": 1.0}',
            '{"malformed_total": -5}',
            '{"malformed_total": 3',
        ],
    )
    def test_bad_extract_summary_is_input_error(self, small_dump, tmp_path, summary):
        extract_out = tmp_path / "extract"
        main(["extract", "--dump", str(small_dump), "--out", str(extract_out)])
        (extract_out / "extract_summary.json").write_text(summary, encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["count", "--citations", str(extract_out / "citations.jsonl"), "--out", str(out)]
        )
        assert code == 2
        assert not (out / "counts.json").exists()

    @pytest.fixture(scope="class")
    def extracted_300(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("fx300")
        assert main(
            ["gen-fixture", "--pages", "60", "--citations", "300", "--out", str(base / "fx")]
        ) == 0
        extract_out = base / "extract"
        assert main(
            ["extract", "--dump", str(base / "fx" / "dump.xml"), "--out", str(extract_out)]
        ) == 0
        return base, extract_out

    def _count_copy(
        self, extracted_300, tmp_path, lines=None, summary=True, edit=None, rewrite=None
    ):
        """Count a staged copy of the extract, cut to ``lines`` lines, with
        ``edit`` applied to the first record's decoded object and ``rewrite``
        to the first line's text."""
        base, extract_out = extracted_300
        staged = tmp_path / "staged"
        staged.mkdir()
        text = read(extract_out / "citations.jsonl")
        if lines is not None:
            text = "".join(text.splitlines(keepends=True)[:lines])
        first, rest = text.split("\n", 1)
        if edit is not None:
            record = json.loads(first)
            edit(record)
            first = json.dumps(record)
        if rewrite is not None:
            first = rewrite(first)
        text = first + "\n" + rest
        (staged / "citations.jsonl").write_text(text, encoding="utf-8")
        if summary:
            (staged / "extract_summary.json").write_text(
                read(extract_out / "extract_summary.json"), encoding="utf-8"
            )
        out = tmp_path / "out"
        code = main(
            ["count", "--citations", str(staged / "citations.jsonl"),
             "--registry", str(base / "fx" / "registry.tsv"), "--out", str(out)]
        )
        return code, out

    def test_whole_extract_counts(self, extracted_300, tmp_path):
        summary = json.loads(read(extracted_300[1] / "extract_summary.json"))
        assert summary["records"] == 300
        code, out = self._count_copy(extracted_300, tmp_path)
        assert code == 0
        with open(out / "counts.json", encoding="utf-8") as fp:
            assert read_counts_json(fp).template_total == 300

    def test_truncated_jsonl_is_input_error(self, extracted_300, tmp_path, capsys):
        code, out = self._count_copy(extracted_300, tmp_path, lines=50)
        assert code == 2
        assert "50 records" in capsys.readouterr().err
        assert not (out / "counts.json").exists()

    def test_missing_summary_only_warns(self, extracted_300, tmp_path, capsys):
        code, out = self._count_copy(extracted_300, tmp_path, lines=50, summary=False)
        assert code == 0
        assert "no extract_summary.json" in capsys.readouterr().err
        with open(out / "counts.json", encoding="utf-8") as fp:
            table = read_counts_json(fp)
        assert (table.template_total, table.malformed_total) == (50, 0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("page_title", 7),
            ("template_name_raw", None),
            ("params", [["journal", "Nature"]]),
            ("params", {"journal": 5}),
            ("params", {"journal": None}),
            ("params", {"journal": ["Nature"]}),
            ("params", {"journal": {"name": "Nature"}}),
            ("journal_raw", 5),
            ("span", "ab"),
            ("span", [1, 2, 3]),
            ("span", [1.0, 9]),
            ("span", [False, 9]),
            ("span", [-1, 9]),
            ("span", [10, 2]),
            ("span", [4, 4]),
            ("journal_raw", KeyError),
            ("extra", "field"),
        ],
        ids=[
            "title-int", "name-null", "params-list", "params-int-value", "params-null-value",
            "params-list-value", "params-object-value", "journal-int",
            "span-str", "span-three-items", "span-float", "span-bool", "span-negative",
            "span-reversed", "span-empty", "journal-missing", "extra-key",
        ],
    )
    def test_mistyped_record_is_input_error(self, extracted_300, tmp_path, capsys, field, value):
        def edit(record):
            if value is KeyError:
                del record[field]
            else:
                record[field] = value

        code, out = self._count_copy(extracted_300, tmp_path, edit=edit)
        assert code == 2
        assert "bad citation record on line 1" in capsys.readouterr().err
        assert not (out / "counts.json").exists()

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda line: line + " x",
            lambda line: line + line,
            lambda line: line + ",",
            lambda line: "[]",
            lambda line: '"x"',
            lambda line: "1",
            lambda line: "\ufeff" + line,
            lambda line: re.sub(r'"span": \[\d+', '"span": [NaN', line),
        ],
        ids=[
            "trailing-text", "two-objects", "trailing-comma", "array", "string", "number",
            "bom", "span-nan",
        ],
    )
    def test_undecodable_line_is_input_error(self, extracted_300, tmp_path, capsys, rewrite):
        code, out = self._count_copy(extracted_300, tmp_path, rewrite=rewrite)
        assert code == 2
        assert "bad citation record on line 1" in capsys.readouterr().err
        assert not (out / "counts.json").exists()

    @pytest.mark.parametrize("records", ["null", "true", '"300"', "300.0", "-1"])
    def test_bad_summary_records_is_input_error(self, small_dump, tmp_path, records):
        extract_out = tmp_path / "extract"
        main(["extract", "--dump", str(small_dump), "--out", str(extract_out)])
        (extract_out / "extract_summary.json").write_text(
            f'{{"malformed_total": 0, "records": {records}}}', encoding="utf-8"
        )
        code = main(
            ["count", "--citations", str(extract_out / "citations.jsonl"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2

    def test_near_miss_report(self, tmp_path):
        pages = [WikiPage("A", 0, "{{cite journal|journal=Nature Genetics}}")]
        dump = tmp_path / "dump.xml"
        dump.write_text(dump_xml(pages), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["count", "--dump", str(dump), "--near-miss", "--out", str(out)]) == 0
        content = read(out / "near_miss.csv")
        assert "Nature Genetics" in content


def _write_counts_and_jcr(tmp_path, n=10, registry=None):
    """Synthetic pair of files over the first ``n`` journals of ``registry``
    (default: the starter registry)."""
    registry = registry or load_default_registry()
    names = sorted(registry.canonical - registry.exclusions)[:n]
    counts = {name: 5 * (i + 1) + (i % 3) for i, name in enumerate(names)}
    table = CountTable(
        counts=counts,
        excluded_count=0,
        unknown={},
        unknown_overflow=0,
        template_total=sum(counts.values()),
        malformed_total=0,
        registry_fingerprint=registry.fingerprint,
    )
    counts_path = tmp_path / "counts.json"
    with open(counts_path, "w", encoding="utf-8") as fp:
        write_counts_json(table, fp)
    jcr_path = tmp_path / "jcr.csv"
    with open(jcr_path, "w", encoding="utf-8") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["journal", "total_citations", "impact_factor", "articles"])
        for i, name in enumerate(names):
            writer.writerow([name, 1000 * (i + 2), 1.5 + 3 * ((i * 7) % 5), 100 + 13 * i])
    return table, counts_path, jcr_path, registry


class TestCorrelate:
    def test_matches_library_calls(self, tmp_path):
        table, counts_path, jcr_path, registry = _write_counts_and_jcr(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
             "--sweep", "2..10", "--out", str(out)]
        )
        assert code == 0

        with open(jcr_path, encoding="utf-8") as fp:
            from wikicite.bibliometrics import read_jcr_csv

            rows = read_jcr_csv(fp)
        joined = join(table, rows, registry)
        expected = []
        for series in ("total_citations", "impact_factor", "articles", "combined"):
            expected.extend(topn_sweep(joined.metrics, series, list(range(2, 11))))

        lines = read(out / "correlations.csv").splitlines()
        assert lines[0] == "series,n,tau,z,p_value"
        assert len(lines) == 1 + len(expected)
        for line, exp in zip(lines[1:], expected):
            series, n, tau, z, p = line.split(",")
            assert series == exp.series_name
            assert int(n) == exp.n
            assert float(tau) == exp.tau
            assert float(z) == exp.z
            assert float(p) == exp.p_value

        scatter_lines = read(out / "scatter.csv").splitlines()
        assert len(scatter_lines) == 1 + len(joined.metrics)
        k, m, overlap = read(out / "overlap.csv").splitlines()[1].split(",")
        assert int(overlap) == combined_top_overlap(
            joined.metrics, int(k), int(m)
        )

    def test_sweep_default_covers_all_sizes(self, tmp_path):
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path, n=6)
        out = tmp_path / "out"
        assert main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
             "--out", str(out)]
        ) == 0
        lines = read(out / "correlations.csv").splitlines()[1:]
        assert len(lines) == 4 * 5  # four series, N = 2..6

    def test_missing_jcr_flag_is_usage_error(self, tmp_path):
        _, counts_path, _, _ = _write_counts_and_jcr(tmp_path)
        code = main(["correlate", "--counts", str(counts_path), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("options, flag", [
        (["--overlap-k", "-1"], "--overlap-k"),
        (["--overlap-m", "-2"], "--overlap-m"),
        (["--labels", "-3"], "--labels"),
        (["--overlap-k", "5", "--overlap-m", "3"], "--overlap-k 5"),
    ], ids=["negative-k", "negative-m", "negative-labels", "k-above-m"])
    def test_bad_overlap_or_label_option_is_usage_error(self, tmp_path, capsys, options, flag):
        """Caught before any input is read: the inputs named do not exist,
        and no output directory is made."""
        out = tmp_path / "out"
        code = main(
            ["correlate", "--counts", str(tmp_path / "absent.json"),
             "--jcr", str(tmp_path / "absent.csv"), *options, "--out", str(out)]
        )
        assert code == 1
        assert f"wikicite: usage error: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("options", [
        ["--overlap-k", "11"],
        ["--overlap-m", "11"],
        ["--overlap-k", "3", "--overlap-m", "11"],
    ], ids=["k", "m", "k-and-m"])
    def test_overlap_past_the_joined_journals_is_data_error(self, tmp_path, capsys, options):
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path, n=10)
        code = main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path), *options,
             "--out", str(tmp_path / "out")]
        )
        assert code == 3
        assert "wikicite: insufficient data:" in capsys.readouterr().err

    def test_overlap_m_defaults_to_at_least_k(self, tmp_path):
        """With no ``--overlap-m``, m is 19 or k if larger, capped at the
        number of journals joined."""
        registry_path = tmp_path / "registry.tsv"
        registry_path.write_text(
            "".join(f"canonical\tJournal {i:03d}\n" for i in range(300)), encoding="utf-8"
        )
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(
            tmp_path, n=300, registry=load_registry(registry_path)
        )
        args = ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
                "--registry", str(registry_path), "--sweep", "2..3"]
        assert main([*args, "--overlap-k", "25", "--out", str(tmp_path / "k25")]) == 0
        k, m, _ = read(tmp_path / "k25" / "overlap.csv").splitlines()[1].split(",")
        assert (k, m) == ("25", "25")
        assert main([*args, "--out", str(tmp_path / "default")]) == 0
        k, m, _ = read(tmp_path / "default" / "overlap.csv").splitlines()[1].split(",")
        assert (k, m) == ("10", "19")
        assert main([*args, "--overlap-k", "301", "--out", str(tmp_path / "k301")]) == 3

    @pytest.mark.parametrize("edit", ["rename-count", "count-to-unknown"])
    def test_counts_that_disagree_with_the_registry_exit_2(self, tmp_path, capsys, edit):
        """Edits that keep the table self-consistent and its fingerprint
        intact: a counts key renamed, or a canonical count moved into the
        unknown strings under its canonical name."""
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
        obj = json.loads(read(counts_path))
        name = sorted(obj["counts"])[0]
        count = obj["counts"].pop(name)
        if edit == "rename-count":
            obj["counts"]["Totally Not A Journal"] = count
        else:
            obj["unknown"][name] = count
        counts_path.write_text(json.dumps(obj), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path), "--out", str(out)]
        )
        assert code == 2
        bad = "Totally Not A Journal" if edit == "rename-count" else name
        assert f"{bad!r}" in capsys.readouterr().err
        assert not (out / "correlations.csv").exists()

    def test_too_few_joined_rows(self, tmp_path):
        registry = load_default_registry()
        table = CountTable(
            counts={"Nature": 3},
            excluded_count=0,
            unknown={},
            unknown_overflow=0,
            template_total=3,
            malformed_total=0,
            registry_fingerprint=registry.fingerprint,
        )
        counts_path = tmp_path / "counts.json"
        with open(counts_path, "w", encoding="utf-8") as fp:
            write_counts_json(table, fp)
        jcr_path = tmp_path / "jcr.csv"
        jcr_path.write_text(
            "journal,total_citations,impact_factor,articles\nNature,1000,2.0,10\n",
            encoding="utf-8",
        )
        code = main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
             "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_sweep_beyond_join_size(self, tmp_path, capsys):
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path, n=5)
        code = main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
             "--sweep", "2..50", "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "wikicite: insufficient data: sweep entry '2..50' is out of range "
            "(2..5 joined journals)\n"
        )

    def test_degenerate_sweep_exits_3(self, tmp_path, monkeypatch):
        """A ``DegenerateInputError`` from the sweep is a data error, though
        ``main`` never names the class."""
        from wikicite import cli
        from wikicite.bibliometrics import DegenerateInputError

        def degenerate(*args):
            raise DegenerateInputError("a fully tied list has no rank ordering")

        monkeypatch.setattr(cli, "topn_sweep", degenerate)
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
        code = main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
             "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_bad_jcr_exits_2(self, tmp_path, capsys):
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
        jcr_path.write_text(
            "journal,total_citations,impact_factor,articles\nNature,1000,2.0\n",
            encoding="utf-8",
        )
        code = main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "expected 4 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [1, 3])
    def test_jcr_value_too_large_for_a_float_exits_2(self, tmp_path, capsys, column):
        """``combined`` and the series read total_citations and articles as
        floats, so an integer past the float range is an input error."""
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
        lines = read(jcr_path).splitlines()
        row = lines[2].split(",")
        row[column] = "9" * 400
        lines[2] = ",".join(row)
        jcr_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "line 3: value too large for a float" in capsys.readouterr().err

    def test_combined_overflow_exits_2(self, tmp_path, capsys):
        """A row whose total_citations and impact_factor are finite but
        whose product, ``combined``, is not is an input error naming the
        line and the journal, not a finiteness failure of the statistics."""
        fx = tmp_path / "fx"
        assert main(["gen-fixture", "--pages", "60", "--citations", "200", "--out", str(fx)]) == 0
        with open(fx / "jcr.csv", newline="", encoding="utf-8") as fp:
            rows = list(csv.reader(fp))
        rows[2][1:3] = [str(10**300), "1e10"]
        with open(fx / "jcr.csv", "w", newline="", encoding="utf-8") as fp:
            csv.writer(fp, lineterminator="\n").writerows(rows)
        code = main(
            ["correlate", "--dump", str(fx / "dump.xml"), "--registry", str(fx / "registry.tsv"),
             "--jcr", str(fx / "jcr.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert f"line 3: {rows[2][0]!r}: total_citations" in capsys.readouterr().err

    def test_registry_mismatch_detected(self, tmp_path):
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
        other = tmp_path / "other.tsv"
        other.write_text("canonical\tNature\n", encoding="utf-8")
        code = main(
            ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
             "--registry", str(other), "--out", str(tmp_path / "o")]
        )
        assert code == 2


_BAD_COUNTS = [
    ("counts", 3.7, "non-negative integer"),
    ("counts", "12", "non-negative integer"),
    ("counts", -5, "non-negative integer"),
    ("counts", True, "non-negative integer"),
    # correlate ranks the counts as floats
    pytest.param("counts", 10**400, "is too large for a float", id="counts-huge"),
    ("unknown", 3.7, "non-negative integer"),
    ("unknown", "12", "non-negative integer"),
    ("unknown", -5, "non-negative integer"),
    ("unknown", True, "non-negative integer"),
    ("no_journal_count", 999999, "disagrees"),
    ("registry_fingerprint", None, "registry_fingerprint must be a string"),
    ("registry_fingerprint", 123, "registry_fingerprint must be a string"),
    ("unknown_overflow", KeyError, "missing ['unknown_overflow']"),
    ("extra", "key", "unexpected keys ['extra']"),
]


def _corrupt_counts(counts_path, field, value):
    obj = json.loads(read(counts_path))
    if value is KeyError:
        del obj[field]
    elif field in ("counts", "unknown"):
        name = next(iter(obj["counts"]))
        obj[field][name if field == "counts" else "Some Unknown Journal"] = value
    else:
        obj[field] = value
    counts_path.write_text(json.dumps(obj), encoding="utf-8")


@pytest.mark.parametrize("field,value,reason", _BAD_COUNTS)
def test_correlate_rejects_corrupt_counts(tmp_path, capsys, field, value, reason):
    _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
    _corrupt_counts(counts_path, field, value)
    out = tmp_path / "out"
    code = main(
        ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path), "--out", str(out)]
    )
    assert code == 2
    assert reason in capsys.readouterr().err
    assert not (out / "correlations.csv").exists()


@pytest.mark.parametrize("field,value,reason", _BAD_COUNTS)
def test_growth_rejects_corrupt_counts(tmp_path, capsys, field, value, reason):
    _, counts_path, _, _ = _write_counts_and_jcr(tmp_path)
    _corrupt_counts(counts_path, field, value)
    out = tmp_path / "out"
    assert main(["growth", "--table", f"2007-01-01={counts_path}", "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not (out / "growth.csv").exists()


class TestSweepParsing:
    def test_range_syntax(self):
        assert parse_sweep("2..10", 10) == list(range(2, 11))

    def test_mixed_syntax(self):
        assert parse_sweep("2,5,8..10,20", 20) == [2, 5, 8, 9, 10, 20]

    @pytest.mark.parametrize("bad", ["", "abc", "5..2", "2,2", "10,5", "1..4", "0"])
    def test_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_sweep(bad, 100)

    @pytest.mark.parametrize("spec,entry", [
        ("2..15", "2..15"), ("2,5..8,20", "20"), ("3,2000000000", "2000000000"),
        ("2..1000000000", "2..1000000000"),
    ])
    def test_entry_past_the_join_is_named_before_expanding(self, spec, entry):
        """A billion-wide range is refused before it is expanded, and the
        error names the entry rather than listing every size."""
        with pytest.raises(InsufficientDataError) as caught:
            parse_sweep(spec, 14)
        assert str(caught.value) == f"sweep entry {entry!r} is out of range (2..14 joined journals)"


class TestGrowth:
    def _table_file(self, tmp_path, name, total):
        table = CountTable(
            counts={},
            excluded_count=0,
            unknown={},
            unknown_overflow=0,
            template_total=total,
            malformed_total=0,
            registry_fingerprint="fp",
        )
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fp:
            write_counts_json(table, fp)
        return path

    def test_series(self, tmp_path):
        paths = [
            self._table_file(tmp_path, f"t{i}.json", total)
            for i, total in enumerate([0, 19066, 24656, 30368])
        ]
        dates = ["2005-02-01", "2006-11-01", "2007-02-01", "2007-04-02"]
        args = ["growth", "--out", str(tmp_path / "out")]
        for when, path in zip(dates, paths):
            args += ["--table", f"{when}={path}"]
        assert main(args) == 0
        assert read(tmp_path / "out" / "growth.csv") == (
            "date,template_total\n"
            "2005-02-01,0\n"
            "2006-11-01,19066\n"
            "2007-02-01,24656\n"
            "2007-04-02,30368\n"
        )

    def test_non_increasing_dates(self, tmp_path):
        path = self._table_file(tmp_path, "t.json", 5)
        code = main(
            ["growth", "--table", f"2007-01-01={path}", "--table", f"2006-01-01={path}",
             "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_bad_table_spec(self, tmp_path):
        assert main(["growth", "--table", "notadate", "--out", str(tmp_path / "o")]) == 1


class TestGenFixture:
    def test_roundtrip_with_count(self, tmp_path):
        fixture_dir = tmp_path / "fx"
        assert main(
            ["gen-fixture", "--pages", "30", "--citations", "60", "--nested", "5",
             "--decoys", "4", "--malformed", "3", "--no-journal", "4",
             "--seed", "5", "--out", str(fixture_dir)]
        ) == 0
        truth = json.loads(read(fixture_dir / "truth.json"))
        out = tmp_path / "counted"
        assert main(
            ["count", "--dump", str(fixture_dir / "dump.xml"),
             "--registry", str(fixture_dir / "registry.tsv"), "--out", str(out)]
        ) == 0
        with open(out / "counts.json", encoding="utf-8") as fp:
            table = read_counts_json(fp)
        assert table.template_total == truth["citations_total"]
        assert table.malformed_total == truth["malformed_total"]
        assert table.counts == truth["expected_counts"]

    @pytest.mark.parametrize("flag, value", [
        ("--pages", "0"), ("--malformed", "-1"), ("--citations", "-1"), ("--decoys", "-2"),
    ])
    def test_bad_count_is_usage_error(self, tmp_path, capsys, flag, value):
        """A count no corpus can have is a usage error, found before any
        file is written."""
        out = tmp_path / "fx"
        assert main(["gen-fixture", flag, value, "--out", str(out)]) == 1
        assert "wikicite: usage error:" in capsys.readouterr().err
        assert not out.exists()

    def test_full_demo_pipeline(self, tmp_path):
        fixture_dir = tmp_path / "fx"
        main(["gen-fixture", "--pages", "60", "--citations", "200", "--out", str(fixture_dir)])
        out = tmp_path / "corr"
        code = main(
            ["correlate", "--dump", str(fixture_dir / "dump.xml"),
             "--registry", str(fixture_dir / "registry.tsv"),
             "--jcr", str(fixture_dir / "jcr.csv"), "--out", str(out)]
        )
        assert code == 0
        assert (out / "correlations.csv").exists()
        assert (out / "counts.json").exists()


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_each_command_takes_its_pinned_options():
    """Adding or dropping an option is a visible change here. ``--jobs``, kept
    for the benchmark's pool metrics, is ``count``'s alone."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(o for action in sub._actions for o in action.option_strings)
        for name, sub in commands.choices.items()
    }
    assert options == {
        "extract": ["--dump", "--help", "--namespaces", "--out", "-h"],
        "count": ["--citations", "--dump", "--help", "--jobs", "--namespaces", "--near-miss",
                  "--out", "--registry", "-h"],
        "correlate": ["--counts", "--dump", "--help", "--jcr", "--labels", "--namespaces",
                      "--out", "--overlap-k", "--overlap-m", "--registry", "--sweep", "-h"],
        "growth": ["--help", "--out", "--table", "-h"],
        "gen-fixture": ["--citations", "--decoys", "--help", "--malformed", "--nested",
                        "--no-journal", "--out", "--pages", "--seed", "-h"],
    }


def _manifest_outputs_match_files(out: Path) -> None:
    outputs = json.loads(read(out / "manifest.json"))["outputs"]
    written = sorted(path.name for path in out.iterdir() if path.name != "manifest.json")
    assert outputs == written


def test_manifest_lists_exactly_the_files_written(tmp_path, monkeypatch):
    """Every command and input branch: the manifest's ``outputs`` are the
    files in ``--out`` besides the manifest itself, with no ``*.partial``."""
    monkeypatch.chdir(tmp_path)
    runs = [
        ["gen-fixture", "--pages", "30", "--citations", "120", "--out", "fx"],
        ["extract", "--dump", "fx/dump.xml", "--out", "ex"],
        ["count", "--citations", "ex/citations.jsonl", "--registry", "fx/registry.tsv",
         "--out", "c1"],
        ["count", "--dump", "fx/dump.xml", "--registry", "fx/registry.tsv", "--near-miss",
         "--out", "c2"],
        ["correlate", "--dump", "fx/dump.xml", "--registry", "fx/registry.tsv",
         "--jcr", "fx/jcr.csv", "--out", "r1"],
        ["correlate", "--counts", "c1/counts.json", "--registry", "fx/registry.tsv",
         "--jcr", "fx/jcr.csv", "--out", "r2"],
        ["growth", "--table", "2006-01-01=c1/counts.json",
         "--table", "2007-01-01=c2/counts.json", "--out", "g"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
        _manifest_outputs_match_files(tmp_path / argv[-1])
    assert "near_miss.csv" in os.listdir("c2")
    assert "counts.json" in os.listdir("r1")


class TestAtomicOutputs:
    """A stage's files appear under their final names only once complete."""

    @pytest.fixture(scope="class")
    def fixture_dump(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("atomic")
        assert main(
            ["gen-fixture", "--pages", "60", "--citations", "300", "--out", str(base)]
        ) == 0
        whole = (base / "dump.xml").read_bytes()
        cut = base / "cut.xml"
        cut.write_bytes(whole[: len(whole) // 2])
        return base / "dump.xml", cut

    def test_truncated_dump_leaves_nothing_to_count(self, fixture_dump, tmp_path, monkeypatch):
        import wikicite.cli as cli

        written = []
        write_jsonl = cli.write_jsonl

        def counting_write_jsonl(records, fp):
            written.append(write_jsonl(records, fp))
            return written[-1]

        monkeypatch.setattr(cli, "write_jsonl", counting_write_jsonl)
        out = tmp_path / "extract"
        assert main(["extract", "--dump", str(fixture_dump[1]), "--out", str(out)]) == 2
        assert sum(written) > 0  # records were streamed before the dump ran out
        assert os.listdir(out) == []
        code = main(
            ["count", "--citations", str(out / "citations.jsonl"), "--out", str(tmp_path / "c")]
        )
        assert code == 2
        assert not (tmp_path / "c" / "counts.json").exists()

    def test_failed_rerun_keeps_previous_outputs(self, fixture_dump, tmp_path):
        whole, cut = fixture_dump
        out = tmp_path / "extract"
        assert main(["extract", "--dump", str(whole), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main(["extract", "--dump", str(cut), "--out", str(out)]) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        code = main(
            ["count", "--citations", str(out / "citations.jsonl"), "--out", str(tmp_path / "c")]
        )
        assert code == 0

    def test_no_partial_file_after_success_or_exception(self, tmp_path):
        run = _Run(str(tmp_path / "out"))
        with run.open("kept.txt") as fp:
            fp.write("whole\n")
        with pytest.raises(RuntimeError):
            with run.open("lost.txt") as fp:
                fp.write("half")
                raise RuntimeError("stage failed")
        assert os.listdir(tmp_path / "out") == ["kept.txt"]
        assert read(tmp_path / "out" / "kept.txt") == "whole\n"
        assert run.names == ["kept.txt"]


def test_manifest_written_and_stable(tmp_path):
    _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
    out = tmp_path / "out"
    args = ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
            "--out", str(out)]
    assert main(args) == 0
    manifest_first = read(out / "manifest.json")
    parsed = json.loads(manifest_first)
    assert parsed["command"] == "correlate"
    assert parsed["inputs"]["jcr"]["sha256"]
    assert main(args) == 0
    assert read(out / "manifest.json") == manifest_first


def test_manifest_config_per_command(tmp_path, monkeypatch):
    """Each command's manifest ``config`` holds exactly its parsed options."""
    monkeypatch.chdir(tmp_path)

    def config(argv):
        assert main(argv) == 0
        out = argv[argv.index("--out") + 1]
        return json.loads(read(tmp_path / out / "manifest.json"))["config"]

    assert config(
        ["gen-fixture", "--pages", "20", "--citations", "100", "--out", "fx"]
    ) == {
        "citations": 100, "decoys": 30, "malformed": 20, "nested": 50,
        "no_journal": 30, "out": "fx", "pages": 20, "seed": 20070402,
    }
    assert config(
        ["extract", "--dump", "fx/dump.xml", "--namespaces", "all", "--out", "ex"]
    ) == {"dump": "fx/dump.xml", "namespaces": "all", "out": "ex"}
    assert config(
        ["count", "--citations", "ex/citations.jsonl", "--registry", "fx/registry.tsv",
         "--out", "c1"]
    ) == {
        "citations": "ex/citations.jsonl", "dump": None, "jobs": 1, "namespaces": "0",
        "near_miss": False, "out": "c1", "registry": "fx/registry.tsv",
    }
    assert config(
        ["count", "--dump", "fx/dump.xml", "--jobs", "2", "--near-miss", "--out", "c2"]
    ) == {
        "citations": None, "dump": "fx/dump.xml", "jobs": 2, "namespaces": "0",
        "near_miss": True, "out": "c2", "registry": None,
    }
    assert config(
        ["correlate", "--counts", "c1/counts.json", "--registry", "fx/registry.tsv",
         "--jcr", "fx/jcr.csv", "--out", "r1"]
    ) == {
        "counts": "c1/counts.json", "dump": None, "jcr": "fx/jcr.csv",
        "labels": 100, "namespaces": "0", "out": "r1", "overlap_k": None,
        "overlap_m": None, "registry": "fx/registry.tsv", "sweep": None,
    }
    assert config(
        ["correlate", "--dump", "fx/dump.xml", "--jcr", "fx/jcr.csv", "--sweep", "2..4",
         "--labels", "3", "--overlap-k", "2", "--out", "r2"]
    ) == {
        "counts": None, "dump": "fx/dump.xml", "jcr": "fx/jcr.csv",
        "labels": 3, "namespaces": "0", "out": "r2", "overlap_k": 2,
        "overlap_m": None, "registry": None, "sweep": "2..4",
    }
    assert config(
        ["growth", "--table", "2006-01-01=c1/counts.json",
         "--table", "2007-01-01=c2/counts.json", "--out", "g"]
    ) == {"out": "g", "table": ["2006-01-01=c1/counts.json", "2007-01-01=c2/counts.json"]}


# SHA-256 of every file the chain in test_chain_output_bytes_are_pinned writes.
_CHAIN_DIGESTS = {
    "fx/dump.xml": "a09c1a455830cefd5bff30664f5f99c3b0a507ba75bb743567824651e39c8307",
    "fx/jcr.csv": "8f0b9c53e83ca350c24d636f333a782774f444528cd23a0d4abceab7d4d0f1a8",
    "fx/manifest.json": "961da6ad8dd9a97ca017a0b5f2e686fe0384b55462cf8e2398c7eb27b9679fa9",
    "fx/registry.tsv": "7132839620edd6dc71c7d7809fd672f54618df9e888a1d715d9811b144a6734a",
    "fx/truth.json": "adf30bf1101bb51acfbe0a4f7822954be17bfe2d7ec7d20098cdb9b8b0d90667",
    "ex/citations.jsonl": "ebb2e7fcc330dd6b2dd1382dae2df6962ede81d22a65408d0ba4c84dde099872",
    "ex/extract_summary.json": "07a508e50780c44954bd9ea919029003fad2fb32aebb533039f1876f3fd20f51",
    "ex/manifest.json": "c98351875833fc88daabefa13e8e5b9886d655fb32099652b2134d052012ec62",
    "c1/counts.csv": "b2ba397628a7502c92c5f4950a50dfcbc56382cfd4df87c7d1662a905c52f794",
    "c1/counts.json": "533da7f17d16c0d12f3ad21dccb8aae17894521d0521ab67154919310d1b07b3",
    "c1/manifest.json": "2be9609167718d5f9e6e05c7e20c9efa4be3cb861c9f65bf6abc956b2023c970",
    "c1/unknown.csv": "935cc249cb2ddfc934d973c208711526aef6fd0fdf95ea46ca94d8a280009eca",
    "c2/counts.csv": "b2ba397628a7502c92c5f4950a50dfcbc56382cfd4df87c7d1662a905c52f794",
    "c2/counts.json": "533da7f17d16c0d12f3ad21dccb8aae17894521d0521ab67154919310d1b07b3",
    "c2/manifest.json": "1d58641f6510c57762ec9fca268da0a427e0b19352d1f36f24f5a8eb9f84a3b4",
    "c2/near_miss.csv": "56f01f91d442eb80f926161c4ee9b45888c4c7ad6fcd9aa577b6bf4064912cf6",
    "c2/unknown.csv": "935cc249cb2ddfc934d973c208711526aef6fd0fdf95ea46ca94d8a280009eca",
    "r/correlations.csv": "48657084a0530685e0e01ec9c4de1af89691547c066fe5b2c3294d6c165c746a",
    "r/join_audit.json": "9f579a6f884ec16cfc185f16ec6207d06e8a7c37a648bb91832e3f68524c3eda",
    "r/manifest.json": "9166f756e0faf49f7f2d4808021995eb1cce37a747c19e47a0f31ee6a5cf5bab",
    "r/overlap.csv": "2793071a2cbd5b606c20b855f4ab4129be2ec6b74bc26ffc2d2866d10c3f5bf6",
    "r/scatter.csv": "e0ab185d82f6b1e963a4bfc8d7b20bb9d326fda5c98d4614a882b0df7bd913cc",
    "g/growth.csv": "2bc96dbd8f02121bb91e721a55409c62ad4f0ce703e56000f44bfb9e8796b0d7",
    "g/manifest.json": "c08780092c2ef82d6adc3aced4eb4eca27fe619b13d88f194b49ea180b2db11f",
}


def test_chain_output_bytes_are_pinned(tmp_path, monkeypatch):
    """The whole command chain, run with relative paths, writes exactly the
    pinned bytes, manifests included. A deliberate change to any output
    format (or to ``__version__``, which every manifest records) must
    update ``_CHAIN_DIGESTS``."""
    monkeypatch.chdir(tmp_path)
    runs = [
        ["gen-fixture", "--pages", "30", "--citations", "120", "--nested", "5",
         "--decoys", "4", "--malformed", "3", "--no-journal", "4", "--seed", "11",
         "--out", "fx"],
        ["extract", "--dump", "fx/dump.xml", "--out", "ex"],
        ["count", "--citations", "ex/citations.jsonl", "--registry", "fx/registry.tsv",
         "--out", "c1"],
        ["count", "--dump", "fx/dump.xml", "--near-miss", "--out", "c2"],
        ["correlate", "--counts", "c1/counts.json", "--registry", "fx/registry.tsv",
         "--jcr", "fx/jcr.csv", "--labels", "5", "--out", "r"],
        ["growth", "--table", "2006-01-01=c1/counts.json",
         "--table", "2007-01-01=c2/counts.json", "--out", "g"],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert digests == _CHAIN_DIGESTS


class TestOneReadPerInput:
    """Each input file is opened once, and its manifest entry is the digest
    of the bytes on disk, taken in the pass that parses it."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("one_read")
        fx = root / "fx"
        assert main(["gen-fixture", "--pages", "60", "--citations", "200", "--out", str(fx)]) == 0
        assert main(["extract", "--dump", str(fx / "dump.xml"), "--out", str(root / "ex")]) == 0
        # A citations file with no extract_summary.json beside it.
        (root / "bare").mkdir()
        shutil.copy(root / "ex" / "citations.jsonl", root / "bare")
        for name in ("c1", "c2"):
            assert main(
                ["count", "--dump", str(fx / "dump.xml"), "--registry", str(fx / "registry.tsv"),
                 "--out", str(root / name)]
            ) == 0
        return root

    @pytest.mark.parametrize("argv, inputs", [
        (["extract", "--dump", "{r}/fx/dump.xml"], {"dump": "{r}/fx/dump.xml"}),
        (["count", "--citations", "{r}/ex/citations.jsonl", "--registry", "{r}/fx/registry.tsv"],
         {"extract_summary": "{r}/ex/extract_summary.json",
          "citations": "{r}/ex/citations.jsonl", "registry": "{r}/fx/registry.tsv"}),
        (["count", "--dump", "{r}/fx/dump.xml", "--registry", "{r}/fx/registry.tsv"],
         {"dump": "{r}/fx/dump.xml", "registry": "{r}/fx/registry.tsv"}),
        (["count", "--citations", "{r}/bare/citations.jsonl", "--registry", "{r}/fx/registry.tsv"],
         {"citations": "{r}/bare/citations.jsonl", "registry": "{r}/fx/registry.tsv"}),
        (["correlate", "--dump", "{r}/fx/dump.xml", "--registry", "{r}/fx/registry.tsv",
          "--jcr", "{r}/fx/jcr.csv"],
         {"dump": "{r}/fx/dump.xml", "registry": "{r}/fx/registry.tsv", "jcr": "{r}/fx/jcr.csv"}),
        (["correlate", "--counts", "{r}/c1/counts.json", "--registry", "{r}/fx/registry.tsv",
          "--jcr", "{r}/fx/jcr.csv"],
         {"counts": "{r}/c1/counts.json", "registry": "{r}/fx/registry.tsv",
          "jcr": "{r}/fx/jcr.csv"}),
        (["growth", "--table", "2006-01-01={r}/c1/counts.json",
          "--table", "2007-01-01={r}/c2/counts.json"],
         {"table_0": "{r}/c1/counts.json", "table_1": "{r}/c2/counts.json"}),
        (["gen-fixture", "--pages", "30", "--citations", "120"], {}),
    ], ids=["extract", "count-citations", "count-dump", "count-citations-no-summary",
            "correlate-dump", "correlate-counts", "growth", "gen-fixture"])
    def test_each_input_is_opened_once(self, root, tmp_path, monkeypatch, argv, inputs):
        from wikicite import cli

        opened: list[str] = []

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        out = tmp_path / "out"
        assert main([arg.format(r=root) for arg in argv] + ["--out", str(out)]) == 0
        expected = {key: path.format(r=root) for key, path in inputs.items()}
        assert {path: opened.count(path) for path in expected.values()} == {
            path: 1 for path in expected.values()
        }
        manifest_inputs = json.loads(read(out / "manifest.json"))["inputs"]
        assert manifest_inputs.keys() == expected.keys()
        for key, path in expected.items():
            data = Path(path).read_bytes()
            assert manifest_inputs[key] == {
                "path": path, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            }

    @pytest.mark.parametrize("encode", [
        lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),
        lambda text: text.encode("utf-16"),
    ], ids=["utf-8-bom", "utf-16"])
    def test_counts_json_is_strict_utf_8(self, root, tmp_path, capsys, encode):
        """Decoded as ``open(path, encoding="utf-8")`` decodes it: a BOM or
        a UTF-16 file is an input error, never sniffed and accepted."""
        counts = tmp_path / "counts.json"
        counts.write_bytes(encode(read(root / "c1" / "counts.json")))
        assert main(
            ["correlate", "--counts", str(counts), "--registry", str(root / "fx" / "registry.tsv"),
             "--jcr", str(root / "fx" / "jcr.csv"), "--out", str(tmp_path / "k")]
        ) == 2
        assert main(["growth", "--table", f"2006-01-01={counts}", "--out", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err.count("wikicite: input error:") == 2

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_parse_as_universal_newlines(self, root, tmp_path, newline):
        """CRLF and bare-CR line ends in ``citations.jsonl`` and ``jcr.csv``
        give the outputs that LF line ends give."""
        registry = str(root / "fx" / "registry.tsv")
        ex = tmp_path / "ex"
        ex.mkdir()
        for name in ("citations.jsonl", "extract_summary.json"):
            text = (root / "ex" / name).read_bytes().decode("utf-8")
            (ex / name).write_bytes(text.replace("\n", newline).encode("utf-8"))
        jcr = tmp_path / "jcr.csv"
        jcr.write_bytes(read(root / "fx" / "jcr.csv").replace("\n", newline).encode("utf-8"))
        assert b"\r" in (ex / "citations.jsonl").read_bytes()
        for jsonl, jcr_path, out in (
            (root / "ex" / "citations.jsonl", root / "fx" / "jcr.csv", tmp_path / "lf"),
            (ex / "citations.jsonl", jcr, tmp_path / "other"),
        ):
            assert main(
                ["count", "--citations", str(jsonl), "--registry", registry,
                 "--out", str(out / "count")]
            ) == 0
            assert main(
                ["correlate", "--counts", str(out / "count" / "counts.json"),
                 "--registry", registry, "--jcr", str(jcr_path), "--out", str(out / "corr")]
            ) == 0
        for name in ("count/counts.json", "count/unknown.csv", "corr/correlations.csv",
                     "corr/scatter.csv", "corr/overlap.csv", "corr/join_audit.json"):
            assert (tmp_path / "other" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()

    def test_stdin_dump_leaves_stdin_open(self, small_dump, tmp_path, monkeypatch):
        """``--dump -`` digests stdin but never closes it, not even when the
        reader wrapping it is finalized."""
        stdin = io.TextIOWrapper(io.BytesIO(small_dump.read_bytes()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["count", "--dump", "-", "--out", str(tmp_path / "o")]) == 0
        gc.collect()
        assert not stdin.buffer.closed
        assert stdin.buffer.read() == b""

    def test_partial_read_digests_the_whole_stream(self, tmp_path):
        data = b"first line\nsecond line\n" * 1000
        reader = _HashingReader("<label>", io.BytesIO(data))
        assert reader.read(5) == b"first"
        whole = {"path": "<label>", "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        assert reader.manifest_entry() == whole
        path = tmp_path / "lines.txt"
        path.write_bytes(data)
        run = _Run(str(tmp_path / "out"))
        assert run.read("lines", str(path), lambda fp: fp.readline()) == "first line\n"
        assert run.inputs == {"lines": {**whole, "path": str(path)}}


class TestInputErrorsNameTheirFile:
    """An input error starts with the path of the input at fault, and a run
    that fails before its first output leaves no ``--out`` directory."""

    def test_growth_names_the_corrupt_table(self, tmp_path, capsys):
        _, good, _, _ = _write_counts_and_jcr(tmp_path)
        bad = tmp_path / "b.json"
        bad.write_bytes(good.read_bytes())
        _corrupt_counts(bad, "no_journal_count", 999999)
        out = tmp_path / "out"
        code = main(["growth", "--table", f"2006-01-01={good}", "--table", f"2007-01-01={bad}",
                     "--out", str(out)])
        assert code == 2
        assert f"wikicite: input error: {bad}: corrupt count table:" in capsys.readouterr().err
        assert not out.exists()

    def test_registry_that_is_not_utf_8_is_named(self, tmp_path, capsys):
        citations = tmp_path / "citations.jsonl"
        citations.write_text("", encoding="utf-8")
        registry = tmp_path / "registry.tsv"
        registry.write_bytes(b"canonical\tNature\ncanonical\tSci\xffnce\n")
        out = tmp_path / "out"
        code = main(["count", "--citations", str(citations), "--registry", str(registry),
                     "--out", str(out)])
        assert code == 2
        assert f"wikicite: input error: {registry}: 'utf-8' codec" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["extract"], ["count"], ["count", "--jobs", "2"]],
                             ids=["extract", "count", "count-jobs-2"])
    def test_dump_cut_mid_page_is_named(self, small_dump, tmp_path, capsys, command):
        data = small_dump.read_bytes()
        cut = tmp_path / "cut.xml"
        cut.write_bytes(data[: data.index(b"</page>", len(data) // 2)])
        out = tmp_path / "out"
        assert main([*command, "--dump", str(cut), "--out", str(out)]) == 2
        assert f"wikicite: input error: {cut}: no element found" in capsys.readouterr().err
        # extract opens citations.jsonl before it reads the dump; count
        # writes nothing until the whole dump is tallied.
        if command == ["extract"]:
            assert os.listdir(out) == []
        else:
            assert not out.exists()

    def test_bad_jcr_leaves_no_out_directory(self, tmp_path, capsys):
        _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
        jcr_path.write_text("journal,total_citations,impact_factor,articles\nNature,1,2\n",
                            encoding="utf-8")
        out = tmp_path / "out"
        code = main(["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
                     "--out", str(out)])
        assert code == 2
        assert f"wikicite: input error: {jcr_path}: line 2:" in capsys.readouterr().err
        assert not out.exists()


class TestOutputErrors:
    """An output that cannot be made, opened or renamed is an output error
    (exit 2) naming that output, and leaves no ``*.partial`` file."""

    @pytest.fixture
    def empty(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        return empty

    def test_out_under_a_regular_file(self, tmp_path, capsys, empty):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        out = tmp_path / "afile" / "x"
        assert main(["count", "--citations", str(empty), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"wikicite: output error: {out / 'counts.csv'}: [Errno 20] Not a directory" in err
        assert not list(tmp_path.rglob("*.partial"))

    def test_output_name_taken_by_a_directory(self, tmp_path, capsys, empty):
        out = tmp_path / "out"
        (out / "counts.json").mkdir(parents=True)
        assert main(["count", "--citations", str(empty), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"wikicite: output error: {out / 'counts.json'}: " in err
        assert sorted(os.listdir(out)) == ["counts.csv", "counts.json"]


def test_cli_import_skips_network_modules():
    """Start-up stays cheap: nothing on the CLI's import path pulls in the
    XML helpers that drag in ``urllib.request`` and ``http.client``."""
    code = (
        "import sys, wikicite.cli; "
        "print([m for m in ('xml.sax.saxutils', 'urllib.request') if m in sys.modules])"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


# What only some commands need: the pool (count --jobs > 1), the statistics
# (correlate), the generator (gen-fixture) and the builtin registry's loader;
# and what no command needs: dataclasses and the inspect module it imports.
_DEFERRED_MODULES = (
    "concurrent.futures.process",
    "dataclasses",
    "importlib.resources",
    "inspect",
    "multiprocessing",
    "random",
    "wikicite.bibliometrics",
    "wikicite.fixtures",
)


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter started with ``-S``, so that no site
    ``.pth`` file preloads modules."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )


def _bare_cli(*argv: str) -> tuple[int, list[str]]:
    """Exit code of ``main(argv)`` in a fresh interpreter, and which of the
    deferred modules the run added to ``sys.modules``."""
    code = (
        "import sys; before = set(sys.modules); from wikicite.cli import main; "
        "code = main(sys.argv[1:]); "
        f"loaded = [m for m in {_DEFERRED_MODULES!r} if m in sys.modules and m not in before]; "
        "import json; print(json.dumps([code, loaded]))"
    )
    result = _fresh_python(code, *argv)
    assert result.returncode == 0, result.stderr
    exit_code, loaded = json.loads(result.stdout)
    return exit_code, loaded


def test_commands_import_only_what_they_use(tmp_path):
    fx, out = tmp_path / "fx", tmp_path / "out"
    assert _bare_cli("gen-fixture", "--pages", "60", "--citations", "200", "--out", str(fx)) == (
        0, ["importlib.resources", "random", "wikicite.fixtures"],
    )
    registry = str(fx / "registry.tsv")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert _bare_cli(
        "count", "--citations", str(empty), "--registry", registry, "--out", str(out / "setup")
    ) == (0, [])
    assert _bare_cli("extract", "--dump", str(fx / "dump.xml"), "--out", str(out / "extract")) == (
        0, [],
    )
    assert _bare_cli(
        "count", "--dump", str(fx / "dump.xml"), "--registry", registry, "--out", str(out / "count")
    ) == (0, [])
    assert _bare_cli(
        "correlate", "--counts", str(out / "count" / "counts.json"), "--registry", registry,
        "--jcr", str(fx / "jcr.csv"), "--out", str(out / "correlate"),
    ) == (0, ["wikicite.bibliometrics"])
    counts = str(out / "count" / "counts.json")
    assert _bare_cli(
        "growth", "--table", f"2006-01-01={counts}", "--table", f"2007-01-01={counts}",
        "--out", str(out / "growth"),
    ) == (0, [])


def test_lazy_names_resolve_in_a_fresh_interpreter():
    """Every ``module:attr`` and ``module:Class.method`` target that the
    benchmark's probes rebind, and every name in ``wikicite.__all__``,
    resolves before any command has run. A method must be the class's own,
    as the probes rebind it there. So a renamed layer function fails here,
    not only in a traced benchmark run."""
    probed = set(re.findall(r'Probe\("([\w.]+:[\w.]+)"', (_ROOT / "perfbench" / "spans.py").read_text()))
    assert {
        "wikicite.cli:topn_sweep",
        "wikicite.cli:join",
        "wikicite.cli:write_correlations_csv",
        "wikicite.cli:write_scatter_csv",
        "wikicite.extractor:_split_top_level",
        "wikicite.extractor:clean_journal_value",
        "wikicite.registry:JournalRegistry.resolve",
    } <= probed
    code = (
        "import importlib, sys, wikicite\n"
        "def found(target):\n"
        "    module, _, path = target.partition(':')\n"
        "    *owners, attr = path.split('.')\n"
        "    try:\n"
        "        owner = importlib.import_module(module)\n"
        "        for name in owners:\n"
        "            owner = getattr(owner, name)\n"
        "    except (ImportError, AttributeError):\n"
        "        return False\n"
        "    return attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)\n"
        "namespace = {}\n"
        "exec('from wikicite import *', namespace)\n"
        "print([t for t in sys.argv[1:] if not found(t)], "
        "[n for n in wikicite.__all__ if not hasattr(wikicite, n) or n not in namespace])"
    )
    result = _fresh_python(code, *sorted(probed | {"wikicite.cli:ProcessPoolExecutor"}))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[] []"


def test_commands_call_rebound_names(small_dump, tmp_path, monkeypatch):
    """A name rebound on ``wikicite.cli`` is what the command calls, as the
    benchmark's probes rely on; loading the deferred names keeps it."""
    from wikicite import cli

    called = []
    sweep = cli.topn_sweep

    def counting_sweep(*args):
        called.append("topn_sweep")
        return sweep(*args)

    class CountingPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            called.append("ProcessPoolExecutor")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "topn_sweep", counting_sweep)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
    assert main(
        ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path),
         "--out", str(tmp_path / "correlate")]
    ) == 0
    assert main(
        ["count", "--dump", str(small_dump), "--jobs", "2", "--out", str(tmp_path / "count")]
    ) == 0
    assert called.count("topn_sweep") == 4
    assert called.count("ProcessPoolExecutor") == 1


@pytest.mark.parametrize("command, file, text, message", [
    ("count", "citations.jsonl", '{"a":' * 100_000, "bad citation record on line 1: maximum recursion"),
    ("count", "extract_summary.json", "[" * 3_000 + "]" * 3_000, "extract_summary.json: nested too deeply"),
    ("correlate", "counts.json", "[" * 3_000 + "]" * 3_000, "count table: nested too deeply"),
    ("growth", "counts.json", "[" * 3_000 + "]" * 3_000, "count table: nested too deeply"),
], ids=["count-citations", "count-summary", "correlate-counts", "growth"])
def test_deeply_nested_json_exits_2_in_a_fresh_interpreter(tmp_path, command, file, text, message):
    """json's C scanner recurses once per nesting level; a file nested past
    the recursion limit is an input error, not a RecursionError."""
    _, counts_path, jcr_path, _ = _write_counts_and_jcr(tmp_path)
    citations = tmp_path / "citations.jsonl"
    citations.write_text("", encoding="utf-8")
    (tmp_path / file).write_text(text, encoding="utf-8")
    argv = {
        "count": ["count", "--citations", str(citations)],
        "correlate": ["correlate", "--counts", str(counts_path), "--jcr", str(jcr_path)],
        "growth": ["growth", "--table", f"2007-01-01={counts_path}"],
    }[command]
    result = subprocess.run(
        [sys.executable, "-m", "wikicite.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )
    assert result.returncode == 2, result.stderr
    assert "wikicite: input error:" in result.stderr
    assert message in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("bad", ["citations", "dump"])
def test_bad_count_input_exits_2_in_a_fresh_interpreter(tmp_path, bad):
    path = tmp_path / "bad"
    path.write_text("{not json\n" if bad == "citations" else "<mediawiki><page>", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "wikicite.cli", "count", f"--{bad}", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )
    assert result.returncode == 2, result.stderr
    assert "wikicite: input error:" in result.stderr
    assert "Traceback" not in result.stderr
